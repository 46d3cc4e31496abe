"""Host speed, measured next to the rounds so timings can be put on one scale.

On a shared machine the same fixed work can take 40% longer from one
minute to the next (see README.md). A short loop of pure-Python work of
the kind the program's hot paths do (building tuples, list swaps, dict
hits and misses), using no `lrts` code, is timed before every round, on
as many cores at once as the round's CLI call uses (`--jobs`). The
end-to-end times are reported at the reference speed, at which this loop
takes REFERENCE_S: measured time * REFERENCE_S / median loop time of the
run. A change to `lrts` does not change the loop, so it shows in full.
"""

import os
import struct
import time

REFERENCE_S = 0.0035  # median loop time on the 2-core machine the bounds were set on
_ITERATIONS = 6000


def loop_seconds() -> float:
    seen = {}
    base = tuple(range(16))
    t0 = time.perf_counter()
    for i in range(_ITERATIONS):
        cells = list(base)
        a, b = i % 16, (i * 7) % 16
        cells[a], cells[b] = cells[b], cells[a]
        key = tuple(cells)
        seen[key] = seen.get(key, 0) + 1
    return time.perf_counter() - t0


def host_seconds(processes: int = 1) -> float:
    """The loop's mean time over `processes` copies run at once.

    A round at --jobs 2 keeps both cores busy, and a neighbour on either
    core slows it; one loop on one core does not see that, so the loop
    runs in as many processes as the round has workers, each held to its
    own core for the loop (left to itself, the scheduler keeps a fresh
    fork on its parent's core for longer than the loop takes). The forked
    copies report ready, all start at one signal, and have ended when
    this returns; this process gets its own cores back.
    """
    if processes <= 1:
        return loop_seconds()
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    ready_r, ready_w = os.pipe()
    go_r, go_w = os.pipe()
    out_r, out_w = os.pipe()
    children = []
    try:
        for k in range(1, processes):
            pid = os.fork()
            if pid == 0:  # a copy: report ready, wait for the start, time the loop
                try:
                    os.sched_setaffinity(0, {cpus[k % len(cpus)]})
                    for fd in (ready_r, go_w, out_r):
                        os.close(fd)
                    os.write(ready_w, b"r")
                    if os.read(go_r, 1):
                        os.write(out_w, struct.pack("d", _warm_loop_seconds()))
                finally:
                    os._exit(0)
            children.append(pid)
        for fd in (ready_w, go_r, out_w):  # so a copy that dies shows as end of file
            os.close(fd)
        ready_w = go_r = out_w = -1
        os.sched_setaffinity(0, {cpus[0]})
        _read_exactly(ready_r, len(children))
        os.write(go_w, b"g" * len(children))
        mine = _warm_loop_seconds()
        theirs = _read_exactly(out_r, 8 * len(children))
    finally:
        os.sched_setaffinity(0, allowed)
        for fd in (ready_r, ready_w, go_r, go_w, out_r, out_w):
            if fd >= 0:
                os.close(fd)
        for pid in children:
            os.waitpid(pid, 0)
    times = [mine] + [t for (t,) in struct.iter_unpack("d", theirs)]
    return sum(times) / len(times)


def _warm_loop_seconds() -> float:
    """The second of two loops in a row: the first takes the cost of waking
    an idle core and of the page copies that follow a fork."""
    loop_seconds()
    return loop_seconds()


def _read_exactly(fd: int, n: int) -> bytes:
    data = b""
    while len(data) < n:
        chunk = os.read(fd, n - len(data))
        if not chunk:
            raise OSError(f"a calibration copy ended early ({len(data)} of {n} bytes)")
        data += chunk
    return data
