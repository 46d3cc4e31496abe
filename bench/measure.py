"""The measured process: cold set-up, then timed `lrts` CLI rounds.

run.py starts this file as a fresh interpreter and waits for it, so the
set-up it times starts with the process itself. Usage:

    measure.py WORKLOAD SEED SECONDS TRACE WORK_DIR RESULT_JSON

It writes every round's outputs under WORK_DIR and a JSON record of what
it ran and measured to RESULT_JSON; run.py checks the outputs.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import lrts  # noqa: E402  (the checkout's own package, first on the path)
from lrts import cli, harness, oracle  # noqa: E402

IMPORTED_AT = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

import calibration  # noqa: E402
import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _mono() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_cli(rnd: workloads.Round, main=None) -> dict:
    """One CLI invocation, timed; an exception counts the round as failed
    and is logged with its traceback."""
    main = main or cli.main
    t0 = time.perf_counter()
    rc, error = None, None
    try:
        rc = main(rnd.argv)
    except Exception as exc:  # noqa: BLE001  (boundary: record and go on)
        error = repr(exc)
        traceback.print_exc()
    record = rnd.to_json()
    record.update(seconds=time.perf_counter() - t0, rc=rc, error=error)
    return record


def timed_rounds(source: workloads.RoundSource, first: workloads.Round, seconds: float):
    """Rounds 0, 1, ... until `seconds` have passed since the first began;
    the round in progress always finishes. The host-speed loop is timed
    just before and just after each round, on as many cores as the round
    uses; the round records the mean of the two."""
    jobs = source.workload.jobs
    rounds, records = [first], []
    t_start = time.perf_counter()
    while True:
        before = calibration.host_seconds(jobs)
        records.append(run_cli(rounds[-1]))
        records[-1]["calibration_s"] = (before + calibration.host_seconds(jobs)) / 2
        if time.perf_counter() - t_start >= seconds:
            return rounds, records
        rounds.append(source.make(len(rounds)))


def main(argv) -> int:
    name, seed, seconds, trace, work_dir, result_path = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    wl = workloads.WORKLOADS[name]
    if not os.path.abspath(lrts.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"lrts imported from {lrts.__file__}, not from {ROOT}/src", file=sys.stderr)
        return 3

    setup = {"imported_at": IMPORTED_AT, "bfs_s": 0.0}
    if wl.domain == "puzzle8":
        t0 = _mono()
        distances = oracle.full_bfs_distances(3, 3)
        setup["bfs_s"] = _mono() - t0
        t0 = _mono()
        config = cli.parse_config(wl.argv(0, work_dir))
        harness.build_tasks(config)
        setup["parse_build_s"] = _mono() - t0
        source = workloads.RoundSource(wl, seed, work_dir,
                                       workloads.p8_board_for_seed(harness, config), distances)
        first = source.make(0)
    else:
        source = workloads.RoundSource(wl, seed, work_dir)
        first = source.make(0)
        t0 = _mono()
        harness.build_tasks(cli.parse_config(first.argv))
        setup["parse_build_s"] = _mono() - t0

    # the host-speed loop right after the set-up work, for run.py to scale it by
    setup["calibration_s"] = statistics.median(calibration.loop_seconds() for _ in range(9))
    result = {"setup": setup}
    if not trace:
        _, result["rounds"] = timed_rounds(source, first, seconds)
        result["peak_rss_kb"] = {
            "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "largest_worker": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        }
    else:
        result.update(traced_run(wl, seed, seconds, work_dir, source, first, setup))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def traced_run(wl, seed, seconds, work_dir, source, first, setup) -> dict:
    """Untraced rounds for a baseline, the same rounds again traced at
    --jobs 1, then the per-layer rates."""
    rounds, untraced = timed_rounds(source, first, seconds / 8)
    records = list(untraced)
    if wl.jobs > 1:
        baseline = [run_cli(r.rerun("-j1", jobs=1)) for r in rounds]
        records += baseline
    else:
        baseline = untraced
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = [run_cli(r.rerun("-traced", jobs=1), tr.main(cli.main)) for r in rounds]
    finally:
        tr.uninstall()
    records += traced

    # --jobs 2 against --jobs 1 on the 15-puzzle workload's inputs
    if wl.jobs > 1:
        j2, j1, p15_rounds = untraced, baseline, rounds
    else:
        p15 = workloads.RoundSource(workloads.WORKLOADS["p15-memory-j2"], seed, work_dir)
        p15_rounds = [p15.make(i) for i in range(2)]
        j2, j1 = [], []
        for r in p15_rounds:  # interleaved, so a slow spell of the machine hits both
            j2.append(run_cli(r))
            j1.append(run_cli(r.rerun("-j1", jobs=1)))
        records += j2 + j1
    metrics = {
        "harness.jobs2_speedup": sum(r["seconds"] for r in j1) / sum(r["seconds"] for r in j2),
        "host.calibration_s": sorted(r["calibration_s"] for r in untraced)[len(untraced) // 2],
    }

    if wl.domain == "puzzle8":
        metrics["oracle.full_bfs_s"] = setup["bfs_s"]
    else:
        t0 = time.perf_counter()
        oracle.full_bfs_distances(3, 3)
        metrics["oracle.full_bfs_s"] = time.perf_counter() - t0
    p15_starts = list(p15_rounds[0].starts.values())
    t0 = time.perf_counter()
    for s in p15_starts:
        oracle.ida_star_optimal(lrts.TilePuzzle(lrts.TileBoard(4, 4, s)), s,
                                budget=workloads.IDA_BUDGET)
    metrics["oracle.ida_s"] = time.perf_counter() - t0

    metrics.update(layers.tiles_and_core(seed))
    metrics.update(layers.agent_steps(seed))
    metrics.update(layers.harness_moves(seed, p15_starts))
    all_rows = [row for rows, _ in tr.results for row in rows]
    rows, summary = tr.results[-1]
    metrics.update(layers.outputs(all_rows, rows, summary, wl.experiment,
                                  os.path.join(work_dir, "layers-output")))

    traced_s = sum(r["seconds"] for r in traced)
    for module in tracer.MODULES:
        metrics[f"trace.{module}.calls"] = tr.calls[module]
        metrics[f"trace.{module}.self_s"] = tr.self_s[module]
    metrics.update({
        "trace.moves": tr.moves,
        "trace.expansions": tr.expansions,
        "trace.generated": tr.generated,
        "trace.overhead": traced_s / sum(r["seconds"] for r in baseline) - 1.0,
    })
    return {
        "rounds": records,
        "traced_dirs": [r["out_dir"] for r in traced],
        "finals": tr.finals,
        "functions": tr.functions,
        "layers": metrics,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
