"""Benchmark entry point: one workload, one seed, one measured run.

    python3 bench/run.py --workload p8-converge-d1 --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a checkout of the repository; it uses the
checkout's own `src/lrts`. It starts measure.py as a fresh interpreter
(the measured process, plus its worker processes when a workload runs
with --jobs 2), waits for it, checks every output that process wrote
against ground truth computed here, and prints one JSON object as the
last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. attempted and failed count agent
runs (algorithm, parameter, lookahead, fold, instance). Outputs go to a
directory under .bench-out/ in the checkout, removed after a clean run.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

import calibration
import checks
import truth
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CHILD_TIMEOUT_S = 160
RERUN_SAMPLE = 2  # p15 runs re-run serially per measured run


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _load_manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_child(args, work_dir: str):
    """Start measure.py, wait for it, and return (spawn time, result)."""
    result_path = os.path.join(work_dir, "result.json")
    log_path = os.path.join(work_dir, "measure.log")
    cmd = [sys.executable, os.path.join(BENCH, "measure.py"), args.workload,
           str(args.seed), str(args.seconds), str(args.trace), work_dir, result_path]
    with open(log_path, "w", encoding="utf-8") as log:
        spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                                start_new_session=True)
        try:
            rc = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            rc = None
    if rc != 0:
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-3000:]
        print(tail, file=sys.stderr)
        raise RuntimeError("measured process timed out" if rc is None
                           else f"measured process exited with {rc}")
    with open(result_path, encoding="utf-8") as fh:
        return spawned_at, json.load(fh)


class Verdict:
    def __init__(self):
        self.attempted = 0
        self.failed = set()        # (out_dir, run key)
        self.errors = []           # problems no single run owns
        self.moves_by_dir = {}
        self.rows_by_dir = {}


def verify(result: dict, seed: int) -> Verdict:
    v = Verdict()
    p8_dist = None
    first_bytes = {}
    for rec in result["rounds"]:
        wl = workloads.WORKLOADS[rec["workload"]]
        width, height = wl.size
        starts = {int(k): tuple(s) for k, s in rec["starts"].items()}
        expected = checks.expected_keys(wl.specs(), wl.lookaheads, sorted(starts))
        v.attempted += len(expected)
        out_dir = rec["out_dir"]
        if rec["rc"] != 0:
            v.failed.update((out_dir, k) for k in expected)
            continue
        facts = {}
        for i, start in starts.items():
            if wl.domain == "puzzle8":
                if p8_dist is None:
                    p8_dist = truth.bfs_distances(3, 3)
                facts[(0, i)] = checks.Truth(start, width, height, optimal=p8_dist[start])
            else:
                # kept by the generator only when the benchmark's IDA* gave wl.optimal
                facts[(0, i)] = checks.Truth(start, width, height, optimal=wl.optimal,
                                             walk=wl.walk)
        runs = os.path.join(out_dir, f"runs_{wl.experiment}.csv")
        summary = os.path.join(out_dir, f"summary_{wl.experiment}.csv")
        res = checks.check_round(runs, summary, wl.experiment, expected, facts)
        v.failed.update((out_dir, k) for k in res.failed_keys)
        v.errors.extend(res.errors)
        v.moves_by_dir[out_dir] = res.moves
        v.rows_by_dir[out_dir] = res.rows
        for key, reasons in list(res.failed_keys.items())[:3]:
            print(f"FAILED {out_dir} {key}: {'; '.join(reasons)}", file=sys.stderr)
        # the same inputs at any job count, traced or not, give the same bytes
        with open(runs, "rb") as a, open(summary, "rb") as b:
            content = a.read() + b"\0" + b.read()
        ident = (wl.name, rec["index"])
        if ident not in first_bytes:
            first_bytes[ident] = (out_dir, content)
        elif first_bytes[ident][1] != content:
            v.errors.append(f"{out_dir} differs from {first_bytes[ident][0]}")

    _rerun_sample(result, seed, v)
    if "finals" in result:
        _check_trace(result, v)
    return v


def _rerun_sample(result: dict, seed: int, v: Verdict) -> None:
    """Re-run a seeded sample of 15-puzzle runs serially through the
    library API with the row's own seed; they must reproduce exactly."""
    from lrts import AgentConfig, Algorithm, TileBoard, TilePuzzle, make_agent
    from lrts.harness import run_until_convergence

    p15 = [r for r in result["rounds"] if r["workload"] == "p15-memory-j2"
           and r["out_dir"] in v.rows_by_dir]
    if not p15:
        return
    rng = random.Random(f"rerun/{seed}")
    rec = p15[0]
    rows = v.rows_by_dir[rec["out_dir"]]
    for row in rng.sample(rows, min(RERUN_SAMPLE, len(rows))):
        start = tuple(rec["starts"][row["instance_id"]])
        problem = TilePuzzle(TileBoard(4, 4, start))
        cfg = AgentConfig(Algorithm(row["algorithm"]), d_max=int(row["lookahead"]),
                          gamma=float(row["param_gamma"] or 1.0),
                          epsilon=float(row["param_epsilon"] or 0.0), seed=int(row["seed"]))
        agent = make_agent(problem, cfg, base=problem.manhattan)
        got = run_until_convergence(agent, problem, cfg)
        again = (got.converged_at, got.convergence_cost, got.final_cost, got.stored_values)
        want = tuple(int(row[c]) for c in
                     ("converged_at", "convergence_cost", "final_cost", "stored_values"))
        if again != want:
            key = checks.row_key(row)
            print(f"FAILED rerun {rec['out_dir']} {key}: {again} != {want}", file=sys.stderr)
            v.failed.add((rec["out_dir"], key))


def _check_trace(result: dict, v: Verdict) -> None:
    """The traced run's apply() count must equal the moves in its CSVs,
    and every final-trial action list must replay to the goal at exactly
    the row's final_cost."""
    rows, owners = [], []
    for d in result["traced_dirs"]:
        rows += v.rows_by_dir.get(d, [])
        owners += [d] * len(v.rows_by_dir.get(d, []))
    moves = sum(v.moves_by_dir.get(d, 0) for d in result["traced_dirs"])
    if result["layers"]["trace.moves"] != moves:
        v.errors.append(f"traced apply() calls {result['layers']['trace.moves']} "
                        f"!= moves in the CSVs {moves}")
    finals = result["finals"]
    if len(finals) != len(rows):
        v.errors.append(f"{len(finals)} final trials traced for {len(rows)} runs")
        return
    for (start, actions, final_cost), row, d in zip(finals, rows, owners):
        width = 3 if len(start) == 9 else 4
        ok, why = truth.replay_reaches_goal(start, actions, width, width)
        if not ok or len(actions) != final_cost or float(row["final_cost"]) != final_cost:
            print(f"FAILED replay {d} {checks.row_key(row)}: {why or 'cost mismatch'}",
                  file=sys.stderr)
            v.failed.add((d, checks.row_key(row)))


def end_to_end(result: dict, spawned_at: float, v: Verdict) -> dict:
    """The end-to-end metrics, put on the reference host speed of
    calibration.py: each round by the loop timed around it, the set-up
    work by the loop timed right after it; process start and imports
    stay as measured (README.md says why). The measured values go to
    standard error."""
    setup = result["setup"]
    rounds = result["rounds"]
    seconds = [r["seconds"] for r in rounds]
    scaled = [r["seconds"] * calibration.REFERENCE_S / r["calibration_s"] for r in rounds]
    moves = sum(v.moves_by_dir.values())
    rss = result["peak_rss_kb"]
    loop_s = statistics.median(r["calibration_s"] for r in rounds)
    started = setup["imported_at"] - spawned_at
    setup_work = setup["bfs_s"] + setup["parse_build_s"]
    print(f"measured (host loop median {loop_s * 1e3:.3f} ms, reference "
          f"{calibration.REFERENCE_S * 1e3:.3f} ms; after set-up "
          f"{setup['calibration_s'] * 1e3:.3f} ms): setup_s {started + setup_work:.6g}, "
          f"experiment_s {sum(seconds) / len(seconds):.6g}, "
          f"moves_per_s {moves / sum(seconds):.6g}", file=sys.stderr)
    return {
        "setup_s": started + setup_work * calibration.REFERENCE_S / setup["calibration_s"],
        "experiment_s": sum(scaled) / len(scaled),
        "moves_per_s": moves / sum(scaled),
        "peak_rss_mb": (rss["self"] + rss["largest_worker"]) / 1024.0,
    }


def main(argv=None) -> int:
    manifest = _load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=manifest["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "lrts", "__init__.py")):
        return _fail(f"no lrts sources under {os.path.join(ROOT, 'src')}")
    sys.path.insert(0, os.path.join(ROOT, "src"))

    out_root = os.path.join(ROOT, ".bench-out")
    work_dir = os.path.join(out_root, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        spawned_at, result = run_child(args, work_dir)
    except (RuntimeError, OSError, ValueError) as exc:
        return _fail(f"{exc} (outputs kept in {work_dir})")
    v = verify(result, args.seed)
    if args.trace:
        wanted = manifest["per_layer"]
        values = result["layers"]
    else:
        wanted = manifest["end_to_end"]
        values = end_to_end(result, spawned_at, v)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return _fail(f"metrics not measured: {', '.join(missing)}")
    for e in v.errors[:10]:
        print(f"ERROR {e}", file=sys.stderr)
    if args.trace:
        functions = sorted(result["functions"].items(), key=lambda kv: -kv[1][1])
        total = sum(s for _, s in result["functions"].values())
        for name, (calls, self_s) in functions:
            print(f"  {name:45s} {calls:>10d} calls {self_s:9.3f} s self "
                  f"{100 * self_s / total:5.1f}%", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(result['rounds'])} CLI calls, "
          f"{v.attempted} runs, {len(v.failed)} failed", file=sys.stderr)
    print(json.dumps({
        "correct": not v.errors,
        "attempted": v.attempted,
        "failed": len(v.failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    if not v.errors and not v.failed:
        shutil.rmtree(work_dir)
        try:
            os.rmdir(out_root)
        except OSError:
            pass  # other runs still write there
    return 0


if __name__ == "__main__":
    sys.exit(main())
