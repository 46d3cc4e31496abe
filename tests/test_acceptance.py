"""Acceptance gate: one test per shipped claim, each printing a PASS/FAIL
line even under capture.

The first six criteria share one benchmark matrix (convergence experiment,
8-puzzle, 3 folds x 100 instances, lookahead 1) that takes a few minutes
to run; it is built once per module. Exact claims are checked with
Fractions so no float rounding can flatter them.
"""

import random
import sys
from fractions import Fraction

import pytest

from lrts.agents import AgentConfig, Algorithm, make_agent
from lrts.cli import main
from lrts.harness import (
    ExperimentConfig,
    run_experiment,
    run_until_convergence,
)
from lrts.oracle import full_bfs_distances, ida_star_optimal
from lrts.tiles import TilePuzzle, load_korf, random_solvable

from properties import (
    check_exact_depth_layers,
    check_manhattan_admissible_consistent,
    check_parity_matches_reachability,
    check_trail_integrity,
    check_trap_hand_traces,
    check_upward_only_discipline,
)

GAMMAS = (0.2, 0.5, 1.0)
MEMORY_CAP = 4_000_000

MATRIX_CONFIG = ExperimentConfig(
    experiment="convergence",
    domain="puzzle8",
    algorithms=(Algorithm.GTRAP_BT, Algorithm.GTRAP, Algorithm.LRTA, Algorithm.ILRTA),
    gammas=GAMMAS,
    epsilons=(0.2, 0.5),
    lookaheads=(1,),
    folds=3,
    instances=100,
    master_seed=1,
)


@pytest.fixture(scope="module")
def matrix():
    print("\n[acceptance] running the shared benchmark matrix "
          "(2700 runs, a few minutes) ...", file=sys.stderr, flush=True)
    rows, summary = run_experiment(MATRIX_CONFIG)
    assert len(rows) == 2700
    return rows, summary


def _verdict(capsys, num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _rows(rows, algorithm, gamma=None, epsilon=None):
    return [r for r in rows
            if r["algorithm"] == algorithm
            and r["param_gamma"] == gamma
            and r["param_epsilon"] == epsilon]


def _summary(summary, algorithm, gamma=None, epsilon=None):
    (row,) = [r for r in summary
              if r["algorithm"] == algorithm
              and r["param_gamma"] == gamma
              and r["param_epsilon"] == epsilon]
    return row


def test_01_gamma_cost_bound(matrix, capsys):
    # converged trap runs never exceed h*(s0) / gamma, checked exactly
    rows, _ = matrix
    checked = violations = 0
    for alg in ("gtrap-bt", "gtrap"):
        for g in GAMMAS:
            for r in _rows(rows, alg, gamma=g):
                if r["converged_at"] is None:
                    continue
                checked += 1
                bound = Fraction(r["optimal_cost"]) / Fraction(str(g))
                if Fraction(r["final_cost"]) > bound:
                    violations += 1
    ok = checked >= 1700 and violations == 0
    _verdict(capsys, 1, "gamma-cost-bound", ok,
             f"{checked} converged runs, {violations} violations")


def test_02_final_quality_band(matrix, capsys):
    _, summary = matrix
    ratio = _summary(summary, "gtrap-bt", gamma=0.2)["mean_final_ratio_pct"]
    ok = ratio is not None and 110.0 <= ratio <= 200.0
    _verdict(capsys, 2, "final-quality", ok,
             f"gtrap-bt(0.2) mean final ratio {ratio:.1f}% vs [110, 200]")


def test_03_convergence_speedup(matrix, capsys):
    _, summary = matrix
    fast = _summary(summary, "gtrap-bt", gamma=0.2)["mean_convergence_cost"]
    lrta = _summary(summary, "lrta")["mean_convergence_cost"]
    ilrta = min(_summary(summary, "ilrta", epsilon=e)["mean_convergence_cost"]
                for e in (0.2, 0.5))
    ok = lrta >= 10 * fast and ilrta >= 3 * fast
    _verdict(capsys, 3, "convergence-speedup", ok,
             f"vs lrta {lrta / fast:.1f}x (need 10x), "
             f"vs best ilrta {ilrta / fast:.1f}x (need 3x)")


def test_04_lrta_converges_to_optimal(matrix, capsys):
    rows, _ = matrix
    sample = sorted(
        (r for r in _rows(rows, "lrta") if r["fold"] == 0),
        key=lambda r: r["instance_id"],
    )[:20]
    ok = len(sample) == 20 and all(
        r["converged_at"] is not None
        and Fraction(r["final_cost"]) == Fraction(r["optimal_cost"])
        for r in sample
    )
    _verdict(capsys, 4, "lrta-optimal", ok,
             f"{len(sample)} instances, exact equality")


def test_05_weighted_bound(matrix, capsys):
    rows, _ = matrix
    tested = _rows(rows, "ilrta", epsilon=0.2)
    converged = [r for r in tested if r["converged_at"] is not None]
    bad = [
        r for r in converged
        if Fraction(r["final_cost"]) > Fraction(6, 5) * Fraction(r["optimal_cost"])
    ]
    ok = len(converged) == len(tested) == 300 and not bad
    _verdict(capsys, 5, "weighted-bound", ok,
             f"{len(converged)} converged runs, {len(bad)} over 1.2x optimal")


def test_06_stability_ordering(matrix, capsys):
    _, summary = matrix
    trap = _summary(summary, "gtrap-bt", gamma=0.2)
    lrta = _summary(summary, "lrta")
    sod_ok = lrta["mean_sod"] > trap["mean_sod"] * 3 or (
        trap["mean_sod"] == 0 and lrta["mean_sod"] > 0)
    iae_ok = lrta["mean_iae"] >= trap["mean_iae"] * 3 and lrta["mean_iae"] > trap["mean_iae"]
    _verdict(capsys, 6, "stability-ordering", sod_ok and iae_ok,
             f"SOD {trap['mean_sod']:.1f} vs {lrta['mean_sod']:.1f}, "
             f"IAE {trap['mean_iae']:.1f} vs {lrta['mean_iae']:.1f}")


def test_07_oracle_equivalence(capsys):
    table = full_bfs_distances(3, 3)
    rng = random.Random(77)
    mismatch = 0
    for _ in range(500):
        board = random_solvable(3, 3, rng)
        problem = TilePuzzle(board)
        if ida_star_optimal(problem, board.tiles) != table[board.tiles]:
            mismatch += 1
    deepest = max(table.values())
    ok = mismatch == 0 and deepest == 31
    _verdict(capsys, 7, "oracle-equivalence", ok,
             f"500 states, {mismatch} mismatches, max depth {deepest}")


def test_08_p15_memory(tmp_path, capsys):
    # scaled-down stand-in set: 100 seeded random solvable 4x4 boards in
    # the usual index-plus-16-tiles format, easiest 10 by Manhattan
    rng = random.Random(4242)
    boards = [random_solvable(4, 4, rng) for _ in range(100)]
    path = tmp_path / "p15_100.txt"
    path.write_text("\n".join(
        f"{i + 1} " + " ".join(str(t) for t in b.tiles)
        for i, b in enumerate(boards)) + "\n")
    instances = load_korf(str(path))
    easiest = sorted(
        instances, key=lambda inst: TilePuzzle(inst.start).manhattan(inst.start.tiles))[:10]

    failures = []
    peak = 0
    for inst in easiest:
        problem = TilePuzzle(inst.start)
        cfg = AgentConfig(Algorithm.GTRAP_BT, d_max=1, gamma=0.5,
                          seed=inst.instance_id)
        agent = make_agent(problem, cfg, base=problem.manhattan)
        rec = run_until_convergence(agent, problem, cfg,
                                    memory_limit=MEMORY_CAP)
        peak = max(peak, rec.stored_values)
        if rec.converged_at is None or rec.stored_values > MEMORY_CAP:
            failures.append(inst.instance_id)
    ok = not failures and len(easiest) == 10
    _verdict(capsys, 8, "p15-memory", ok,
             f"10 instances, peak stored {peak}, cap {MEMORY_CAP}")


def test_09_property_suites(capsys):
    counts = {
        "layers": check_exact_depth_layers(seed=31),
        "manhattan": check_manhattan_admissible_consistent(seed=32),
        "parity": check_parity_matches_reachability(seed=33),
        "upward": check_upward_only_discipline(seed=34),
        "trail": check_trail_integrity(seed=35),
        "traces": check_trap_hand_traces(),
    }
    ok = all(v > 0 for v in counts.values())
    _verdict(capsys, 9, "property-suites", ok,
             ", ".join(f"{k}={v}" for k, v in counts.items()))


def test_10_reproducibility(tmp_path, monkeypatch, capsys):
    argv = ["--experiment", "convergence", "--algorithms", "gtrap-bt,lrta",
            "--gamma", "0.5", "--lookahead", "2", "--folds", "2",
            "--instances", "3", "--seed", "9", "--out-dir", "out"]
    outputs = []
    for sub in ("a", "b"):
        workdir = tmp_path / sub
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert main(list(argv)) == 0
        out = workdir / "out"
        outputs.append({p.name: p.read_bytes()
                        for p in sorted(out.iterdir())})
    ok = (outputs[0] == outputs[1]
          and "runs_convergence.csv" in outputs[0]
          and "manifest.json" in outputs[0])
    _verdict(capsys, 10, "reproducibility", ok,
             f"{len(outputs[0])} files byte-compared")
