"""Each correctness check of the benchmark must catch a corrupted output.

    python3 -m pytest bench/tests

A small real experiment is run once through the CLI; every test then
corrupts a copy of its runs CSV (or summary) and expects the check that
guards that property to fail the affected run, and only then.
"""

import csv
import os
import shutil
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
import truth  # noqa: E402
from lrts import cli, harness  # noqa: E402

SPECS = [("gtrap-bt", "0.5", ""), ("lrta", "", ""), ("ilrta", "", "0.5")]
ARGV = ["--experiment", "convergence", "--domain", "puzzle8",
        "--algorithms", "gtrap-bt,lrta,ilrta", "--gamma", "0.5", "--epsilon", "0.5",
        "--lookahead", "1", "--folds", "2", "--instances", "2", "--seed", "5"]


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("bench-checks"))
    assert cli.main(ARGV + ["--out-dir", out]) == 0
    dist = truth.bfs_distances(3, 3)
    facts = {}
    for fold, instances in harness.generate_instances(cli.parse_config(ARGV)).items():
        for inst in instances:
            start = inst.start.tiles
            facts[(fold, inst.instance_id)] = checks.Truth(start, 3, 3, optimal=dist[start])
    expected = checks.expected_keys(SPECS, [1], range(2), folds=2)
    return out, facts, expected


def _check(experiment, tmp_path, corrupt=None, corrupt_summary=None):
    out, facts, expected = experiment
    runs, summary = str(tmp_path / "runs.csv"), str(tmp_path / "summary.csv")
    shutil.copy(os.path.join(out, "runs_convergence.csv"), runs)
    shutil.copy(os.path.join(out, "summary_convergence.csv"), summary)
    for path, edit in ((runs, corrupt), (summary, corrupt_summary)):
        if edit is None:
            continue
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        columns = list(rows[0])
        rows = edit(rows)
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, columns, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
    return checks.check_round(runs, summary, "convergence", expected, facts)


def _reasons(result):
    return [r for reasons in result.failed_keys.values() for r in reasons]


def _edit_row(algorithm, column, change):
    def edit(rows):
        for row in rows:
            if row["algorithm"] == algorithm:
                row[column] = str(change(int(row[column])))
                break
        return rows
    return edit


def test_real_output_passes(experiment, tmp_path):
    result = _check(experiment, tmp_path)
    assert result.failed == 0, result.failed_keys
    assert not result.errors
    assert result.attempted == 12
    assert result.moves > 0


def test_lowered_final_cost_fails(experiment, tmp_path):
    result = _check(experiment, tmp_path, _edit_row("lrta", "final_cost", lambda v: v - 2))
    assert result.failed >= 1
    assert any("below optimal" in r for r in _reasons(result))


def test_flipped_parity_fails(experiment, tmp_path):
    result = _check(experiment, tmp_path, _edit_row("gtrap-bt", "final_cost", lambda v: v + 1))
    assert any("parity" in r for r in _reasons(result))


def test_missing_row_fails(experiment, tmp_path):
    result = _check(experiment, tmp_path, lambda rows: rows[1:])
    assert any("missing" in r for r in _reasons(result))


def test_duplicated_row_fails(experiment, tmp_path):
    result = _check(experiment, tmp_path, lambda rows: rows + rows[:1])
    assert any("more than once" in r for r in _reasons(result))


def test_wrong_optimal_cost_fails(experiment, tmp_path):
    result = _check(experiment, tmp_path, _edit_row("ilrta", "optimal_cost", lambda v: v + 2))
    assert any("ground truth" in r for r in _reasons(result))


def test_unconverged_run_fails(experiment, tmp_path):
    def edit(rows):
        rows[0]["converged_at"] = ""
        rows[0]["limit_hit"] = "MOVES"
        return rows
    reasons = _reasons(_check(experiment, tmp_path, edit))
    assert any("did not converge" in r for r in reasons)
    assert any("limit hit" in r for r in reasons)


def test_summary_disagreement_fails(experiment, tmp_path):
    def edit(rows):
        rows[0]["mean_final_cost"] = repr(float(rows[0]["mean_final_cost"]) + 1.0)
        return rows
    result = _check(experiment, tmp_path, corrupt_summary=edit)
    assert result.failed == 4  # every run of that configuration
    assert all("summary" in r for r in _reasons(result))


def _row(**cells):
    row = {"experiment": "convergence", "limit_hit": "", "converged_at": "3",
           "convergence_cost": "500", "param_gamma": "", "param_epsilon": ""}
    row.update(cells)
    return row


def test_gamma_bound_uses_exact_arithmetic():
    fact = checks.Truth(truth.goal(3, 3), 3, 3, optimal=20)
    # 0.2 is not exactly representable; 100 * 0.2 must still equal 20
    ok = _row(algorithm="gtrap-bt", param_gamma="0.2", final_cost="100", optimal_cost="20")
    assert checks.row_violations(ok, "convergence", fact) == []
    over = _row(algorithm="gtrap-bt", param_gamma="0.2", final_cost="102", optimal_cost="20")
    assert any("optimal/gamma" in r for r in checks.row_violations(over, "convergence", fact))


def test_lrta_and_ilrta_bounds():
    fact = checks.Truth(truth.goal(3, 3), 3, 3, optimal=20)
    lrta = _row(algorithm="lrta", final_cost="22", optimal_cost="20")
    assert any("lrta" in r for r in checks.row_violations(lrta, "convergence", fact))
    ilrta_ok = _row(algorithm="ilrta", param_epsilon="0.5", final_cost="30", optimal_cost="20")
    assert checks.row_violations(ilrta_ok, "convergence", fact) == []
    ilrta_over = _row(algorithm="ilrta", param_epsilon="0.5", final_cost="32", optimal_cost="20")
    assert checks.row_violations(ilrta_over, "convergence", fact)


def test_p15_bounds_from_the_walk():
    start = (4, 1, 2, 3, 0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)  # Manhattan 1
    fact = checks.Truth(start, 4, 4, walk=5)
    good = _row(algorithm="gtrap-bt", param_gamma="0.5", final_cost="1", optimal_cost="1")
    assert checks.row_violations(good, "convergence", fact) == []
    for cost in ("0", "2", "7"):  # below Manhattan, wrong parity, above the walk
        bad = _row(algorithm="gtrap-bt", param_gamma="0.5", final_cost=cost, optimal_cost=cost)
        assert checks.row_violations(bad, "convergence", fact)


def test_replay_and_ground_truth_agree():
    dist = truth.bfs_distances(3, 3)
    start = (1, 0, 2, 3, 4, 5, 6, 7, 8)  # one move right of the goal
    assert dist[start] == 1
    assert truth.replay_reaches_goal(start, [2], 3, 3) == (True, "")
    assert not truth.replay_reaches_goal(start, [3], 3, 3)[0]
    assert not truth.replay_reaches_goal(start, [2, 3, 2], 3, 3)[0]
    for board in sorted(dist)[::20000]:
        assert truth.ida_star(board, 3, 3) == dist[board]
