import dataclasses
import os
import random
from dataclasses import replace

import pytest

from lrts.agents import AgentConfig, Algorithm, make_agent
from lrts.harness import (
    RUN_COLUMNS,
    ExperimentConfig,
    StabilityIndices,
    TaskSpec,
    aggregate,
    build_tasks,
    generate_instances,
    run_experiment,
    run_trial,
    run_until_convergence,
    stability,
    write_csv,
)
from lrts.oracle import ida_star_optimal
from lrts.tiles import TilePuzzle, goal_board, random_solvable

from domains import LineProblem, write_puzzle15_walks
from oracles import bfs_goal_distance


def _line_agent(problem, algorithm=Algorithm.LRTA, base=None, **kw):
    cfg = AgentConfig(algorithm, **kw)
    if base is None:
        base = lambda s: 0
    return make_agent(problem, cfg, base=base), cfg


def test_run_trial_walks_to_goal_and_resets():
    line = LineProblem(4)
    exact = {0: 3, 1: 2, 2: 1, 3: 0}
    agent, cfg = _line_agent(line, base=exact.__getitem__)
    rec = run_trial(agent, line, cfg)
    assert (rec.solution_cost, rec.moves) == (3, 3)
    assert rec.h_updates == 0 and not rec.hit_move_limit
    assert agent.current == line.initial_state and agent.trail == []
    assert agent.trial_actions == [LineProblem.RIGHT] * 3


def test_run_trial_move_limit_cuts_the_walk():
    line = LineProblem(10)
    agent, cfg = _line_agent(line, base={i: 9 - i for i in range(10)}.__getitem__)
    rec = run_trial(agent, line, cfg, move_limit=2)
    assert rec.hit_move_limit and rec.moves == 2 and rec.solution_cost == 2
    assert agent.current == line.initial_state
    # the goal reached on the last allowed move is no limit hit
    line = LineProblem(4)
    agent, cfg = _line_agent(line, base={0: 3, 1: 2, 2: 1, 3: 0}.__getitem__)
    rec = run_trial(agent, line, cfg, move_limit=3)
    assert not rec.hit_move_limit and rec.moves == 3 and rec.solution_cost == 3


def test_run_trial_starting_at_goal_is_a_no_op():
    line = LineProblem(3, start=2)
    agent, cfg = _line_agent(line)
    rec = run_trial(agent, line, cfg)
    assert (rec.solution_cost, rec.moves, rec.h_updates) == (0, 0, 0)


def test_run_until_convergence_on_a_line():
    line = LineProblem(6)
    agent, cfg = _line_agent(line)  # flat zero heuristic forces learning
    rec = run_until_convergence(agent, line, cfg)
    assert rec.converged_at == len(rec.trials)
    assert all(t.h_updates > 0 for t in rec.trials[:-1])
    assert rec.trials[-1].h_updates == 0
    assert rec.final_cost == 5  # optimal after convergence
    assert rec.convergence_cost == sum(t.solution_cost for t in rec.trials)
    assert rec.stored_values == agent.table.stored_count
    assert rec.limit_hit is None


def test_run_until_convergence_move_limit_abort():
    line = LineProblem(10)
    agent, cfg = _line_agent(line)
    rec = run_until_convergence(agent, line, cfg, move_limit=3)
    assert rec.limit_hit == "MOVES" and rec.converged_at is None
    assert len(rec.trials) == 1 and rec.trials[0].hit_move_limit
    assert rec.convergence_cost is None and rec.final_cost == 3


def test_run_until_convergence_memory_abort():
    problem = TilePuzzle(random_solvable(3, 3, random.Random(6)))
    cfg = AgentConfig(Algorithm.LRTA, seed=1)
    agent = make_agent(problem, cfg, base=lambda s: 0)
    rec = run_until_convergence(agent, problem, cfg, memory_limit=1)
    assert rec.limit_hit == "MEMORY" and rec.converged_at is None
    assert rec.stored_values > 1


def test_stability_hand_values():
    a = stability([10, 8, 8], 3, 8)
    assert a == StabilityIndices(iae=2, ise=4, itae=2, itse=4, sod=0)
    b = stability([10, 12, 8], 3, 8)
    assert b == StabilityIndices(iae=6, ise=20, itae=10, itse=36, sod=2)
    # truncation: the fourth trial must not leak in
    c = stability([10, 8, 8, 99], 3, 8)
    assert c == a


def test_stability_validation():
    with pytest.raises(ValueError):
        stability([], 1, 0)
    with pytest.raises(ValueError):
        stability([5], 0, 0)
    with pytest.raises(ValueError):
        stability([5], 2, 0)
    with pytest.raises(ValueError):
        stability([5], 1, -1)


def _row(fold, convergence_cost, converged_at, ratio):
    return {
        "experiment": "convergence", "algorithm": "lrta",
        "param_gamma": None, "param_epsilon": None, "lookahead": 1,
        "fold": fold, "instance_id": 0, "seed": 0,
        "converged_at": converged_at, "convergence_cost": convergence_cost,
        "final_cost": 10, "optimal_cost": 10, "final_ratio_pct": ratio,
        "stored_values": 5, "iae": None, "ise": None, "itae": None,
        "itse": None, "sod": None, "limit_hit": None,
    }


def test_aggregate_fold_means_then_cross_fold_stats():
    rows = [
        _row(0, 10, 3, 100.0),
        _row(0, 20, None, None),
        _row(1, 25, 2, 110.0),
    ]
    (summary,) = aggregate(rows)
    assert summary["folds"] == 2 and summary["runs"] == 3
    # fold means 15 and 25
    assert summary["mean_convergence_cost"] == 20
    assert summary["std_convergence_cost"] == pytest.approx(7.0710678118654755)
    # one converged run in each fold
    assert summary["converged_mean"] == 1.0 and summary["converged_std"] == 0.0
    # the missing ratio is dropped from fold 0's mean, not zero-filled
    assert summary["mean_final_ratio_pct"] == pytest.approx(105.0)
    assert summary["ratio_coverage"] == pytest.approx(2 / 3)


def test_aggregate_single_fold_has_zero_std():
    (summary,) = aggregate([_row(0, 10, 1, 100.0), _row(0, 30, 1, 100.0)])
    assert summary["mean_convergence_cost"] == 20
    assert summary["std_convergence_cost"] == 0.0


def test_aggregate_groups_by_parameters():
    rows = [_row(0, 10, 1, 100.0), _row(0, 10, 1, 100.0)]
    rows[1]["param_gamma"] = 0.5
    rows[1]["algorithm"] = "gtrap"
    summaries = aggregate(rows)
    assert len(summaries) == 2


def _p8_config(**kw):
    defaults = dict(
        experiment="convergence", domain="puzzle8",
        algorithms=(Algorithm.GTRAP_BT,), gammas=(0.5,),
        lookaheads=(1,), folds=2, instances=2, master_seed=3,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_build_tasks_order_and_seed_spread():
    config = _p8_config(
        algorithms=(Algorithm.GTRAP_BT, Algorithm.LRTA, Algorithm.ILRTA),
        gammas=(0.5, 1.0), epsilons=(0.2,), lookaheads=(1, 2), instances=3,
    )
    tasks = build_tasks(config)
    # gtrap-bt at two gammas, lrta, ilrta at one epsilon; 2 lookaheads,
    # 2 folds, 3 instances
    assert len(tasks) == 4 * 2 * 2 * 3
    assert tasks == build_tasks(config)
    assert len({t.cfg.seed for t in tasks}) == len(tasks)
    # algorithm, then its gamma or epsilon, then lookahead
    order = [(t.cfg.algorithm.value, t.cfg.gamma, t.cfg.epsilon, t.cfg.d_max)
             for t in tasks[::2 * 3]]
    assert order == [
        ("gtrap-bt", 0.5, 0.0, 1), ("gtrap-bt", 0.5, 0.0, 2),
        ("gtrap-bt", 1.0, 0.0, 1), ("gtrap-bt", 1.0, 0.0, 2),
        ("lrta", 1.0, 0.0, 1), ("lrta", 1.0, 0.0, 2),
        ("ilrta", 1.0, 0.2, 1), ("ilrta", 1.0, 0.2, 2),
    ]
    # each configuration runs folds x instances times, differing only in the seed
    assert [replace(t.cfg, seed=0) for t in tasks] == [
        c for c in config.agent_configs() for _ in range(2 * 3)]
    assert [(t.fold, t.instance_id) for t in tasks[:6]] == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]


def test_puzzle8_folds_draw_distinct_boards():
    per_fold = generate_instances(_p8_config())
    assert per_fold[0][0].start.tiles != per_fold[1][0].start.tiles
    again = generate_instances(_p8_config())
    assert [i.start for i in per_fold[0]] == [i.start for i in again[0]]
    shifted = generate_instances(_p8_config(master_seed=4))
    assert [i.start for i in per_fold[0]] != [i.start for i in shifted[0]]


def _write_korf(path, count, seed=5):
    rng = random.Random(seed)
    lines = []
    for i in range(count):
        board = random_solvable(4, 4, rng)
        lines.append(f"{i} " + " ".join(str(t) for t in board.tiles))
    path.write_text("\n".join(lines) + "\n")


def test_puzzle15_folds_share_the_file_instances(tmp_path):
    korf = tmp_path / "instances.txt"
    _write_korf(korf, 3)
    config = _p8_config(domain="puzzle15", korf_path=str(korf),
                        instances=2, folds=2)
    per_fold = generate_instances(config)
    assert per_fold[0] == per_fold[1]
    assert len(per_fold[0]) == 2
    tasks = build_tasks(config)
    fold0 = [t.start for t in tasks if t.fold == 0]
    fold1 = [t.start for t in tasks if t.fold == 1]
    assert fold0 == fold1
    seeds0 = [t.cfg.seed for t in tasks if t.fold == 0]
    seeds1 = [t.cfg.seed for t in tasks if t.fold == 1]
    assert set(seeds0).isdisjoint(seeds1)


def test_puzzle15_requires_instance_file():
    with pytest.raises(ValueError):
        _p8_config(domain="puzzle15")


def test_file_shorter_than_requested_instances(tmp_path):
    korf = tmp_path / "short.txt"
    _write_korf(korf, 1)
    config = _p8_config(domain="puzzle15", korf_path=str(korf), instances=2)
    with pytest.raises(ValueError):
        generate_instances(config)


def test_rta_only_runs_first_trial():
    with pytest.raises(ValueError):
        _p8_config(algorithms=(Algorithm.RTA,))
    _p8_config(algorithms=(Algorithm.RTA,), experiment="first-trial")


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        _p8_config(experiment="warmup")
    with pytest.raises(ValueError):
        _p8_config(domain="chess")
    for name in ("algorithms", "gammas", "epsilons", "lookaheads"):
        with pytest.raises(ValueError, match=name):
            _p8_config(**{name: ()})
    with pytest.raises(ValueError, match="gammas"):
        _p8_config(gammas=(0.5, 0.2, 0.5))
    with pytest.raises(ValueError, match="algorithms"):
        _p8_config(algorithms=(Algorithm.LRTA, Algorithm.GTRAP_BT, Algorithm.LRTA))
    with pytest.raises(ValueError):
        _p8_config(lookaheads=(0,))
    with pytest.raises(ValueError):
        _p8_config(folds=0)
    with pytest.raises(ValueError):
        _p8_config(jobs=0)
    with pytest.raises(ValueError, match="ida_budget"):
        _p8_config(ida_budget=-1)
    # a count must be an int: a bool would run under its own tag and seed,
    # and a fraction would fail inside the run
    for name, value in (("instances", 1.5), ("jobs", 1.5), ("master_seed", 0.5),
                        ("folds", True), ("move_limit", 2.0), ("ida_budget", "0")):
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            _p8_config(**{name: value})
    for lookahead in (True, 2.5):
        with pytest.raises(ValueError, match="lookahead d_max must be an int"):
            _p8_config(lookaheads=(lookahead,))
    # gamma and epsilon values are checked even where no listed algorithm
    # takes them
    with pytest.raises(ValueError, match="epsilon"):
        _p8_config(epsilons=(float("nan"),))
    with pytest.raises(ValueError, match="gamma"):
        _p8_config(algorithms=(Algorithm.LRTA,), gammas=(0.0,))
    with pytest.raises(ValueError, match="korf"):
        _p8_config(korf_path="instances.txt")


def test_run_experiment_rows_cover_every_task():
    config = _p8_config()
    rows, summary = run_experiment(config)
    assert len(rows) == 4
    assert all(set(r) == set(RUN_COLUMNS) for r in rows)
    assert all(r["converged_at"] is not None for r in rows)
    assert all(r["final_ratio_pct"] is not None for r in rows)
    (s,) = summary
    assert s["runs"] == 4 and s["folds"] == 2
    assert s["ratio_coverage"] == 1.0


def test_parallel_rows_match_sequential():
    seq = run_experiment(_p8_config())
    par = run_experiment(_p8_config(jobs=2))
    assert seq == par


def test_int_gamma_and_epsilon_run_as_the_equal_float():
    """Run seeds come from the agent tag, which spells gamma and epsilon as
    stored, so an int, or -0.0, must run exactly as the equal float."""
    grid = dict(algorithms=(Algorithm.GTRAP_BT, Algorithm.ILRTA), folds=1)
    for epsilon, equal_float in ((1, 1.0), (-0.0, 0.0)):
        as_given, _ = run_experiment(_p8_config(gammas=(1,), epsilons=(epsilon,), **grid))
        as_float, _ = run_experiment(_p8_config(gammas=(1.0,), epsilons=(equal_float,),
                                                **grid))
        # repr tells -0.0 from 0.0, which == does not
        assert repr(as_given) == repr(as_float)
        assert {type(r[c]) for r in as_given for c in ("param_gamma", "param_epsilon")} == {
            float, type(None)}


def test_task_spec_holds_only_what_varies_per_run():
    assert [f.name for f in dataclasses.fields(TaskSpec)] == [
        "cfg", "fold", "instance_id", "start"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_progress_reports_the_run_count_then_every_run(jobs):
    calls = []
    rows, _ = run_experiment(_p8_config(jobs=jobs),
                             progress=lambda done, total: calls.append((done, total)))
    assert calls == [(done, 4) for done in range(5)]
    assert len(rows) == 4


def test_pool_has_at_most_one_worker_per_task_and_cpu(monkeypatch):
    sizes = []

    class SerialPool:
        """Records the pool size it is given and maps in this process."""

        def __init__(self, max_workers, initializer):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            return map(fn, tasks)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    config = _p8_config(folds=1, instances=3)
    serial = run_experiment(config)
    assert sizes == []
    assert run_experiment(replace(config, jobs=10**6)) == serial
    workers = min(3, os.cpu_count() or 1)
    assert sizes == ([workers] if workers > 1 else [])


def test_first_trial_rows_have_no_convergence_fields():
    config = _p8_config(
        experiment="first-trial",
        algorithms=(Algorithm.RTA, Algorithm.LRTA),
        folds=1,
    )
    rows, summary = run_experiment(config)
    assert len(rows) == 4
    for r in rows:
        assert r["converged_at"] is None and r["convergence_cost"] is None
        assert r["iae"] is None and r["sod"] is None
        assert r["final_ratio_pct"] is not None
        assert r["limit_hit"] is None
    assert {s["algorithm"] for s in summary} == {"rta", "lrta"}


def test_move_limited_run_reports_no_ratio():
    config = _p8_config(algorithms=(Algorithm.LRTA,), folds=1,
                        instances=1, move_limit=2)
    rows, _ = run_experiment(config)
    (row,) = rows
    assert row["limit_hit"] == "MOVES"
    assert row["final_ratio_pct"] is None and row["converged_at"] is None
    assert row["optimal_cost"] is not None  # oracle still knows the truth


def test_puzzle15_ground_truth_is_solved_once_per_board(tmp_path, monkeypatch):
    korf = tmp_path / "walks.txt"
    boards = write_puzzle15_walks(korf, 3, 10, seed=8)
    solved = []

    def counting_ida(problem, tiles, budget):
        solved.append(tiles)
        return ida_star_optimal(problem, tiles, budget=budget)

    monkeypatch.setattr("lrts.harness.ida_star_optimal", counting_ida)
    config = _p8_config(domain="puzzle15", korf_path=str(korf), instances=3, folds=2)
    rows, _ = run_experiment(config)
    assert len(rows) == 6
    problem = TilePuzzle(goal_board(4, 4))
    for row in rows:
        tiles = boards[row["instance_id"]]
        assert row["optimal_cost"] == bfs_goal_distance(problem, tiles)
    assert sorted(solved) == sorted(boards)

    solved.clear()
    rows, _ = run_experiment(replace(config, ida_budget=0))
    assert solved == []
    assert all(r["optimal_cost"] is None and r["final_ratio_pct"] is None for r in rows)


def test_write_csv_is_byte_stable(tmp_path):
    rows = [
        {"a": 1, "b": 2.5, "c": None, "d": "x"},
        {"a": None, "b": 0.1, "c": 7, "d": "y"},
    ]
    p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
    write_csv(str(p1), ("a", "b", "c", "d"), rows)
    write_csv(str(p2), ("a", "b", "c", "d"), rows)
    data = p1.read_bytes()
    assert data == p2.read_bytes()
    assert data == b"a,b,c,d\n1,2.5,,x\n,0.1,7,y\n"
