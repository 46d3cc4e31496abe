"""Invariant checks shared by the unit suites and the acceptance gate.

Each check_* function raises AssertionError on the first violation and
returns the number of cases it examined, so callers can assert coverage.
All of them build their own inputs from an explicit seed.
"""

from __future__ import annotations

import random
from functools import partial

from lrts.agents import AgentConfig, Algorithm, make_agent, step
from lrts.core import HeuristicTable, iter_layers
from lrts.harness import run_until_convergence
from lrts.oracle import full_bfs_distances
from lrts.tiles import TileBoard, TilePuzzle, is_solvable, random_solvable

from domains import LineProblem
from oracles import bfs_layers

GOAL8 = tuple(range(9))


def check_exact_depth_layers(seed: int = 0, boards: int = 30, d_max: int = 4) -> int:
    """iter_layers must produce exactly the breadth-first depth classes,
    with reach cost equal to the depth, action sequences that replay to
    the member state, and as parents the positions of exactly those
    previous-layer members that have the member as a successor."""
    rng = random.Random(seed)
    checked = 0
    for _ in range(boards):
        problem = TilePuzzle(random_solvable(3, 3, rng))
        origin = problem.initial_state
        expected = bfs_layers(problem, origin, d_max)
        produced = list(iter_layers(problem, origin, d_max))
        assert len(produced) == d_max, "8-puzzle layers never run dry this shallow"
        previous = [origin]
        for depth, layer in enumerate(produced, start=1):
            states = [m[0] for m in layer]
            assert len(states) == len(set(states)), f"duplicate state at depth {depth}"
            assert set(states) == expected[depth], f"layer {depth} mismatch"
            for state, reach, acts, parents in layer:
                assert reach == depth, f"unit-cost reach {reach} != depth {depth}"
                assert len(acts) == depth
                here = origin
                for a in acts:
                    here, _ = problem.apply(here, a)
                assert here == state, "action replay missed the member"
                assert parents == tuple(
                    i for i, p in enumerate(previous)
                    if any(n == state for _, n, _ in problem.successors(p))
                ), f"parents of a depth-{depth} member"
                checked += 1
            previous = states
    return checked


def check_manhattan_admissible_consistent(seed: int = 0, samples: int = 400) -> int:
    """Manhattan never exceeds the true optimal cost, matches its parity,
    and changes by exactly 1 across every move."""
    dist = full_bfs_distances(3, 3)
    rng = random.Random(seed)
    pool = sorted(dist)
    checked = 0
    for tiles in rng.sample(pool, samples):
        problem = TilePuzzle(TileBoard(3, 3, tiles))
        h = problem.manhattan(tiles)
        true = dist[tiles]
        assert h <= true, f"inadmissible: h={h} > {true} at {tiles}"
        assert (true - h) % 2 == 0, f"parity mismatch at {tiles}"
        for _, nxt, cost in problem.successors(tiles):
            assert abs(problem.manhattan(nxt) - h) == cost == 1, \
                f"inconsistent step at {tiles}"
            checked += 1
    return checked


def check_parity_matches_reachability(seed: int = 0, samples: int = 1000) -> int:
    """The inversion-parity solvability rule must agree with actual
    reachability from the goal, on solvable and unsolvable boards alike."""
    dist = full_bfs_distances(3, 3)
    rng = random.Random(seed)
    checked = 0
    for _ in range(samples):
        tiles = list(GOAL8)
        rng.shuffle(tiles)
        board = TileBoard(3, 3, tuple(tiles))
        assert is_solvable(board) == (tuple(tiles) in dist), \
            f"parity rule disagrees with reachability at {tiles}"
        checked += 1
    return checked


class _CheckedTable(HeuristicTable):
    """Calls check(state, value before, value written) before every write."""

    __slots__ = ("check",)

    def __init__(self, base, check):
        super().__init__(base)
        self.check = check

    def write(self, s, v):
        self.check(s, self.lookup(s), v)
        super().write(s, v)


def _check_converged_writes(seed, instances, configs, check) -> int:
    """Run every config to convergence on `instances` random 8-puzzle
    boards, calling check(algorithm name, state, before, value) on each
    table write as it happens; returns the number of writes checked."""
    rng = random.Random(seed)
    checked = 0
    for _ in range(instances):
        problem = TilePuzzle(random_solvable(3, 3, rng))
        for cfg in configs:
            agent = make_agent(problem, cfg, base=problem.manhattan)
            agent.table = _CheckedTable(agent.table.base, partial(check, cfg.algorithm.value))
            record = run_until_convergence(agent, problem, cfg)
            assert record.converged_at is not None
            checked += agent.table.writes
    return checked


def check_upward_only_discipline(seed: int = 0, instances: int = 3) -> int:
    """gtrap-bt, gtrap, and ilrta only ever raise stored values."""

    def raises(name, s, before, value):
        assert value > before, f"{name} lowered h at {s}: {before} -> {value}"

    configs = [
        AgentConfig(Algorithm.GTRAP_BT, gamma=0.2, seed=1),
        AgentConfig(Algorithm.GTRAP, gamma=0.5, seed=2),
        AgentConfig(Algorithm.ILRTA, epsilon=0.2, seed=3),
    ]
    return _check_converged_writes(seed, instances, configs, raises)


def check_writes_change_values(seed: int = 0, instances: int = 3) -> int:
    """Every write of the converging policies changes the stored value.
    The table counts every write and a run converges on a trial with
    none, so an unchanged write would hold convergence off."""

    def changes(name, s, before, value):
        assert value != before, f"{name} rewrote h at {s} unchanged: {value}"

    configs = [
        AgentConfig(Algorithm.GTRAP_BT, gamma=0.5, seed=1),
        AgentConfig(Algorithm.GTRAP, gamma=1.0, seed=2),
        AgentConfig(Algorithm.LRTA, seed=3),
        AgentConfig(Algorithm.ILRTA, epsilon=0.5, seed=4),
    ]
    return _check_converged_writes(seed, instances, configs, changes)


def check_trail_integrity(seed: int = 0, instances: int = 3) -> int:
    """Backtracking must retreat to exactly the state the previous forward
    move departed from, tracked here by an independent stack."""
    rng = random.Random(seed)
    checked = 0
    for _ in range(instances):
        problem = TilePuzzle(random_solvable(3, 3, rng))
        cfg = AgentConfig(Algorithm.GTRAP_BT, gamma=0.2, seed=11)
        agent = make_agent(problem, cfg, base=problem.manhattan)
        history = []
        current = agent.current
        backtracks = 0
        for _ in range(200_000):
            if problem.is_goal(current):
                break
            before_writes = agent.table.writes
            origin = current
            acts = step(agent, problem, cfg)
            for a in acts:
                current, _ = problem.apply(current, a)
            agent.current = current
            wrote = agent.table.writes > before_writes
            if not wrote:
                assert acts, "an untrapped call must move"
                history.append(origin)
            elif origin == problem.initial_state:
                assert acts == [], "trapped at the start state must stay put"
            else:
                assert acts, "trapped away from the start must retreat"
                assert history, "retreat with no forward move on record"
                assert current == history.pop(), "retreat missed its target"
                backtracks += 1
        else:
            raise AssertionError("first trial did not reach the goal")
        assert backtracks, "no backtracks exercised; instance too easy"
        checked += backtracks
    return checked


def check_trap_hand_traces() -> int:
    """Hand-verified chain traces covering the update rule (max over
    per-depth minima), the stay-put case at the start state, the
    double-step escape of the non-backtracking variant, and backtracking
    to the previous state."""
    checked = 0

    # Chain 0-1-2-3-4, goal 4, h = [2, 4, 2, 1, 0], gamma 1, d_max 2.
    # From 0: depth 1 best = 1+4 = 5, depth 2 best = 2+2 = 4; both exceed
    # h(0)=2, so h(0) := max(5, 4) = 5 and the start state stays put.
    problem = LineProblem(5)
    h0 = {0: 2, 1: 4, 2: 2, 3: 1, 4: 0}
    cfg = AgentConfig(Algorithm.GTRAP_BT, d_max=2, gamma=1.0, seed=0)
    agent = make_agent(problem, cfg, base=h0.__getitem__)
    assert step(agent, problem, cfg) == []
    assert agent.table.lookup(0) == 5
    # Next call: depth 1 offers 1+4 = 5 <= 5, so move right, no write.
    assert step(agent, problem, cfg) == [LineProblem.RIGHT]
    assert agent.table.lookup(0) == 5 and agent.table.lookup(1) == 4
    checked += 2

    # Same table, non-backtracking variant: after the update it must move
    # to the overall best member, state 2 at depth 2 (score 4 < 5).
    cfg_nb = AgentConfig(Algorithm.GTRAP, d_max=2, gamma=1.0, seed=0)
    agent = make_agent(problem, cfg_nb, base=h0.__getitem__)
    assert step(agent, problem, cfg_nb) == [LineProblem.RIGHT] * 2
    assert agent.table.lookup(0) == 5
    checked += 1

    # Backtracking retreat: h = [10, 9, 8, 20, 0], gamma 1, d_max 1.
    # 0 -> 1 -> 2 are plain descents; at 2 both neighbors exceed h(2)=8,
    # so h(2) := min(1+9, 1+20) = 10 and the agent retreats to 1.
    h1 = {0: 10, 1: 9, 2: 8, 3: 20, 4: 0}
    cfg_bt = AgentConfig(Algorithm.GTRAP_BT, d_max=1, gamma=1.0, seed=0)
    agent = make_agent(problem, cfg_bt, base=h1.__getitem__)
    assert step(agent, problem, cfg_bt) == [LineProblem.RIGHT]
    agent.current = 1
    assert step(agent, problem, cfg_bt) == [LineProblem.RIGHT]
    agent.current = 2
    assert step(agent, problem, cfg_bt) == [LineProblem.LEFT]
    assert agent.table.lookup(2) == 10
    assert agent.trail == [(LineProblem.RIGHT,)]
    checked += 3

    # Discounted trap test: gamma 0.5, h = [1, 2, 0, ...]: from 0 the
    # depth-1 score is 0.5 + 2 = 2.5 > 1 (trapped), depth-2 score is
    # 1.0 + 0 = 1.0 <= 1 (untrapped): move two steps, no write.
    h2 = {0: 1, 1: 2, 2: 0, 3: 5, 4: 0}
    cfg_g = AgentConfig(Algorithm.GTRAP_BT, d_max=2, gamma=0.5, seed=0)
    agent = make_agent(problem, cfg_g, base=h2.__getitem__)
    assert step(agent, problem, cfg_g) == [LineProblem.RIGHT] * 2
    assert agent.table.overlay == {}
    checked += 1

    return checked
