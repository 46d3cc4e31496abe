import random

import pytest

from lrts.agents import _pick
from lrts.core import DownwardWriteError, HeuristicTable, _score_layer, iter_layers
from lrts.tiles import TilePuzzle, random_solvable

from domains import GraphProblem, LineProblem
from oracles import bfs_layers
from properties import check_exact_depth_layers


# --- exact-depth layering ----------------------------------------------------

def test_layers_match_bfs_oracle_on_random_boards():
    assert check_exact_depth_layers(seed=3, boards=30, d_max=4) > 900


def test_layers_are_deterministic():
    problem = TilePuzzle(random_solvable(3, 3, random.Random(5)))
    a = [layer for layer in iter_layers(problem, problem.initial_state, 3)]
    b = [layer for layer in iter_layers(problem, problem.initial_state, 3)]
    assert a == b


def test_layers_stop_when_frontier_dies():
    line = LineProblem(3, start=0)
    layers = list(iter_layers(line, 0, 10))
    assert [[m[0] for m in layer] for layer in layers] == [[1], [2]]


def test_layers_respect_blocked_states():
    line = LineProblem(5, start=2)
    layers = list(iter_layers(line, 2, 4, blocked=frozenset({3})))
    assert [[m[0] for m in layer] for layer in layers] == [[1], [0]]


def test_layer_reach_is_min_cost_over_equal_length_paths():
    # Diamond: two length-2 routes s->t costing 5+1 and 1+9; reach must be 6,
    # the action sequence must follow the cheaper route through a, and t
    # must list both a and b as parents.
    g = GraphProblem(
        edges=[("s", "a", 5), ("s", "b", 1), ("a", "t", 1), ("b", "t", 9)],
        initial="s", goals={"t"},
    )
    depth1, depth2 = list(iter_layers(g, "s", 2))
    assert [m[0] for m in depth1] == ["a", "b"]
    assert [m[3] for m in depth1] == [(0,), (0,)]
    (state, reach, acts, parents), = depth2
    assert state == "t"
    assert reach == 6
    assert parents == (0, 1)
    here, total = "s", 0
    for a in acts:
        here, c = g.apply(here, a)
        total += c
    assert here == "t" and total == 6


def test_neighborhood_exact_depth_and_empty_result():
    problem = TilePuzzle(random_solvable(3, 3, random.Random(9)))
    layers = list(iter_layers(problem, problem.initial_state, 3))
    expected = bfs_layers(problem, problem.initial_state, 3)[3]
    assert len(layers) == 3 and {m[0] for m in layers[2]} == expected
    # a 3-state line has nothing at depth 7
    assert len(list(iter_layers(LineProblem(3), 0, 7))) < 7


# --- heuristic table ---------------------------------------------------------

def test_table_reads_base_until_written():
    table = HeuristicTable({0: 4, 1: 7}.__getitem__)
    assert table.lookup(0) == 4
    table.write(0, 9)
    assert table.lookup(0) == 9
    assert table.lookup(1) == 7
    assert table.stored_count == 1


def test_table_weight_scales_base_but_not_overlay():
    table = HeuristicTable({0: 4}.__getitem__, weight=1.5)
    assert table.lookup(0) == 6.0
    table.write(0, 5)
    assert table.lookup(0) == 5


def test_table_rejects_weight_below_one():
    with pytest.raises(ValueError):
        HeuristicTable(lambda s: 0, weight=0.99)


def test_table_counts_only_value_changes():
    table = HeuristicTable({0: 3, 1: 1}.__getitem__)
    table.write(0, 3)  # same as base: stored, but no value change
    assert table.stored_count == 1
    assert table.update_count_this_trial == 0
    table.write(0, 5)
    table.write(0, 5)
    assert table.update_count_this_trial == 1
    table.write(1, 2)
    assert table.update_count_this_trial == 2
    assert table.stored_count == 2


def test_table_upward_only_gate():
    table = HeuristicTable({0: 3}.__getitem__)
    table.write(0, 6, upward_only=True)
    with pytest.raises(DownwardWriteError):
        table.write(0, 5, upward_only=True)
    table.write(0, 6, upward_only=True)  # equal is allowed
    assert table.lookup(0) == 6


def test_table_rejects_negative_values():
    table = HeuristicTable(lambda s: 0)
    with pytest.raises(ValueError):
        table.write(0, -1)


# --- layer scoring -----------------------------------------------------------

def test_best_frontier_minimizes_discounted_score():
    lookup = {"a": 10, "b": 2}.__getitem__
    # gamma 0.5 over non-unit reach: a scores 10.5, b scores 3.5
    best, ties = _score_layer([("a", 1, (0,), (0,)), ("b", 3, (1, 1, 1), (0,))], lookup, 0.5)
    assert best == 3.5
    assert ties == [(1, 1, 1)]


def test_best_frontier_breaks_ties_with_seeded_rng():
    lookup = {"a": 1, "b": 3, "c": 1}.__getitem__
    members = [("c", 1, (2,), (0,)), ("b", 1, (1,), (0,)), ("a", 1, (0,), (0,))]
    best, ties = _score_layer(members, lookup, 1.0)
    assert best == 2
    assert ties == [(2,), (0,)]  # every tie, in member order
    seen = {_pick(ties, random.Random(seed)) for seed in range(40)}
    assert seen == {(0,), (2,)}


# --- problem interface -------------------------------------------------------

def test_apply_default_scans_successors_and_rejects_bad_action():
    line = LineProblem(4)
    assert line.apply(1, LineProblem.RIGHT) == (2, 1)
    with pytest.raises(ValueError):
        line.apply(0, LineProblem.LEFT)


def test_actions_invert_back(p8_states):
    problem = TilePuzzle(random_solvable(3, 3, random.Random(2)))
    rng = random.Random(4)
    for tiles in rng.sample(p8_states, 50):
        for a, nxt, cost in problem.successors(tiles):
            back, back_cost = problem.apply(nxt, problem.invert(a))
            assert back == tiles and back_cost == cost
