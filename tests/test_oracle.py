import random

import pytest

from lrts.oracle import full_bfs_distances, ida_star_optimal
from lrts.tiles import TileBoard, TilePuzzle, goal_board, is_solvable, random_solvable

from oracles import bfs_goal_distance

HARD8 = (8, 0, 6, 5, 4, 7, 2, 3, 1)  # one of the two deepest configurations


def test_full_space_covers_exactly_the_solvable_half(p8_dist):
    assert len(p8_dist) == 362880 // 2
    assert p8_dist[tuple(range(9))] == 0
    assert max(p8_dist.values()) == 31


def test_full_space_is_cached_per_process(p8_dist):
    assert full_bfs_distances(3, 3) is p8_dist


def test_bfs_optimal_matches_independent_forward_search(p8_dist):
    rng = random.Random(1)
    for _ in range(15):
        board = random_solvable(3, 3, rng)
        problem = TilePuzzle(board)
        assert p8_dist[board.tiles] == bfs_goal_distance(problem, board.tiles)


def test_bfs_optimal_rejects_unsolvable(p8_dist):
    unsolvable = (0, 2, 1, 3, 4, 5, 6, 7, 8)
    assert not is_solvable(TileBoard(3, 3, unsolvable))
    assert unsolvable not in p8_dist


def test_ida_agrees_with_bfs_on_random_boards(p8_dist, p8_states):
    rng = random.Random(6)
    problem = TilePuzzle(goal_board(3, 3))
    for tiles in rng.sample(p8_states, 60):
        assert ida_star_optimal(problem, tiles) == p8_dist[tiles]


def test_ida_solves_the_deep_corner_case(p8_dist):
    problem = TilePuzzle(TileBoard(3, 3, HARD8))
    true = p8_dist[HARD8]
    assert ida_star_optimal(problem, HARD8) == true == 31


def test_ida_handles_goal_and_unsolvable():
    problem = TilePuzzle(goal_board(3, 3))
    assert ida_star_optimal(problem, problem.goal) == 0
    with pytest.raises(ValueError):
        ida_star_optimal(problem, (0, 2, 1, 3, 4, 5, 6, 7, 8))


def test_ida_returns_none_when_budget_runs_out():
    problem = TilePuzzle(TileBoard(3, 3, HARD8))
    assert ida_star_optimal(problem, HARD8, budget=50) is None


def test_ida_on_easy_15_puzzle_walks():
    # scramble the goal by a short random walk; the optimum is at most the
    # walk length and must match Manhattan parity
    rng = random.Random(9)
    problem = TilePuzzle(goal_board(4, 4))
    for _ in range(5):
        tiles = problem.goal
        for _ in range(14):
            _, tiles, _ = rng.choice(problem.successors(tiles))
        cost = ida_star_optimal(problem, tiles, budget=10**6)
        h = problem.manhattan(tiles)
        assert cost is not None and h <= cost <= 14
        assert (cost - h) % 2 == 0

