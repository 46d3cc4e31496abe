import random

import pytest

from lrts.tiles import (
    ACTION_NAMES,
    KorfFormatError,
    TileBoard,
    TilePuzzle,
    goal_board,
    inversions,
    invert_action,
    is_solvable,
    load_korf,
    random_solvable,
)

from properties import (
    check_manhattan_admissible_consistent,
    check_parity_matches_reachability,
)


def test_board_validation():
    TileBoard(3, 3, (1, 2, 0, 3, 4, 5, 6, 7, 8))
    with pytest.raises(ValueError):
        TileBoard(3, 3, (1, 1, 0, 3, 4, 5, 6, 7, 8))
    with pytest.raises(ValueError):
        TileBoard(3, 3, (1, 2, 0))
    with pytest.raises(ValueError):
        TileBoard(1, 3, (0, 1, 2))


def test_goal_board_and_blank():
    g = goal_board(3, 3)
    assert g.tiles == tuple(range(9))
    assert g.blank_index == 0
    problem = TilePuzzle(g)
    assert problem.is_goal(g.tiles)
    assert problem.manhattan(g.tiles) == 0


def _manhattan(board):
    return TilePuzzle(board).manhattan(board.tiles)


def test_manhattan_known_values():
    # blank swapped with tile 1: tile 1 sits on cell 0, one step from home
    assert _manhattan(TileBoard(3, 3, (1, 0, 2, 3, 4, 5, 6, 7, 8))) == 1
    # tile 8 in the top-left corner is 4 moves from its corner
    assert _manhattan(TileBoard(3, 3, (8, 1, 2, 3, 4, 5, 6, 7, 0))) == 4


def test_manhattan_matches_naive_formula():
    rng = random.Random(0)
    for _ in range(200):
        board = random_solvable(3, 3, rng)
        naive = 0
        for cell, tile in enumerate(board.tiles):
            if tile == 0:
                continue
            naive += abs(cell % 3 - tile % 3) + abs(cell // 3 - tile // 3)
        assert _manhattan(board) == naive


def test_manhattan_admissible_and_consistent():
    assert check_manhattan_admissible_consistent(seed=1, samples=300) > 500


def test_successors_shape_and_costs(p8_states):
    problem = TilePuzzle(goal_board(3, 3))
    rng = random.Random(7)
    for tiles in rng.sample(p8_states, 80):
        succ = problem.successors(tiles)
        blank = tiles.index(0)
        corner = blank in (0, 2, 6, 8)
        edge = blank in (1, 3, 5, 7)
        assert len(succ) == (2 if corner else 3 if edge else 4)
        for a, nxt, cost in succ:
            assert cost == 1
            assert sorted(nxt) == list(range(9))
            assert nxt != tiles
            assert invert_action(problem.invert(a)) == a


def test_apply_rejects_illegal_move():
    problem = TilePuzzle(goal_board(3, 3))
    # blank in the top-left corner cannot move up or left
    with pytest.raises(ValueError):
        problem.apply(problem.goal, ACTION_NAMES.index("up"))


def test_solvability_parity_rule():
    assert is_solvable(goal_board(3, 3))
    # swapping two adjacent tiles flips parity
    assert not is_solvable(TileBoard(3, 3, (0, 2, 1, 3, 4, 5, 6, 7, 8)))
    assert inversions(TileBoard(3, 3, (0, 2, 1, 3, 4, 5, 6, 7, 8))) == 1
    # 15-puzzle: the blank's row enters the rule
    assert is_solvable(goal_board(4, 4))
    assert not is_solvable(TileBoard(4, 4, (0, 2, 1) + tuple(range(3, 16))))
    # pushing the blank one row down keeps the goal reachable
    moved = TileBoard(4, 4, (4, 1, 2, 3, 0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15))
    assert is_solvable(moved)


def test_parity_rule_matches_reachability():
    assert check_parity_matches_reachability(seed=2, samples=600) == 600


def test_random_solvable_is_solvable_and_not_goal():
    rng = random.Random(3)
    seen = set()
    for _ in range(50):
        board = random_solvable(3, 3, rng)
        assert is_solvable(board)
        assert not TilePuzzle(board).is_goal(board.tiles)
        seen.add(board.tiles)
    assert len(seen) > 40  # effectively always distinct


def test_random_solvable_is_deterministic_per_seed():
    a = random_solvable(4, 4, random.Random(11))
    b = random_solvable(4, 4, random.Random(11))
    assert a == b


# --- instance file loading ---------------------------------------------------

GOOD_LINE = "1 " + " ".join(str(t) for t in range(16))


def _write(tmp_path, text):
    path = tmp_path / "instances.txt"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_korf_parses_and_skips_comments(tmp_path):
    moved = "2 4 1 2 3 0 5 6 7 8 9 10 11 12 13 14 15"
    path = _write(tmp_path, f"# benchmark set\n\n{GOOD_LINE}\n{moved}\n")
    instances = load_korf(path)
    assert [i.instance_id for i in instances] == [1, 2]
    assert instances[0].start == goal_board(4, 4)
    assert instances[1].start.blank_index == 4


def test_load_korf_rejects_wrong_field_count(tmp_path):
    path = _write(tmp_path, GOOD_LINE + " 99\n")
    with pytest.raises(KorfFormatError, match="line 1"):
        load_korf(path)


def test_load_korf_rejects_non_integer(tmp_path):
    path = _write(tmp_path, GOOD_LINE.replace("15", "x") + "\n")
    with pytest.raises(KorfFormatError, match="line 1"):
        load_korf(path)


def test_load_korf_rejects_bad_permutation(tmp_path):
    path = _write(tmp_path, "1 " + " ".join(["0"] * 16) + "\n")
    with pytest.raises(KorfFormatError, match="line 1"):
        load_korf(path)


def test_load_korf_rejects_unsolvable(tmp_path):
    swapped = "1 0 2 1 " + " ".join(str(t) for t in range(3, 16))
    path = _write(tmp_path, f"{GOOD_LINE}\n{swapped}\n")
    with pytest.raises(KorfFormatError, match="line 2"):
        load_korf(path)


def test_load_korf_rejects_repeated_index(tmp_path):
    # two boards numbered 7 would share one seed per configuration and fold
    goal = "7 " + " ".join(str(t) for t in range(16))
    moved = "7 4 1 2 3 0 5 6 7 8 9 10 11 12 13 14 15"
    path = _write(tmp_path, f"{goal}\n\n{moved}\n")
    with pytest.raises(KorfFormatError, match="line 3: instance index 7 repeats line 1"):
        load_korf(path)
