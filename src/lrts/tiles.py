"""Sliding-tile puzzles (8-puzzle, 15-puzzle) as concrete search problems.

States are flat tuples of ints in row-major order with 0 for the blank.
The goal places the blank at cell 0 and tiles 1..n-1 in order. Actions are
the four directions the blank can move; opposite directions are inverses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from operator import getitem
from typing import Dict, List, Tuple

from .core import SearchProblem

UP, DOWN, LEFT, RIGHT = 0, 1, 2, 3
ACTION_NAMES = ("up", "down", "left", "right")
_OFFSETS = {UP: (0, -1), DOWN: (0, 1), LEFT: (-1, 0), RIGHT: (1, 0)}

State = Tuple[int, ...]


class KorfFormatError(ValueError):
    """An instance file line failed validation; the message carries the
    1-based line number."""


def invert_action(a: int) -> int:
    # UP/DOWN and LEFT/RIGHT are adjacent codes differing in the low bit.
    return a ^ 1


@cache
def _build_moves(width: int, height: int) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """moves[blank_cell] = ((action, cell the blank moves to), ...)."""
    table = []
    for cell in range(width * height):
        x, y = cell % width, cell // width
        entries = []
        for a in (UP, DOWN, LEFT, RIGHT):
            dx, dy = _OFFSETS[a]
            nx, ny = x + dx, y + dy
            if 0 <= nx < width and 0 <= ny < height:
                entries.append((a, ny * width + nx))
        table.append(tuple(entries))
    return tuple(table)


@cache
def _build_md(width: int, height: int) -> Tuple[Tuple[int, ...], ...]:
    """md[cell][tile] = Manhattan distance from cell to tile's goal cell.

    Column 0 (the blank) is all zeros: the blank does not count.
    """
    table = []
    for cell in range(width * height):
        x, y = cell % width, cell // width
        table.append((0,) + tuple(
            abs(x - tile % width) + abs(y - tile // width)
            for tile in range(1, width * height)))
    return tuple(table)


@dataclass(frozen=True)
class TileBoard:
    """An immutable board configuration."""

    width: int
    height: int
    tiles: State

    def __post_init__(self):
        n = self.width * self.height
        if self.width < 2 or self.height < 2:
            raise ValueError(f"board must be at least 2x2, got {self.width}x{self.height}")
        if sorted(self.tiles) != list(range(n)):
            raise ValueError(
                f"tiles must be a permutation of 0..{n - 1}, got {self.tiles}"
            )

    @property
    def blank_index(self) -> int:
        return self.tiles.index(0)


def goal_tiles(width: int, height: int) -> State:
    return tuple(range(width * height))


def goal_board(width: int, height: int) -> TileBoard:
    return TileBoard(width, height, goal_tiles(width, height))


def inversions(board: TileBoard) -> int:
    """Number of out-of-order tile pairs, blank excluded."""
    seq = [t for t in board.tiles if t]
    return sum(
        1
        for i in range(len(seq))
        for j in range(i + 1, len(seq))
        if seq[i] > seq[j]
    )


def is_solvable(board: TileBoard) -> bool:
    """Whether the goal is reachable from this configuration.

    Odd widths: solvable iff the inversion count is even. Even widths:
    solvable iff inversions plus the blank's row index from the top is
    even (the goal itself has zero inversions and the blank in row 0).
    """
    inv = inversions(board)
    if board.width % 2 == 1:
        return inv % 2 == 0
    blank_row = board.blank_index // board.width
    return (inv + blank_row) % 2 == 0


def random_solvable(width: int, height: int, rng: random.Random) -> TileBoard:
    """A uniformly random solvable, non-goal board (rejection sampling)."""
    n = width * height
    goal = goal_tiles(width, height)
    while True:
        tiles = list(range(n))
        rng.shuffle(tiles)
        t = tuple(tiles)
        if t == goal:
            continue
        board = TileBoard(width, height, t)
        if is_solvable(board):
            return board


@dataclass(frozen=True)
class PuzzleInstance:
    """A benchmark instance: a numbered start board."""

    instance_id: int
    start: TileBoard


def load_korf(path: str) -> List[PuzzleInstance]:
    """Load a 15-puzzle instance file.

    Format: one instance per line, an integer index followed by 16 tile
    values (0 = blank) in row-major order, whitespace-separated. Blank
    lines and lines starting with '#' are skipped. Every instance must be
    solvable, and no index may appear twice.
    """
    instances: List[PuzzleInstance] = []
    first_line: Dict[int, int] = {}  # instance index -> line that defined it
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 17:
                raise KorfFormatError(
                    f"line {lineno}: expected 17 fields (index + 16 tiles), got {len(parts)}"
                )
            try:
                values = [int(p) for p in parts]
            except ValueError as exc:
                raise KorfFormatError(f"line {lineno}: non-integer field ({exc})") from None
            index, tiles = values[0], tuple(values[1:])
            if index in first_line:
                raise KorfFormatError(
                    f"line {lineno}: instance index {index} repeats line {first_line[index]}"
                )
            first_line[index] = lineno
            try:
                board = TileBoard(4, 4, tiles)
            except ValueError as exc:
                raise KorfFormatError(f"line {lineno}: {exc}") from None
            if not is_solvable(board):
                raise KorfFormatError(f"line {lineno}: instance {index} is not solvable")
            instances.append(PuzzleInstance(instance_id=index, start=board))
    return instances


class TilePuzzle(SearchProblem):
    """The search problem for one start board.

    Successor order is fixed (up, down, left, right as applicable), all
    costs are 1, and apply() is O(1) via precomputed blank-move tables.
    """

    __slots__ = ("width", "height", "initial_state", "goal", "_moves", "_md")

    def __init__(self, start: TileBoard):
        self.width = start.width
        self.height = start.height
        self.initial_state: State = start.tiles
        self.goal: State = goal_tiles(start.width, start.height)
        self._moves = _build_moves(start.width, start.height)
        self._md = _build_md(start.width, start.height)

    def is_goal(self, s: State) -> bool:
        return s == self.goal

    def successors(self, s: State) -> List[Tuple[int, State, float]]:
        blank = s.index(0)
        out = []
        for a, target in self._moves[blank]:
            lst = list(s)
            lst[blank] = lst[target]
            lst[target] = 0
            out.append((a, tuple(lst), 1))
        return out

    def invert(self, a: int) -> int:
        return invert_action(a)

    def apply(self, s: State, a: int) -> Tuple[State, float]:
        blank = s.index(0)
        for act, target in self._moves[blank]:
            if act == a:
                lst = list(s)
                lst[blank] = lst[target]
                lst[target] = 0
                return tuple(lst), 1
        raise ValueError(f"action {ACTION_NAMES[a]} not applicable with blank at {blank}")

    def manhattan(self, s: State) -> int:
        """Sum over non-blank tiles of row+column distance to the goal cell;
        the base heuristic the agents plug in. Admissible and consistent
        for unit-cost slides: one move changes one tile's distance by 1."""
        return sum(map(getitem, self._md, s))
