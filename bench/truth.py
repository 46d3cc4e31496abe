"""Ground truth written inside the benchmark, independent of `lrts`.

The slide rule, the breadth-first distance table for the 8-puzzle, the
Manhattan distance and an IDA* solver for the 15-puzzle are all coded
here from the puzzle's definition, so the checks never compare the
program with itself. Boards are flat row-major tuples with 0 for the
blank; the goal is (0, 1, ..., n-1). An action names the direction the
blank moves: 0 up, 1 down, 2 left, 3 right.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

_STEP = {0: (0, -1), 1: (0, 1), 2: (-1, 0), 3: (1, 0)}


def goal(width: int, height: int) -> Tuple[int, ...]:
    return tuple(range(width * height))


def blank_moves(width: int, height: int) -> List[List[Tuple[int, int]]]:
    """moves[cell] = [(action, cell the blank lands on), ...]."""
    table = []
    for cell in range(width * height):
        x, y = cell % width, cell // width
        row = []
        for action, (dx, dy) in _STEP.items():
            nx, ny = x + dx, y + dy
            if 0 <= nx < width and 0 <= ny < height:
                row.append((action, ny * width + nx))
        table.append(row)
    return table


def slide(tiles: Sequence[int], action: int, width: int, height: int) -> Tuple[int, ...]:
    """The board after the blank moves one cell in direction `action`."""
    blank = tiles.index(0)
    dx, dy = _STEP[action]
    x, y = blank % width + dx, blank // width + dy
    if not (0 <= x < width and 0 <= y < height):
        raise ValueError(f"action {action} leaves the board with the blank at {blank}")
    target = y * width + x
    out = list(tiles)
    out[blank], out[target] = out[target], 0
    return tuple(out)


def replay_reaches_goal(start: Sequence[int], actions: Sequence[int],
                        width: int, height: int) -> Tuple[bool, str]:
    """Whether `actions` lead from `start` to the goal, arriving only at
    the last action."""
    state = tuple(start)
    g = goal(width, height)
    for i, a in enumerate(actions):
        if state == g:
            return False, f"goal reached after {i} of {len(actions)} actions"
        try:
            state = slide(state, a, width, height)
        except ValueError as exc:
            return False, str(exc)
    if state != g:
        return False, "actions end away from the goal"
    return True, ""


def bfs_distances(width: int, height: int) -> Dict[Tuple[int, ...], int]:
    """Optimal cost of every board reachable from the goal (slides are
    reversible, so the distance from the goal is the distance to it)."""
    moves = blank_moves(width, height)
    start = goal(width, height)
    dist = {start: 0}
    queue = deque([(start, 0)])
    while queue:
        state, blank = queue.popleft()
        d = dist[state] + 1
        for _, target in moves[blank]:
            nxt = list(state)
            nxt[blank], nxt[target] = nxt[target], 0
            nxt = tuple(nxt)
            if nxt not in dist:
                dist[nxt] = d
                queue.append((nxt, target))
    return dist


def manhattan(tiles: Sequence[int], width: int) -> int:
    total = 0
    for cell, t in enumerate(tiles):
        if t:
            total += abs(cell % width - t % width) + abs(cell // width - t // width)
    return total


def ida_star(tiles: Sequence[int], width: int, height: int,
             budget: int = 2_000_000, max_cost: Optional[int] = None) -> Optional[int]:
    """Optimal cost by iterative deepening on Manhattan distance; None when
    more than `budget` nodes would be generated or the cost exceeds
    `max_cost`."""
    moves = blank_moves(width, height)
    board = list(tiles)
    h0 = manhattan(board, width)
    generated = 0

    def md(t: int, cell: int) -> int:
        return abs(cell % width - t % width) + abs(cell // width - t // width)

    def search(blank: int, g: int, h: int, bound: int, came_from: int) -> int:
        nonlocal generated
        least = -1
        for _, target in moves[blank]:
            if target == came_from:
                continue
            generated += 1
            if generated > budget:
                raise OverflowError
            t = board[target]
            nh = h - md(t, target) + md(t, blank)
            f = g + 1 + nh
            if f > bound:
                if least < 0 or f < least:
                    least = f
                continue
            if nh == 0:
                return 0
            board[blank], board[target] = t, 0
            r = search(target, g + 1, nh, bound, blank)
            board[blank], board[target] = 0, t
            if r == 0:
                return 0
            if r > 0 and (least < 0 or r < least):
                least = r
        return least

    if h0 == 0:
        return 0
    bound = h0
    try:
        while True:
            r = search(board.index(0), 0, h0, bound, -1)
            if r == 0:
                return bound
            if r < 0 or (max_cost is not None and r > max_cost):
                return None
            bound = r
    except OverflowError:
        return None


def random_walk(rng, width: int, height: int, length: int) -> Tuple[int, ...]:
    """`length` blank moves from the goal, never undoing the previous one."""
    moves = blank_moves(width, height)
    board = list(goal(width, height))
    blank, previous = 0, -1
    for _ in range(length):
        options = [t for _, t in moves[blank] if t != previous]
        target = rng.choice(options)
        board[blank], board[target] = board[target], 0
        previous, blank = blank, target
    return tuple(board)
