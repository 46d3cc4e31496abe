"""Ground-truth optimal solution costs.

Two independent solvers: exhaustive breadth-first search over the whole
reachable space (practical for the 8-puzzle, 181440 states) and
iterative-deepening A* with Manhattan distance (any size, budgeted).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional, Tuple

from .tiles import State, TileBoard, TilePuzzle, goal_board, is_solvable

# Full-space distance maps are expensive to build and immutable once built;
# cache per board size within the process.
_BFS_CACHE: Dict[Tuple[int, int], Dict[State, int]] = {}

MAX_BFS_CELLS = 9  # 3x3 and smaller; 4x4 has ~1e13 states


def full_bfs_distances(width: int, height: int) -> Dict[State, int]:
    """Optimal cost from every reachable state to the goal.

    Breadth-first from the goal outward; slide moves are symmetric, so the
    distance from the goal equals the distance to it. Covers exactly the
    solvable half of the permutation space.
    """
    key = (width, height)
    cached = _BFS_CACHE.get(key)
    if cached is not None:
        return cached
    if width * height > MAX_BFS_CELLS:
        raise ValueError(
            f"full-space tabulation is limited to {MAX_BFS_CELLS} cells, "
            f"got {width}x{height}"
        )
    puzzle = TilePuzzle(goal_board(width, height))
    moves = puzzle._moves
    goal = puzzle.goal
    dist = {goal: 0}
    queue = deque([goal])
    while queue:
        s = queue.popleft()
        d = dist[s] + 1
        blank = s.index(0)
        for _, target in moves[blank]:
            lst = list(s)
            lst[blank] = lst[target]
            lst[target] = 0
            nxt = tuple(lst)
            if nxt not in dist:
                dist[nxt] = d
                queue.append(nxt)
    _BFS_CACHE[key] = dist
    return dist


class _BudgetExceeded(Exception):
    pass


def ida_star_optimal(problem: TilePuzzle, s: State, budget: int = 10**8) -> Optional[int]:
    """Exact optimal cost via iterative-deepening A* with Manhattan distance.

    Generates at most `budget` nodes; returns None once the budget is
    exhausted. Unsolvable starts are rejected up front by the parity test
    rather than by a doomed search.
    """
    if not is_solvable(TileBoard(problem.width, problem.height, s)):
        raise ValueError(f"state {s!r} cannot reach the goal")
    md = problem._md
    moves = problem._moves
    h0 = problem.manhattan(s)
    if h0 == 0:
        return 0
    generated = 0
    tiles = list(s)

    def dfs(blank: int, g: int, h: int, bound: int, skip: int) -> int:
        """Returns the smallest f seen beyond the bound, or -1 on success."""
        nonlocal generated
        minimum_over = -2
        for a, target in moves[blank]:
            if target == skip:
                continue  # never undo the move that got us here
            generated += 1
            if generated > budget:
                raise _BudgetExceeded
            t = tiles[target]
            nh = h - md[target][t] + md[blank][t]
            nf = g + 1 + nh
            if nf > bound:
                if minimum_over == -2 or nf < minimum_over:
                    minimum_over = nf
                continue
            if nh == 0:
                return -1  # Manhattan is 0 exactly at the goal
            tiles[target] = 0
            tiles[blank] = t
            r = dfs(target, g + 1, nh, bound, blank)
            tiles[blank] = 0
            tiles[target] = t
            if r == -1:
                return -1
            if minimum_over == -2 or (r != -2 and r < minimum_over):
                minimum_over = r
        return minimum_over

    bound = h0
    blank = s.index(0)
    try:
        while True:
            r = dfs(blank, 0, h0, bound, -1)
            if r == -1:
                return bound
            if r == -2:
                raise RuntimeError(f"search space exhausted below bound {bound}")
            bound = r
    except _BudgetExceeded:
        return None
