"""Tiny hand-checkable problems for unit tests, and a writer of short
15-puzzle walks for the tests that read an instance file."""

import random

from lrts.core import SearchProblem
from lrts.tiles import TilePuzzle, goal_board


class LineProblem(SearchProblem):
    """Chain 0..n-1; action 0 steps right, action 1 steps left."""

    RIGHT, LEFT = 0, 1

    def __init__(self, n, start=0, goals=None):
        self.n = n
        self.initial_state = start
        self.goals = frozenset(goals) if goals is not None else frozenset({n - 1})

    def is_goal(self, s):
        return s in self.goals

    def successors(self, s):
        out = []
        if s + 1 < self.n:
            out.append((self.RIGHT, s + 1, 1))
        if s - 1 >= 0:
            out.append((self.LEFT, s - 1, 1))
        return out

    def invert(self, a):
        return a ^ 1


class GraphProblem(SearchProblem):
    """Explicit undirected graph; edge i yields action 2i (as listed) and
    2i+1 (reversed), so invert is the usual low-bit flip."""

    def __init__(self, edges, initial, goals):
        self.initial_state = initial
        self.goals = frozenset(goals)
        adj = {}
        for i, edge in enumerate(edges):
            u, v, cost = edge if len(edge) == 3 else (edge[0], edge[1], 1)
            adj.setdefault(u, []).append((2 * i, v, cost))
            adj.setdefault(v, []).append((2 * i + 1, u, cost))
        self.adj = adj

    def is_goal(self, s):
        return s in self.goals

    def successors(self, s):
        return list(self.adj.get(s, ()))

    def invert(self, a):
        return a ^ 1


def write_puzzle15_walks(path, count, length, seed):
    """Write a Korf-format file of distinct boards, each a seeded random walk
    of length moves from the 15-puzzle goal; returns the boards."""
    rng = random.Random(seed)
    problem = TilePuzzle(goal_board(4, 4))
    boards = []
    while len(boards) < count:
        tiles = problem.goal
        for _ in range(length):
            _, tiles, _ = rng.choice(problem.successors(tiles))
        if tiles != problem.goal and tiles not in boards:
            boards.append(tiles)
    path.write_text("".join(f"{i} " + " ".join(map(str, t)) + "\n"
                            for i, t in enumerate(boards)))
    return boards
