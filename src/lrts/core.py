"""Domain-agnostic real-time search primitives.

The pieces every agent builds on: the problem interface, a learned-heuristic
table that stores values over a base heuristic (the policies own every rule
about when and which way a value changes), the one exact-depth neighborhood
expansion (hash-based duplicate pruning; each member records its parents in
the previous layer), and the scorers that take the least discounted
reach + h of a layer, or of the depth-1 successors, with every tie.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator, List, Optional, Tuple

StateId = Hashable
ActionId = int

# A neighborhood member: (state, reach_cost, action sequence from the origin,
# positions in the previous layer of every member it is reached from).
Member = Tuple[StateId, float, Tuple[ActionId, ...], Tuple[int, ...]]


class DomainViolation(RuntimeError):
    """The problem broke a contract the algorithms rely on (e.g. a state
    with no neighbors in a space that is supposed to be connected)."""


class SearchProblem:
    """A finite search task: states, reversible actions, positive costs.

    Subclasses provide the initial state, the goal test, successor
    generation and action inversion. Contracts the agents rely on:
    every successor cost is strictly positive, every action is reversible
    (applying invert(a) in the successor leads back to the source), and at
    least one goal is reachable from the initial state.
    """

    initial_state: StateId

    def is_goal(self, s: StateId) -> bool:
        raise NotImplementedError

    def successors(self, s: StateId) -> List[Tuple[ActionId, StateId, float]]:
        """All (action, next_state, cost) triples applicable in s, in a
        fixed deterministic order."""
        raise NotImplementedError

    def invert(self, a: ActionId) -> ActionId:
        raise NotImplementedError

    def apply(self, s: StateId, a: ActionId) -> Tuple[StateId, float]:
        """Apply one action. Default scans successors(); concrete domains
        usually override with something O(1)."""
        for act, nxt, cost in self.successors(s):
            if act == a:
                return nxt, cost
        raise ValueError(f"action {a!r} not applicable in state {s!r}")


class HeuristicTable:
    """Learned heuristic: a sparse overlay over one base function.

    lookup(s) returns the overlay value when one was written and base(s)
    otherwise. write(s, v) stores v without reading what was there: each
    policy decides when a write is due and which way a value may move.
    stored_count is the number of distinct states ever written, which is
    the memory figure the benchmarks report; base evaluations are
    computed, not stored. writes counts every write since the table was
    built; the trial runner reads its change over a trial.
    """

    __slots__ = ("base", "overlay", "writes")

    def __init__(self, base: Callable[[StateId], float]):
        self.base = base
        self.overlay: dict = {}
        self.writes = 0

    @property
    def stored_count(self) -> int:
        return len(self.overlay)

    def lookup(self, s: StateId) -> float:
        v = self.overlay.get(s)
        if v is not None:
            return v
        return self.base(s)

    def write(self, s: StateId, v: float) -> None:
        """Store v as the learned value of s."""
        if v < 0:
            raise ValueError(f"heuristic values are nonnegative, got {v}")
        self.writes += 1
        self.overlay[s] = v


def iter_layers(
    problem: SearchProblem,
    origin: StateId,
    d_max: int,
    blocked: frozenset = frozenset(),
) -> Iterator[List[Member]]:
    """Yield the exact-depth member list for d = 1..d_max.

    Breadth-first layering with hash-based duplicate pruning over every
    state met so far, built incrementally so depth d reuses the depth d-1
    frontier. A member reached from several previous-layer members keeps
    the first of its cheapest paths and lists the positions of all of
    them as its parents. Stops as soon as a layer comes up empty. States
    in `blocked` are never entered or expanded.
    """
    successors = problem.successors
    # Position of every state met so far in the concatenation of all layers;
    # positions below `start` are in earlier layers (origin and blocked: -1).
    seen = dict.fromkeys(blocked, -1)
    seen[origin] = -1
    frontier: List[Member] = [(origin, 0, (), ())]
    n = start = 0
    for _ in range(d_max):
        layer: List[Member] = []
        for i, (state, cost, acts, _) in enumerate(frontier):
            parent = (i,)  # shared by every child, one allocation per parent
            for a, nxt, c in successors(state):
                j = seen.get(nxt)
                if j is None:
                    seen[nxt] = n
                    n += 1
                    layer.append((nxt, cost + c, acts + (a,), parent))
                elif j >= start:
                    _, reach, path, parents = layer[j - start]
                    if cost + c < reach:
                        reach, path = cost + c, acts + (a,)
                    layer[j - start] = (nxt, reach, path, parents + parent)
        if not layer:
            return
        start = n
        frontier = layer
        yield layer


def _score_layer(
    members: Iterable[Member], lookup: Callable[[StateId], float], gamma: float
) -> Tuple[Optional[float], List[Tuple[ActionId, ...]]]:
    """Least gamma*reach + h over a layer (or any run of members), with the
    action sequences of every tied member in member order; None and no ties
    when there are no members."""
    best = None
    ties: List[Tuple[ActionId, ...]] = []
    for state, reach, acts, _ in members:
        v = gamma * reach + lookup(state)
        if best is None or v < best:
            best = v
            ties = [acts]
        elif v == best:
            ties.append(acts)
    return best, ties


def _score_successors(
    problem: SearchProblem,
    s: StateId,
    lookup: Callable[[StateId], float],
    gamma: float,
    floor: float,
) -> Tuple[float, List[Tuple[ActionId, ...]]]:
    """The depth-1 layer scored straight off problem.successors(s): least
    max(gamma*c + h, floor), with the one-action sequence of every tie."""
    succ = problem.successors(s)
    if not succ:
        raise DomainViolation(f"state {s!r} has no neighbors")
    best = None
    for a, nxt, c in succ:
        v = gamma * c + lookup(nxt)
        if v < floor:
            v = floor
        if best is None or v < best:
            best = v
            ties = [(a,)]
        elif v == best:
            ties.append((a,))
    return best, ties
