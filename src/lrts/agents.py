"""Real-time control policies.

Five agents share one interface: a policy call inspects the neighborhood of
the current state, possibly rewrites the learned heuristic there, and
returns the action sequence to execute, never empty. The harness applies
the actions and calls again until the goal is reached. Every policy
expands through core.iter_layers and scores through core's scorers;
gtrap-bt, gtrap and ilrta at every lookahead, and lrta at lookahead 1,
score depth 1 with the one depth-1 scorer, core._score_successors.

The trap-driven pair (gtrap-bt, gtrap) deepens its lookahead adaptively:
depth d is "trapped" when no state within d steps looks at least as good as
staying put, i.e. no s' satisfies gamma * dist(s, s') + h(s') <= h(s).
The first untrapped depth supplies the move and nothing is learned; if all
depths up to d_max are trapped, h(current) is raised to the largest of the
per-depth best scores and the agent retreats (gtrap-bt) or pushes on to the
best member seen (gtrap). At the start state gtrap-bt has nowhere to
retreat, so it takes the depth-1 escape that the raise opened. Discounting
the travel term by gamma <= 1 makes escapes cheaper to accept and caps the
converged solution cost at h_opt(start) / gamma for unit-cost domains.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, islice
from typing import Callable, List, Tuple

from .core import (
    DomainViolation,
    HeuristicTable,
    SearchProblem,
    StateId,
    _score_layer,
    _score_successors,
    iter_layers,
)

# Stand-in for an infinite second-best score when a state has exactly one
# applicable action (rta only; large but finite keeps the CSVs numeric).
RTA_INFINITY = 10**9


class Algorithm(str, Enum):
    GTRAP_BT = "gtrap-bt"
    GTRAP = "gtrap"
    LRTA = "lrta"
    RTA = "rta"
    ILRTA = "ilrta"


# The one parameter each algorithm's policy reads besides the lookahead;
# an algorithm not listed reads neither gamma nor epsilon.
PARAMETER = {Algorithm.GTRAP_BT: "gamma", Algorithm.GTRAP: "gamma",
             Algorithm.ILRTA: "epsilon"}


@dataclass(frozen=True)
class AgentConfig:
    """Everything that parameterizes one agent run. gamma and epsilon are
    stored as floats (-0.0 as 0.0), so equal values tag (and seed) alike."""

    algorithm: Algorithm
    d_max: int = 1
    gamma: float = 1.0
    epsilon: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "gamma", float(self.gamma) + 0.0)
        object.__setattr__(self, "epsilon", float(self.epsilon) + 0.0)
        if isinstance(self.d_max, bool) or not isinstance(self.d_max, int):
            raise ValueError(f"lookahead d_max must be an int, got {self.d_max!r}")
        if self.d_max < 1:
            raise ValueError(f"lookahead d_max must be >= 1, got {self.d_max}")
        if not 0 < self.gamma <= 1:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if not 0 <= self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        for name, unread in (("gamma", 1), ("epsilon", 0)):
            value = getattr(self, name)
            if value != unread and PARAMETER.get(self.algorithm) != name:
                raise ValueError(f"algorithm {self.algorithm.value} takes no {name}, "
                                 f"got {value}")

    def tag(self) -> str:
        """Stable identity string; feeds the per-run seed derivation."""
        return (
            f"{self.algorithm.value}|d={self.d_max}"
            f"|g={self.gamma!r}|e={self.epsilon!r}"
        )


@dataclass
class AgentState:
    """Mutable per-run state: position, learned table, backtracking trail
    (the action sequence of each forward move, newest last), tie-breaking
    generator, and the actions taken in the current trial."""

    current: StateId
    table: HeuristicTable
    rng: random.Random
    trail: List[Tuple[int, ...]] = field(default_factory=list)
    trial_actions: List[int] = field(default_factory=list)


def make_agent(problem: SearchProblem, cfg: AgentConfig,
               base: Callable[[StateId], float]) -> AgentState:
    """Fresh agent at the initial state with an empty learned table.

    ilrta is weighted LRTA*: when 1 + epsilon != 1 its table reads the base
    inflated to (1 + epsilon) * base(s). Everyone else, and ilrta at
    epsilon 0, reads the base as given, so integer heuristics stay
    integers. Written values are stored and read back as they are.
    """
    weight = 1.0 + cfg.epsilon  # AgentConfig gives epsilon to ilrta only
    return AgentState(
        current=problem.initial_state,
        table=HeuristicTable(base if weight == 1.0 else lambda s: weight * base(s)),
        rng=random.Random(cfg.seed),
    )


def _pick(ties: list, rng: random.Random):
    return ties[0] if len(ties) == 1 else rng.choice(ties)


def _gamma_trap_step(agent: AgentState, problem: SearchProblem,
                     cfg: AgentConfig) -> List[int]:
    """One decision of the trap-driven policy (both variants).

    Scores depth 1 off the successors, then deeper exact-depth layers,
    shallow first, only while every depth so far is trapped. The first
    depth holding a state s' with gamma * dist + h(s') <= h(current) ends
    the call: the action sequence to the best such member is returned
    (ties seeded-random) and nothing is written. Only when every depth up
    to d_max is trapped does learning happen: h(current) is raised to the
    max over depths of each depth's best score, a strict increase and the
    only write this policy makes. gtrap-bt then retreats to where the
    previous forward move started, or, at the start state, takes the
    depth-1 escape the raise opened; gtrap moves to the overall best member.
    """
    s = agent.current
    table = agent.table
    lookup = table.lookup
    hs = lookup(s)
    backtracking = cfg.algorithm is Algorithm.GTRAP_BT

    # floor 0.0, not 0: the scores are floats, and comparing like with
    # like is the interpreter's fast path
    per_depth = [_score_successors(problem, s, lookup, cfg.gamma, 0.0)]
    if per_depth[0][0] > hs and cfg.d_max > 1:
        for layer in islice(iter_layers(problem, s, cfg.d_max), 1, None):
            per_depth.append(_score_layer(layer, lookup, cfg.gamma))
            if per_depth[-1][0] <= hs:
                break

    best, ties = per_depth[-1]
    if best > hs:
        # every expanded depth was trapped
        new_h = max(v for v, _ in per_depth)
        assert new_h > hs, "trapped everywhere yet no strict increase"
        table.write(s, new_h)
        if not backtracking:
            overall = min(v for v, _ in per_depth)
            pool = [m for v, t in per_depth if v == overall for m in t]
            return list(_pick(pool, agent.rng))
        if s != problem.initial_state:
            forward = agent.trail.pop()
            return [problem.invert(a) for a in reversed(forward)]
        # Nowhere to retreat. The raise changed only h(s), which none of s's
        # own layers holds, so depth 1 scores as above and is now within
        # h(s): take that escape, as a fresh call would.
        ties = per_depth[0][1]
    acts = _pick(ties, agent.rng)
    if backtracking:
        agent.trail.append(acts)
    return list(acts)


def _lrta_step(agent: AgentState, problem: SearchProblem,
               cfg: AgentConfig) -> List[int]:
    """Single-step learning policy with a ball-wide backup.

    Candidates are all states within d_max moves of the current state
    (interior and frontier alike). h(current) is rewritten to the least
    dist + h among them whenever that differs from the stored value, and
    the agent moves one step along a cheapest path toward the best
    candidate (ties seeded-random). On a consistent base such as Manhattan
    distance the least dist + h is at depth 1 and the backup keeps the
    table consistent, so the lookahead changes which tied member the agent
    heads for, not what it learns.
    """
    s = agent.current
    table = agent.table
    lookup = table.lookup
    hs = lookup(s)

    # gamma 1 as an int keeps integer heuristics integral
    if cfg.d_max == 1:
        best, ties = _score_successors(problem, s, lookup, 1, 0)
    else:
        best, ties = _score_layer(
            chain.from_iterable(iter_layers(problem, s, cfg.d_max)), lookup, 1)
        if best is None:
            raise DomainViolation(f"state {s!r} has no neighbors")

    if best != hs:
        table.write(s, best)
    acts = _pick(ties, agent.rng)
    return [acts[0]]


def _ilrta_step(agent: AgentState, problem: SearchProblem,
                cfg: AgentConfig) -> List[int]:
    """Ball backup like lrta's, but reads go through the (possibly
    inflated) table, each candidate scores max(dist + h, least parent
    score) with h(current) as the origin's score, and writes are strictly
    upward. This lift keeps each layer's least score at or above the
    previous layer's, so the backup is the depth-1 value max(h(current),
    least c + h) and deeper layers only add ties: a member ties exactly
    when a parent ties and its own dist + h is at most the backup, so the
    walk for ties stops at the first layer without one.
    """
    s = agent.current
    table = agent.table
    lookup = table.lookup
    hs = lookup(s)

    best, ties = _score_successors(problem, s, lookup, 1, hs)
    if cfg.d_max > 1:
        ties, tied = [], {0}  # layer 1's one parent is the origin, position 0
        for layer in iter_layers(problem, s, cfg.d_max):
            prev, tied = tied, set()
            for i, (state, reach, acts, parents) in enumerate(layer):
                if not prev.isdisjoint(parents) and reach + lookup(state) <= best:
                    tied.add(i)
                    ties.append(acts)
            if not tied:
                break

    assert best >= hs, "lifted scores cannot drop below the seed"
    if best != hs:
        table.write(s, best)
    acts = _pick(ties, agent.rng)
    return [acts[0]]


def _rta_step(agent: AgentState, problem: SearchProblem,
              cfg: AgentConfig) -> List[int]:
    """Move to the best-looking neighbor, remember the second best.

    Each applicable action is scored by its cost plus the cheapest
    dist + h inside the successor's radius-(d_max - 1) ball, with the
    current state excluded so probes never run back through where the
    agent stands. Every call writes the runner-up score at the current
    state (RTA_INFINITY when only one action applies), which makes the
    value correct for one trial but deliberately not admissible.
    """
    s = agent.current
    table = agent.table
    lookup = table.lookup
    succ = problem.successors(s)
    if not succ:
        raise DomainViolation(f"state {s!r} has no neighbors")

    blocked = frozenset((s,))
    scores: List[float] = []
    for a, nxt, c in succ:
        inner = lookup(nxt)  # the ball's center, at distance 0
        if cfg.d_max > 1:
            v, _ = _score_layer(chain.from_iterable(
                iter_layers(problem, nxt, cfg.d_max - 1, blocked=blocked)), lookup, 1)
            if v is not None and v < inner:
                inner = v
        scores.append(c + inner)

    best = min(scores)
    ties = [a for (a, _, _), v in zip(succ, scores) if v == best]
    table.write(s, sorted(scores)[1] if len(scores) >= 2 else RTA_INFINITY)
    return [_pick(ties, agent.rng)]


_POLICIES = {
    Algorithm.GTRAP_BT: _gamma_trap_step,
    Algorithm.GTRAP: _gamma_trap_step,
    Algorithm.LRTA: _lrta_step,
    Algorithm.ILRTA: _ilrta_step,
    Algorithm.RTA: _rta_step,
}


def step(agent: AgentState, problem: SearchProblem, cfg: AgentConfig) -> List[int]:
    """One policy call for whatever algorithm cfg selects."""
    return _POLICIES[cfg.algorithm](agent, problem, cfg)


# --- deterministic per-run seeding -----------------------------------------

_MASK = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for b in text.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK
    return h


def derive_seed(master_seed: int, fold: int, instance: int, tag: str) -> int:
    """Per-run seed: the master seed xored with the tag hash, then mixed
    with the fold and instance indices through splitmix64. Stable across
    processes and platforms, so parallel and sequential runs agree."""
    x = _splitmix64((master_seed & _MASK) ^ _fnv1a64(tag))
    x = _splitmix64(x ^ (fold & _MASK))
    x = _splitmix64(x ^ (instance & _MASK))
    return x
