"""Real-time control policies.

Five agents share one interface: a policy call inspects the neighborhood of
the current state, possibly rewrites the learned heuristic there, and
returns the action sequence to execute (possibly empty). The harness
applies the actions and calls again until the goal is reached. Every
policy expands through core.iter_layers and scores through core's
scorers; at lookahead 1, gtrap, lrta and ilrta score the successors
directly with the one depth-1 scorer, core._score_successors.

The trap-driven pair (gtrap-bt, gtrap) deepens its lookahead adaptively:
depth d is "trapped" when no state within d steps looks at least as good as
staying put, i.e. no s' satisfies gamma * dist(s, s') + h(s') <= h(s).
The first untrapped depth supplies the move and nothing is learned; if all
depths up to d_max are trapped, h(current) is raised to the largest of the
per-depth best scores and the agent retreats (gtrap-bt) or pushes on to the
best member seen (gtrap). Discounting the travel term by gamma <= 1 makes
escapes cheaper to accept and caps the converged solution cost at
h_opt(start) / gamma for unit-cost domains.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Callable, List, Optional, Tuple

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


# The algorithms whose policy reads gamma; only ilrta reads epsilon.
GAMMA_ALGORITHMS = frozenset({Algorithm.GTRAP_BT, Algorithm.GTRAP})


@dataclass(frozen=True)
class AgentConfig:
    """Everything that parameterizes one agent run."""

    algorithm: Algorithm
    d_max: int = 1
    gamma: float = 1.0
    epsilon: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.d_max < 1:
            raise ValueError(f"lookahead d_max must be >= 1, got {self.d_max}")
        if not 0 < self.gamma <= 1:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if not 0 <= self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if self.gamma != 1 and self.algorithm not in GAMMA_ALGORITHMS:
            raise ValueError(f"algorithm {self.algorithm.value} takes no gamma, "
                             f"got {self.gamma}")
        if self.epsilon != 0 and self.algorithm is not Algorithm.ILRTA:
            raise ValueError(f"algorithm {self.algorithm.value} takes no epsilon, "
                             f"got {self.epsilon}")

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

    Expands exact-depth neighborhoods incrementally, shallow first. The
    first depth holding a state s' with gamma * dist + h(s') <= h(current)
    ends the call: the action sequence to the best such member is returned
    (ties seeded-random) and nothing is written. Only when every depth up
    to d_max is trapped does learning happen: h(current) is raised to the
    max over depths of each depth's best score, a strict increase and the
    only write this policy makes. gtrap-bt then retreats to where the
    previous forward move started (no move when already at the start
    state); gtrap moves to the overall best member.
    """
    s = agent.current
    table = agent.table
    lookup = table.lookup
    hs = lookup(s)
    backtracking = cfg.algorithm is Algorithm.GTRAP_BT

    if cfg.d_max == 1:
        # floor 0.0, not 0: the scores are floats, and comparing like with
        # like is the interpreter's fast path
        per_depth = [_score_successors(problem, s, lookup, cfg.gamma, 0.0)]
    else:
        per_depth = []
        for layer in iter_layers(problem, s, cfg.d_max):
            per_depth.append(_score_layer(layer, lookup, cfg.gamma))
            if per_depth[-1][0] <= hs:
                break
        if not per_depth:
            raise DomainViolation(f"state {s!r} has no neighbors")

    best, ties = per_depth[-1]
    if best <= hs:
        acts = _pick(ties, agent.rng)
        if backtracking:
            agent.trail.append(acts)
        return list(acts)

    # every expanded depth was trapped
    new_h = max(v for v, _ in per_depth)
    assert new_h > hs, "trapped everywhere yet no strict increase"
    table.write(s, new_h)

    if backtracking:
        if s == problem.initial_state:
            # Nowhere to retreat; the raise above unblocks the next call.
            return []
        forward = agent.trail.pop()
        return [problem.invert(a) for a in reversed(forward)]

    overall = min(v for v, _ in per_depth)
    pool = [m for v, t in per_depth if v == overall for m in t]
    return list(_pick(pool, agent.rng))


def _lrta_step(agent: AgentState, problem: SearchProblem,
               cfg: AgentConfig) -> List[int]:
    """Single-step learning policy with a ball-wide backup.

    Candidates are all states within d_max moves of the current state
    (interior and frontier alike). h(current) is rewritten to the least
    dist + h among them whenever that differs from the stored value, and
    the agent moves one step along a cheapest path toward the best
    candidate (ties seeded-random).
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
    """Ball backup like lrta's plus three refinements: reads always go
    through the (possibly inflated) table, every candidate's score is
    lifted to max(dist + h, least parent score) seeded with h(current), and
    writes are strictly upward: the lift keeps the backup value from
    dropping below the stored one, and equality writes are skipped.
    """
    s = agent.current
    table = agent.table
    lookup = table.lookup
    hs = lookup(s)

    if cfg.d_max == 1:
        best, ties = _score_successors(problem, s, lookup, 1, hs)
    else:
        best = None
        scores = [hs]  # lifted scores of the previous layer
        for layer in iter_layers(problem, s, cfg.d_max):
            prev, scores = scores, []
            for state, reach, acts, parents in layer:
                f = reach + lookup(state)
                pf = prev[parents[0]] if len(parents) == 1 else min([prev[i] for i in parents])
                if pf > f:
                    f = pf
                scores.append(f)
                if best is None or f < best:
                    best = f
                    ties = [acts]
                elif f == best:
                    ties.append(acts)
        if best is None:
            raise DomainViolation(f"state {s!r} has no neighbors")

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
    deep = cfg.d_max > 1
    scores: List[float] = []
    best = None
    ties: list = []
    for a, nxt, c in succ:
        inner = lookup(nxt)  # the ball's center, at distance 0
        if deep:
            for layer in iter_layers(problem, nxt, cfg.d_max - 1, blocked=blocked):
                v, _ = _score_layer(layer, lookup, 1)
                if v < inner:
                    inner = v
        score = c + inner
        scores.append(score)
        if best is None or score < best:
            best = score
            ties = [a]
        elif score == best:
            ties.append(a)

    if len(scores) >= 2:
        second = sorted(scores)[1]
    else:
        second = RTA_INFINITY
    table.write(s, second)
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
