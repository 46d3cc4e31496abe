"""Per-layer rates, measured from outside through each module's public
functions on inputs drawn from the benchmark seed.

Every measurement does a fixed amount of work (fixed call lists, fixed
move budgets), so a rate changes only when the code gets faster or
slower; the work per call is reported next to the rates where it can
vary (members per iter_layers call).
"""

from __future__ import annotations

import os
import random
import statistics
import time
from typing import Callable, Dict, List, Sequence, Tuple

from lrts import (AgentConfig, Algorithm, HeuristicTable, TileBoard, TilePuzzle, goal_board,
                  iter_layers, make_agent, random_solvable, step)
from lrts.harness import aggregate, run_trial, write_csv, RUN_COLUMNS, SUMMARY_COLUMNS
from lrts.plots import emit_plots

# (domain, algorithm, lookahead) pairs that the end-to-end workloads run,
# plus d=5 on the 8-puzzle, the depth the deep workload leaves to this layer
HARNESS_PAIRS = (
    [("p8", alg, d) for alg in ("gtrap-bt", "gtrap", "lrta", "ilrta") for d in (1, 2, 3, 5)]
    + [("p15", "gtrap-bt", 1), ("p15", "gtrap-bt", 3)]
)
STEP_PAIRS = (
    [(alg, d) for alg in ("gtrap-bt", "gtrap", "lrta", "ilrta") for d in (1, 5)]
    + [("rta", 1), ("rta", 3)]
)
_REPS = 3


def _rate(work: float, fn: Callable[[], None], reps: int = _REPS) -> float:
    """work / median seconds over `reps` timings of fn()."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return work / statistics.median(times)


def _cfg(alg: str, d: int, seed: int) -> AgentConfig:
    return AgentConfig(Algorithm(alg), d_max=d,
                       gamma=0.5 if alg in ("gtrap-bt", "gtrap") else 1.0,
                       epsilon=0.2 if alg == "ilrta" else 0.0, seed=seed)


def tiles_and_core(seed: int) -> Dict[str, float]:
    rng = random.Random(f"layers/{seed}")
    p8 = TilePuzzle(goal_board(3, 3))
    p15 = TilePuzzle(goal_board(4, 4))
    s8 = [random_solvable(3, 3, rng).tiles for _ in range(2000)]
    s15 = [random_solvable(4, 4, rng).tiles for _ in range(2000)]
    out: Dict[str, float] = {}
    loops = 5
    for name, fn, states in (
        ("tiles.successors_p8_per_s", p8.successors, s8),
        ("tiles.successors_p15_per_s", p15.successors, s15),
        ("tiles.manhattan_p8_per_s", p8.manhattan, s8),
        ("tiles.manhattan_p15_per_s", p15.manhattan, s15),
    ):
        def run(fn=fn, states=states):
            for _ in range(loops):
                for s in states:
                    fn(s)
        out[name] = _rate(loops * len(states), run)

    pairs: List[Tuple[Tuple[int, ...], int]] = []
    state = s8[0]
    for _ in range(2000):
        a, nxt, _ = rng.choice(p8.successors(state))
        pairs.append((state, a))
        state = nxt

    def apply_all():
        for _ in range(loops):
            for s, a in pairs:
                p8.apply(s, a)
    out["tiles.apply_per_s"] = _rate(loops * len(pairs), apply_all)

    table = HeuristicTable(p8.manhattan)
    for s in s8[::2]:
        table.write(s, p8.manhattan(s) + 2)

    def lookups():
        for _ in range(loops):
            for s in s8:
                table.lookup(s)
    out["core.lookup_per_s"] = _rate(loops * len(s8), lookups)

    raised = [(s, p8.manhattan(s) + 1) for s in s8]

    def writes():
        fresh = HeuristicTable(p8.manhattan)
        for s, v in raised:
            fresh.write(s, v)
    out["core.write_per_s"] = _rate(len(raised), writes, reps=5)

    for d, count in ((1, 2000), (5, 300), (10, 40)):
        origins = s8[:count]
        members = 0
        for s in origins:
            for layer in iter_layers(p8, s, d):
                members += len(layer)

        def expand(d=d, origins=origins):
            for s in origins:
                for _ in iter_layers(p8, s, d):
                    pass
        out[f"core.iter_layers_d{d}_per_s"] = _rate(len(origins), expand)
        out[f"core.iter_layers_d{d}_members"] = members / len(origins)
    return out


def _p8_instances(seed: int, n: int) -> List[Tuple[int, ...]]:
    rng = random.Random(f"layers-instances/{seed}")
    return [random_solvable(3, 3, rng).tiles for _ in range(n)]


def agent_steps(seed: int) -> Dict[str, float]:
    """One policy call at a time along the agent's own seeded trajectory
    (trials restart at the start state, as the harness does)."""
    start = _p8_instances(seed, 1)[0]
    out: Dict[str, float] = {}
    for alg, d in STEP_PAIRS:
        calls = {1: 3000, 3: 600, 5: 300}[d]
        cfg = _cfg(alg, d, seed)

        def walk(cfg=cfg, calls=calls) -> float:
            problem = TilePuzzle(TileBoard(3, 3, start))
            agent = make_agent(problem, cfg, base=problem.manhattan)
            busy = 0.0
            for _ in range(calls):
                t0 = time.perf_counter()
                acts = step(agent, problem, cfg)
                busy += time.perf_counter() - t0
                for a in acts:
                    agent.current, _ = problem.apply(agent.current, a)
                    if problem.is_goal(agent.current):
                        break
                if problem.is_goal(agent.current):
                    agent.current = problem.initial_state
                    agent.trail = []
            return busy

        busy = statistics.median(walk() for _ in range(_REPS))
        out[f"agents.step.{alg}.d{d}_per_s"] = calls / busy
    return out


def harness_moves(seed: int, p15_starts: Sequence[Tuple[int, ...]]) -> Dict[str, float]:
    """Moves per second of run_trial for each (domain, algorithm, lookahead)
    pair of the workloads, over a fixed move budget: trials repeat on one
    instance until it converges, then move on to the next instance."""
    p8_starts = _p8_instances(seed, 8)
    out: Dict[str, float] = {}
    for domain, alg, d in HARNESS_PAIRS:
        budget = {1: 6000, 2: 3000, 3: 1500, 5: 600}[d]
        starts = p8_starts if domain == "p8" else list(p15_starts)
        size = (3, 3) if domain == "p8" else (4, 4)

        def run(alg=alg, d=d, budget=budget, starts=starts, size=size) -> None:
            moves, i = 0, 0
            while moves < budget:
                problem = TilePuzzle(TileBoard(size[0], size[1], starts[i % len(starts)]))
                cfg = _cfg(alg, d, seed + i)
                agent = make_agent(problem, cfg, base=problem.manhattan)
                while moves < budget:
                    rec = run_trial(agent, problem, cfg, move_limit=budget - moves)
                    moves += rec.moves
                    if rec.h_updates == 0:
                        break
                i += 1
        out[f"harness.moves_per_s.{domain}.{alg}.d{d}"] = _rate(budget, run)
    return out


def outputs(all_rows: List[dict], rows: List[dict], summary: List[dict], experiment: str,
            out_dir: str) -> Dict[str, float]:
    """aggregate() over every row of the traced run, and the writers of one
    CLI call (runs CSV, summary CSV, plots) into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    out = {"harness.aggregate_s": 1.0 / _rate(1, lambda: aggregate(all_rows), reps=5)}

    def write_all():
        write_csv(os.path.join(out_dir, "runs.csv"), RUN_COLUMNS, rows)
        write_csv(os.path.join(out_dir, "summary.csv"), SUMMARY_COLUMNS, summary)
        emit_plots(summary, out_dir, experiment)
    out["output.write_s"] = 1.0 / _rate(1, write_all, reps=5)
    return out
