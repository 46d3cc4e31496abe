"""Benchmark harness: experiment configuration, trials, convergence runs,
stability indices, cross-fold aggregation, and deterministic CSV emission.

A "trial" is one walk from the start state to the goal with the learned
table carried over. Convergence is declared on the first trial that
completes without a single value-changing table write. Every run, in
every experiment, yields one ConvergenceRecord; a first-trial run is a
record of one trial that never converges. ExperimentConfig is the one
validator of a configuration and holds its run matrix as a grid,
algorithms x gammas x epsilons x lookaheads, which agent_configs alone
expands. Every run is seeded individually, so the whole experiment is
reproducible move for move, sequentially or across worker processes.
"""

from __future__ import annotations

import csv
import os
import random
import statistics
import threading
import time
from concurrent import futures  # multiprocessing loads with the first pool, not here
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .agents import (
    PARAMETER,
    AgentConfig,
    AgentState,
    Algorithm,
    derive_seed,
    make_agent,
    step,
)
from .core import SearchProblem
from .oracle import MAX_BFS_CELLS, full_bfs_distances, ida_star_optimal
from .tiles import PuzzleInstance, TileBoard, TilePuzzle, load_korf, random_solvable

EXPERIMENTS = ("convergence", "memory", "stability", "first-trial")
DOMAINS = {"puzzle8": (3, 3), "puzzle15": (4, 4)}

DEFAULT_MOVE_LIMIT = 500_000
DEFAULT_MEMORY_LIMIT = 4_000_000
DEFAULT_ALGORITHMS = (Algorithm.GTRAP_BT, Algorithm.GTRAP, Algorithm.LRTA, Algorithm.ILRTA)
DEFAULT_GAMMAS = (0.2, 0.5, 1.0)
DEFAULT_EPSILONS = (0.2, 0.5)
DEFAULT_LOOKAHEADS = (1, 2, 5, 10, 15)
DEFAULT_IDA_BUDGET = 1_000_000

# One CSV row per instance run.
RUN_COLUMNS = (
    "experiment", "algorithm", "param_gamma", "param_epsilon", "lookahead",
    "fold", "instance_id", "seed", "converged_at", "convergence_cost",
    "final_cost", "optimal_cost", "final_ratio_pct", "stored_values",
    "iae", "ise", "itae", "itse", "sod", "limit_hit",
)

SUMMARY_COLUMNS = (
    "experiment", "algorithm", "param_gamma", "param_epsilon", "lookahead",
    "folds", "runs", "converged_mean", "converged_std",
    "mean_convergence_cost", "std_convergence_cost",
    "mean_final_cost", "std_final_cost",
    "mean_final_ratio_pct", "std_final_ratio_pct", "ratio_coverage",
    "mean_stored_values", "std_stored_values",
    "mean_iae", "std_iae", "mean_ise", "std_ise",
    "mean_itae", "std_itae", "mean_itse", "std_itse",
    "mean_sod", "std_sod",
)


@dataclass
class TrialRecord:
    solution_cost: float
    h_updates: int
    moves: int
    hit_move_limit: bool


@dataclass
class ConvergenceRecord:
    """One run's outcome; a first-trial run records its single trial and
    never converges."""

    trials: List[TrialRecord]
    converged_at: Optional[int]  # 1-based trial number, None when not converged
    stored_values: int
    limit_hit: Optional[str]     # None | "MOVES" | "MEMORY"

    @property
    def convergence_cost(self) -> Optional[float]:
        """Travel summed over trials 1..converged_at; None unless the run
        converged."""
        if self.converged_at is None:
            return None
        return sum(t.solution_cost for t in self.trials)

    @property
    def final_cost(self) -> float:
        """Cost of the last recorded trial."""
        return self.trials[-1].solution_cost


@dataclass
class StabilityIndices:
    """Control-theoretic convergence-quality indices over the per-trial
    cost sequence, truncated at the convergence trial.

    With e_i = cost_i - h_opt and trials i = 1..N: iae sums |e_i|, ise sums
    e_i^2, itae sums i*|e_i|, itse sums i*e_i^2, and sod sums the positive
    jumps max(0, cost_{i+1} - cost_i), so sod = 0 means monotone descent.
    """

    iae: float
    ise: float
    itae: float
    itse: float
    sod: float


# Smallest accepted value of each integer field of ExperimentConfig.
_MINIMUMS = (
    ("folds", 1), ("instances", 1), ("master_seed", -(10**18)),
    ("move_limit", 1), ("memory_limit", 1), ("jobs", 1), ("ida_budget", 0),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's whole configuration, validated on construction.
    algorithms x gammas x epsilons x lookaheads is the grid of agent
    configurations; each gamma and epsilon is checked by AgentConfig's
    rules whether or not a listed algorithm takes it, and stored in the form
    AgentConfig gives it. Algorithm names become Algorithm members. By
    default first-trial adds rta to the algorithms, and puzzle15, whose
    folds share the file's instances, runs one fold."""

    experiment: str
    domain: str = "puzzle8"
    algorithms: Optional[Tuple[Algorithm, ...]] = None
    gammas: Tuple[float, ...] = DEFAULT_GAMMAS
    epsilons: Tuple[float, ...] = DEFAULT_EPSILONS
    lookaheads: Tuple[int, ...] = DEFAULT_LOOKAHEADS
    folds: Optional[int] = None
    instances: int = 100
    master_seed: int = 0
    move_limit: int = DEFAULT_MOVE_LIMIT
    memory_limit: int = DEFAULT_MEMORY_LIMIT
    korf_path: Optional[str] = None
    out_dir: str = "lrts-out"
    jobs: int = 1
    ida_budget: int = DEFAULT_IDA_BUDGET

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r} "
                             f"(one of: {', '.join(EXPERIMENTS)})")
        if self.domain not in DOMAINS:
            raise ValueError(f"unknown domain {self.domain!r} "
                             f"(one of: {', '.join(DOMAINS)})")
        settle = partial(object.__setattr__, self)
        if self.algorithms is None:
            rta = (Algorithm.RTA,) if self.experiment == "first-trial" else ()
            settle("algorithms", DEFAULT_ALGORITHMS + rta)
        try:
            settle("algorithms", tuple(map(Algorithm, self.algorithms)))
        except ValueError as exc:
            raise ValueError(f"algorithms: {exc} "
                             f"(valid: {', '.join(a.value for a in Algorithm)})") from None
        settle("gammas", tuple(AgentConfig(Algorithm.GTRAP, gamma=g).gamma
                               for g in self.gammas))
        settle("epsilons", tuple(AgentConfig(Algorithm.ILRTA, epsilon=e).epsilon
                                 for e in self.epsilons))
        if self.folds is None:
            settle("folds", 1 if self.domain == "puzzle15" else 10)
        for name in ("algorithms", "gammas", "epsilons", "lookaheads"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must hold at least one value")
            if len(set(values)) < len(values):
                shown = ",".join(str(getattr(v, "value", v)) for v in values)
                raise ValueError(f"{name} must not repeat a value, got {shown}")
        for name, minimum in _MINIMUMS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
            if value < minimum:
                raise ValueError(f"{name} must be >= {minimum}, got {value}")
        if self.domain == "puzzle15":
            if not self.korf_path:
                raise ValueError("puzzle15 requires an instance file (korf_path)")
            if not os.path.isfile(self.korf_path):
                raise ValueError(f"korf_path not found: {self.korf_path}")
        elif self.korf_path is not None:
            raise ValueError(f"korf_path is only read on puzzle15, got {self.korf_path}")
        if not self.out_dir:
            raise ValueError("out_dir must not be empty")
        if Algorithm.RTA in self.algorithms and self.experiment != "first-trial":
            raise ValueError(
                "algorithm rta keeps no table across trials and only runs "
                "in the first-trial experiment"
            )
        for d in self.lookaheads:
            AgentConfig(Algorithm.LRTA, d_max=d)

    def agent_configs(self) -> List[AgentConfig]:
        """The grid in run order: algorithm, then its gamma or epsilon (a
        single entry for an algorithm that takes neither), then lookahead;
        every seed is 0 until build_tasks sets one per run."""
        out = []
        for alg in self.algorithms:
            name = PARAMETER.get(alg)
            params = [{name: v} for v in getattr(self, f"{name}s")] if name else [{}]
            out.extend(AgentConfig(alg, d_max=d, **p)
                       for p in params for d in self.lookaheads)
        return out


def run_trial(agent: AgentState, problem: SearchProblem, cfg: AgentConfig,
              move_limit: int = DEFAULT_MOVE_LIMIT) -> TrialRecord:
    """Walk the agent from the start state to the goal once.

    h_updates is the number of table writes made during this trial. On
    return the agent is parked back at the start with a cleared trail,
    table intact, ready for the next trial. A trial that exhausts
    move_limit is recorded with hit_move_limit and whatever cost accrued.
    """
    table = agent.table
    writes = table.writes
    actions = agent.trial_actions = []
    is_goal = problem.is_goal
    apply = problem.apply
    moves = 0
    cost: float = 0
    current = agent.current
    while not is_goal(current) and moves < move_limit:
        for a in step(agent, problem, cfg):
            current, c = apply(current, a)
            agent.current = current
            cost += c
            moves += 1
            actions.append(a)
            if is_goal(current) or moves >= move_limit:
                break
    record = TrialRecord(
        solution_cost=cost,
        h_updates=table.writes - writes,
        moves=moves,
        hit_move_limit=not is_goal(current),
    )
    agent.current = problem.initial_state
    agent.trail = []
    return record


def run_until_convergence(agent: AgentState, problem: SearchProblem,
                          cfg: AgentConfig,
                          move_limit: int = DEFAULT_MOVE_LIMIT,
                          memory_limit: int = DEFAULT_MEMORY_LIMIT) -> ConvergenceRecord:
    """Repeat trials until one completes with no table write.

    The converging policies write only a value that differs from the
    stored one, so that is a trial in which no value changed.

    A trial that hits the move limit aborts the run (converged_at None,
    limit_hit "MOVES"). The stored-value count is checked between trials;
    crossing memory_limit aborts with limit_hit "MEMORY".
    """
    trials: List[TrialRecord] = []
    while True:
        rec = run_trial(agent, problem, cfg, move_limit=move_limit)
        trials.append(rec)
        stored = agent.table.stored_count
        if rec.hit_move_limit:
            return ConvergenceRecord(trials, None, stored, "MOVES")
        if rec.h_updates == 0:
            return ConvergenceRecord(trials, len(trials), stored, None)
        if stored > memory_limit:
            return ConvergenceRecord(trials, None, stored, "MEMORY")


def stability(costs: Sequence[float], n_converged: int, h_star: float) -> StabilityIndices:
    """Indices over the cost sequence truncated at trial n_converged."""
    if not costs:
        raise ValueError("stability needs at least one trial cost")
    if not 1 <= n_converged <= len(costs):
        raise ValueError(
            f"n_converged must be in 1..{len(costs)}, got {n_converged}"
        )
    if h_star < 0:
        raise ValueError(f"h_star must be >= 0, got {h_star}")
    cs = list(costs[:n_converged])
    errs = [c - h_star for c in cs]
    return StabilityIndices(
        iae=sum(abs(e) for e in errs),
        ise=sum(e * e for e in errs),
        itae=sum(i * abs(e) for i, e in enumerate(errs, start=1)),
        itse=sum(i * e * e for i, e in enumerate(errs, start=1)),
        sod=sum(max(0, b - a) for a, b in zip(cs, cs[1:])),
    )


# --- experiment fan-out ------------------------------------------------------


@dataclass(frozen=True)
class TaskSpec:
    """One (agent configuration, fold, instance) run: only what varies per
    run, so it can ship to a worker process; cfg carries this run's seed.
    The experiment name and limits come from the ExperimentConfig that
    _run_task is bound to."""

    cfg: AgentConfig
    fold: int
    instance_id: int
    start: TileBoard


def _run_task(config: ExperimentConfig, task: TaskSpec) -> ConvergenceRecord:
    """Execute one run in any experiment."""
    problem = TilePuzzle(task.start)
    cfg = task.cfg
    agent = make_agent(problem, cfg, base=problem.manhattan)
    if config.experiment == "first-trial":
        rec = run_trial(agent, problem, cfg, move_limit=config.move_limit)
        return ConvergenceRecord([rec], None, agent.table.stored_count,
                                 "MOVES" if rec.hit_move_limit else None)
    return run_until_convergence(
        agent, problem, cfg,
        move_limit=config.move_limit, memory_limit=config.memory_limit,
    )


def generate_instances(config: ExperimentConfig) -> Dict[int, List[PuzzleInstance]]:
    """The instance list for every fold.

    puzzle8 folds each get their own boards, generated from seeds derived
    with the algorithm-independent tag "instance". puzzle15 folds share
    the file's instances (the per-fold variation is the agent seeding).
    """
    width, height = DOMAINS[config.domain]
    per_fold: Dict[int, List[PuzzleInstance]] = {}
    if config.domain == "puzzle15":
        instances = load_korf(config.korf_path)
        if len(instances) < config.instances:
            raise ValueError(
                f"instance file holds {len(instances)} instances, "
                f"{config.instances} requested"
            )
        chosen = instances[: config.instances]
        for fold in range(config.folds):
            per_fold[fold] = chosen
        return per_fold
    for fold in range(config.folds):
        boards = []
        for idx in range(config.instances):
            rng_seed = derive_seed(config.master_seed, fold, idx, "instance")
            board = random_solvable(width, height, random.Random(rng_seed))
            boards.append(PuzzleInstance(instance_id=idx, start=board))
        per_fold[fold] = boards
    return per_fold


def build_tasks(config: ExperimentConfig) -> List[TaskSpec]:
    """Deterministic nested expansion: agent configuration (in the order of
    ExperimentConfig.agent_configs), fold, instance."""
    per_fold = generate_instances(config)
    tasks: List[TaskSpec] = []
    for cfg in config.agent_configs():
        tag = cfg.tag()
        for fold in range(config.folds):
            for inst in per_fold[fold]:
                seed = derive_seed(config.master_seed, fold, inst.instance_id, tag)
                tasks.append(TaskSpec(replace(cfg, seed=seed), fold,
                                      inst.instance_id, inst.start))
    return tasks


def _optimal_cost(board: TileBoard, ida_budget: int) -> Optional[int]:
    """Full-space BFS where the board is small enough, else IDA* within
    ida_budget nodes (None when the budget is 0 or runs out)."""
    if board.width * board.height <= MAX_BFS_CELLS:
        return full_bfs_distances(board.width, board.height)[board.tiles]
    if ida_budget > 0:
        return ida_star_optimal(TilePuzzle(board), board.tiles, budget=ida_budget)
    return None


def _assemble_row(config: ExperimentConfig, task: TaskSpec,
                  record: ConvergenceRecord, optimal: Optional[int]) -> Dict:
    ratio = None
    if optimal is not None and optimal > 0 and not record.trials[-1].hit_move_limit:
        ratio = 100.0 * record.final_cost / optimal
    indices: Optional[StabilityIndices] = None
    if record.converged_at is not None and optimal is not None:
        costs = [t.solution_cost for t in record.trials]
        indices = stability(costs, record.converged_at, optimal)
    cfg = task.cfg
    param = PARAMETER.get(cfg.algorithm)
    return {
        "experiment": config.experiment,
        "algorithm": cfg.algorithm.value,
        "param_gamma": cfg.gamma if param == "gamma" else None,
        "param_epsilon": cfg.epsilon if param == "epsilon" else None,
        "lookahead": cfg.d_max,
        "fold": task.fold,
        "instance_id": task.instance_id,
        "seed": cfg.seed,
        "converged_at": record.converged_at,
        "convergence_cost": record.convergence_cost,
        "final_cost": record.final_cost,
        "optimal_cost": optimal,
        "final_ratio_pct": ratio,
        "stored_values": record.stored_values,
        "iae": indices.iae if indices else None,
        "ise": indices.ise if indices else None,
        "itae": indices.itae if indices else None,
        "itse": indices.itse if indices else None,
        "sod": indices.sod if indices else None,
        "limit_hit": record.limit_hit,
    }


def _exit_with_parent() -> None:
    """Pool initializer: end the worker once the process that started it is
    gone, so an interrupted run leaves no workers behind."""
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def run_experiment(config: ExperimentConfig,
                   progress: Optional[Callable[[int, int], None]] = None
                   ) -> Tuple[List[Dict], List[Dict]]:
    """Run every task and return (per-instance rows, summary rows).

    progress, if given, is called with (0, total) before the first run and
    (done, total) after each. The pool has at most one worker per task and
    per CPU, and a single worker runs in this process. Workers only execute
    agent runs; ground-truth costs are resolved here, once per distinct
    board. Results keep task order, so any job count emits the same rows.
    """
    tasks = build_tasks(config)
    total = len(tasks)
    run = partial(_run_task, config)
    if progress:
        progress(0, total)
    workers = min(config.jobs, total, os.cpu_count() or 1)
    pool = (futures.ProcessPoolExecutor(max_workers=workers, initializer=_exit_with_parent)
            if workers > 1 else None)
    with pool or nullcontext():
        results = (pool.map(run, tasks, chunksize=max(1, total // (workers * 8)))
                   if pool else map(run, tasks))
        records = []
        for done, record in enumerate(results, start=1):
            records.append(record)
            if progress:
                progress(done, total)
    optimal = {board: _optimal_cost(board, config.ida_budget)
               for board in {t.start for t in tasks}}
    rows = [_assemble_row(config, task, record, optimal[task.start])
            for task, record in zip(tasks, records)]
    return rows, aggregate(rows)


GROUP_COLUMNS = ("experiment", "algorithm", "param_gamma", "param_epsilon", "lookahead")
_MEAN_METRICS = (
    "convergence_cost", "final_cost", "final_ratio_pct", "stored_values",
    "iae", "ise", "itae", "itse", "sod",
)


def _fold_means(rows: List[Dict], metric: str) -> List[float]:
    by_fold: Dict[int, List[float]] = {}
    for r in rows:
        v = r.get(metric)
        if v is not None:
            by_fold.setdefault(r["fold"], []).append(v)
    return [statistics.fmean(by_fold[f]) for f in sorted(by_fold)]


def _mean_std(values: List[float]) -> Tuple[Optional[float], Optional[float]]:
    if not values:
        return None, None
    mean = statistics.fmean(values)
    std = statistics.stdev(values) if len(values) > 1 else 0.0
    return mean, std


def aggregate(rows: List[Dict]) -> List[Dict]:
    """Fold means first, then mean and sample standard deviation across
    folds (std 0 with a single fold). Instances missing a value (no oracle
    cost, no convergence) are left out of the affected metric only;
    ratio_coverage records the kept fraction for the ratio column.
    """
    groups: Dict[Tuple, List[Dict]] = {}
    for row in rows:
        key = tuple(row[c] for c in GROUP_COLUMNS)
        groups.setdefault(key, []).append(row)
    out: List[Dict] = []
    for key, rs in groups.items():
        folds = sorted({r["fold"] for r in rs})
        summary: Dict = dict(zip(GROUP_COLUMNS, key))
        summary["folds"] = len(folds)
        summary["runs"] = len(rs)
        conv_counts = [
            float(sum(1 for r in rs if r["fold"] == f and r["converged_at"] is not None))
            for f in folds
        ]
        summary["converged_mean"], summary["converged_std"] = _mean_std(conv_counts)
        for metric in _MEAN_METRICS:
            mean, std = _mean_std(_fold_means(rs, metric))
            summary[f"mean_{metric}"] = mean
            summary[f"std_{metric}"] = std
        with_ratio = sum(1 for r in rs if r["final_ratio_pct"] is not None)
        summary["ratio_coverage"] = with_ratio / len(rs)
        out.append(summary)
    return out


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(path: str, columns: Sequence[str], rows: List[Dict]) -> None:
    """Byte-stable CSV: fixed column order, LF line endings, floats via
    repr (shortest round-trip form), empty cell for missing values."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt_cell(row.get(c)) for c in columns])
