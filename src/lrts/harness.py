"""Benchmark harness: experiment configuration, trials, convergence runs,
stability indices, cross-fold aggregation, and deterministic CSV emission.

A "trial" is one walk from the start state to the goal with the learned
table carried over. Convergence is declared on the first trial that
completes without a single value-changing table write. Every run, in
every experiment, yields one ConvergenceRecord; a first-trial run is a
record of one trial that never converges. ExperimentConfig is the one
validator of a configuration. Every run is seeded individually, so the
whole experiment is reproducible move for move, sequentially or across
worker processes.
"""

from __future__ import annotations

import csv
import os
import random
import statistics
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .agents import AgentConfig, AgentState, Algorithm, derive_seed, make_agent, step
from .core import DomainViolation, SearchProblem
from .oracle import MAX_BFS_CELLS, full_bfs_distances, ida_star_optimal
from .tiles import PuzzleInstance, TileBoard, TilePuzzle, load_korf, random_solvable

EXPERIMENTS = ("convergence", "memory", "stability", "first-trial")
DOMAINS = {"puzzle8": (3, 3), "puzzle15": (4, 4)}

DEFAULT_MOVE_LIMIT = 500_000
DEFAULT_MEMORY_LIMIT = 4_000_000
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

_MAX_IDLE_CALLS = 1_000_000  # consecutive empty policy returns before giving up


@dataclass
class TrialRecord:
    solution_cost: float
    h_updates: int
    moves: int
    hit_move_limit: bool


@dataclass
class ConvergenceRecord:
    """One run's outcome; a first-trial run records its single trial with
    converged_at and convergence_cost None."""

    trials: List[TrialRecord]
    converged_at: Optional[int]        # 1-based trial number, None when not converged
    convergence_cost: Optional[float]  # travel summed over all recorded trials
    final_cost: float                  # cost of the last recorded trial
    stored_values: int
    limit_hit: Optional[str]           # None | "MOVES" | "MEMORY"


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


@dataclass(frozen=True)
class AlgoSpec:
    """One algorithm configuration requested for an experiment; gamma and
    epsilon stay None for algorithms that do not take them."""

    algorithm: Algorithm
    gamma: Optional[float] = None
    epsilon: Optional[float] = None

    def label(self) -> str:
        name = self.algorithm.value
        if self.gamma is not None:
            name += f"({self.gamma:g})"
        if self.epsilon is not None:
            name += f"(eps={self.epsilon:g})"
        return name

    def agent_config(self, d_max: int) -> AgentConfig:
        """The agent configuration this spec runs at lookahead d_max, before
        the per-run seed is set; AgentConfig rejects out-of-range values."""
        return AgentConfig(
            algorithm=self.algorithm, d_max=d_max,
            gamma=1.0 if self.gamma is None else self.gamma,
            epsilon=0.0 if self.epsilon is None else self.epsilon,
        )


# Smallest accepted value of each integer field of ExperimentConfig.
_MINIMUMS = (
    ("folds", 1), ("instances", 1), ("master_seed", -(10**18)),
    ("move_limit", 1), ("memory_limit", 1), ("jobs", 1), ("ida_budget", 0),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's whole configuration, validated on construction:
    every field here, and through AlgoSpec.agent_config the agent rules
    of each (spec, lookahead) pair that build_tasks will run."""

    experiment: str
    domain: str
    specs: Tuple[AlgoSpec, ...]
    lookaheads: Tuple[int, ...] = DEFAULT_LOOKAHEADS
    folds: int = 10
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
        if not self.specs:
            raise ValueError("at least one algorithm is required")
        if not self.lookaheads:
            raise ValueError("at least one lookahead is required")
        for name, minimum in _MINIMUMS:
            value = getattr(self, name)
            if value < minimum:
                raise ValueError(f"{name} must be >= {minimum}, got {value}")
        if self.domain == "puzzle15" and not self.korf_path:
            raise ValueError("puzzle15 requires an instance file (korf_path)")
        for spec in self.specs:
            if spec.algorithm is Algorithm.RTA and self.experiment != "first-trial":
                raise ValueError(
                    "algorithm rta keeps no table across trials and only runs "
                    "in the first-trial experiment"
                )
            for d in self.lookaheads:
                spec.agent_config(d)


def run_trial(agent: AgentState, problem: SearchProblem, cfg: AgentConfig,
              move_limit: int = DEFAULT_MOVE_LIMIT) -> TrialRecord:
    """Walk the agent from the start state to the goal once.

    The update counter is reset here, so h_updates is per-trial. On return
    the agent is parked back at the start with a cleared trail, table
    intact, ready for the next trial. A trial that exhausts move_limit is
    recorded with hit_move_limit and whatever cost accrued.
    """
    table = agent.table
    table.update_count_this_trial = 0
    actions = agent.trial_actions = []
    is_goal = problem.is_goal
    apply = problem.apply
    moves = 0
    cost: float = 0
    hit = False
    idle = 0
    current = agent.current
    while not is_goal(current):
        if moves >= move_limit:
            hit = True
            break
        acts = step(agent, problem, cfg)
        if not acts:
            idle += 1
            if idle > _MAX_IDLE_CALLS:
                raise DomainViolation(
                    f"policy produced {_MAX_IDLE_CALLS} empty action lists in a row"
                )
            continue
        idle = 0
        for a in acts:
            current, c = apply(current, a)
            agent.current = current
            cost += c
            moves += 1
            actions.append(a)
            if is_goal(current) or moves >= move_limit:
                break
    record = TrialRecord(
        solution_cost=cost,
        h_updates=table.update_count_this_trial,
        moves=moves,
        hit_move_limit=hit,
    )
    agent.current = problem.initial_state
    agent.trail = []
    return record


def run_until_convergence(agent: AgentState, problem: SearchProblem,
                          cfg: AgentConfig,
                          move_limit: int = DEFAULT_MOVE_LIMIT,
                          memory_limit: int = DEFAULT_MEMORY_LIMIT) -> ConvergenceRecord:
    """Repeat trials until one completes with zero value-changing writes.

    A trial that hits the move limit aborts the run (converged_at None,
    limit_hit "MOVES"). The stored-value count is checked between trials;
    crossing memory_limit aborts with limit_hit "MEMORY". convergence_cost
    sums travel over all recorded trials, the convergence trial included.
    """
    trials: List[TrialRecord] = []
    converged_at: Optional[int] = None
    limit_hit: Optional[str] = None
    while True:
        rec = run_trial(agent, problem, cfg, move_limit=move_limit)
        trials.append(rec)
        if rec.hit_move_limit:
            limit_hit = "MOVES"
            break
        if rec.h_updates == 0:
            converged_at = len(trials)
            break
        if agent.table.stored_count > memory_limit:
            limit_hit = "MEMORY"
            break
    return ConvergenceRecord(
        trials=trials,
        converged_at=converged_at,
        convergence_cost=sum(r.solution_cost for r in trials),
        final_cost=trials[-1].solution_cost,
        stored_values=agent.table.stored_count,
        limit_hit=limit_hit,
    )


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
    """One (algorithm, lookahead, fold, instance) run, fully self-contained
    so it can ship to a worker process. spec fills the param_* columns;
    cfg is the agent configuration with this run's seed."""

    experiment: str
    spec: AlgoSpec
    cfg: AgentConfig
    fold: int
    instance_id: int
    start: TileBoard
    move_limit: int
    memory_limit: int


def _run_task(task: TaskSpec) -> ConvergenceRecord:
    """Execute one run in any experiment."""
    problem = TilePuzzle(task.start)
    cfg = task.cfg
    agent = make_agent(problem, cfg, base=problem.manhattan)
    if task.experiment == "first-trial":
        rec = run_trial(agent, problem, cfg, move_limit=task.move_limit)
        return ConvergenceRecord(
            trials=[rec],
            converged_at=None,
            convergence_cost=None,
            final_cost=rec.solution_cost,
            stored_values=agent.table.stored_count,
            limit_hit="MOVES" if rec.hit_move_limit else None,
        )
    return run_until_convergence(
        agent, problem, cfg,
        move_limit=task.move_limit, memory_limit=task.memory_limit,
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
        instances = load_korf(config.korf_path, expected_count=None)
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
    """Deterministic nested expansion: spec, lookahead, fold, instance."""
    per_fold = generate_instances(config)
    tasks: List[TaskSpec] = []
    for spec in config.specs:
        for d in config.lookaheads:
            cfg = spec.agent_config(d)
            tag = cfg.tag()
            for fold in range(config.folds):
                for inst in per_fold[fold]:
                    seed = derive_seed(config.master_seed, fold, inst.instance_id, tag)
                    tasks.append(TaskSpec(
                        experiment=config.experiment,
                        spec=spec,
                        cfg=replace(cfg, seed=seed),
                        fold=fold,
                        instance_id=inst.instance_id,
                        start=inst.start,
                        move_limit=config.move_limit,
                        memory_limit=config.memory_limit,
                    ))
    return tasks


def _optimal_for(task: TaskSpec, config: ExperimentConfig,
                 memo: Dict[Tuple[int, ...], Optional[int]]) -> Optional[int]:
    board = task.start
    tiles = board.tiles
    if board.width * board.height <= MAX_BFS_CELLS:
        return full_bfs_distances(board.width, board.height)[tiles]
    if tiles in memo:
        return memo[tiles]
    cost: Optional[int] = None
    if config.ida_budget > 0:
        cost = ida_star_optimal(TilePuzzle(board), tiles, budget=config.ida_budget)
    memo[tiles] = cost
    return cost


def _assemble_row(task: TaskSpec, record: ConvergenceRecord,
                  optimal: Optional[int]) -> Dict:
    ratio = None
    if optimal is not None and optimal > 0 and not record.trials[-1].hit_move_limit:
        ratio = 100.0 * record.final_cost / optimal
    indices: Optional[StabilityIndices] = None
    if record.converged_at is not None and optimal is not None:
        costs = [t.solution_cost for t in record.trials]
        indices = stability(costs, record.converged_at, optimal)
    return {
        "experiment": task.experiment,
        "algorithm": task.spec.algorithm.value,
        "param_gamma": task.spec.gamma,
        "param_epsilon": task.spec.epsilon,
        "lookahead": task.cfg.d_max,
        "fold": task.fold,
        "instance_id": task.instance_id,
        "seed": task.cfg.seed,
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

    Worker processes only execute agent runs; ground-truth costs are
    resolved in the parent, once per distinct board. Results keep
    task order, so sequential and parallel runs emit identical rows.
    """
    tasks = build_tasks(config)
    total = len(tasks)
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs,
                                 initializer=_exit_with_parent) as pool:
            chunk = max(1, total // (config.jobs * 8))
            records = []
            for i, record in enumerate(pool.map(_run_task, tasks, chunksize=chunk)):
                records.append(record)
                if progress:
                    progress(i + 1, total)
    else:
        records = []
        for i, task in enumerate(tasks):
            records.append(_run_task(task))
            if progress:
                progress(i + 1, total)
    memo: Dict[Tuple[int, ...], Optional[int]] = {}
    rows = [
        _assemble_row(task, record, _optimal_for(task, config, memo))
        for task, record in zip(tasks, records)
    ]
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
