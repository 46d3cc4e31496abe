"""Learning real-time search on sliding-tile puzzles.

Agents that interleave bounded lookahead with heuristic learning, a
trap-driven adaptive-lookahead pair among them, plus the benchmark harness
that measures convergence speed, memory, solution stability, and
first-trial cost against exact ground truth.
"""

from .agents import (
    AgentConfig,
    AgentState,
    Algorithm,
    derive_seed,
    gamma_trap_step,
    ilrta_step,
    lrta_step,
    make_agent,
    rta_step,
    step,
)
from .core import (
    DomainViolation,
    DownwardWriteError,
    HeuristicTable,
    SearchProblem,
    iter_layers,
)
from .harness import (
    AlgoSpec,
    ConvergenceRecord,
    ExperimentConfig,
    StabilityIndices,
    TrialRecord,
    aggregate,
    run_experiment,
    run_trial,
    run_until_convergence,
    stability,
)
from .oracle import full_bfs_distances, ida_star_optimal
from .tiles import (
    KorfFormatError,
    PuzzleInstance,
    TileBoard,
    TilePuzzle,
    goal_board,
    is_solvable,
    load_korf,
    manhattan,
    random_solvable,
)

__version__ = "1.0.0"

__all__ = [
    "AgentConfig", "AgentState", "Algorithm", "AlgoSpec", "ConvergenceRecord",
    "DomainViolation", "DownwardWriteError", "ExperimentConfig",
    "HeuristicTable", "KorfFormatError", "PuzzleInstance", "SearchProblem",
    "StabilityIndices", "TileBoard", "TilePuzzle", "TrialRecord", "aggregate",
    "derive_seed", "full_bfs_distances", "gamma_trap_step", "goal_board",
    "ida_star_optimal", "ilrta_step", "is_solvable", "iter_layers",
    "load_korf", "lrta_step", "make_agent", "manhattan", "random_solvable",
    "rta_step", "run_experiment", "run_trial", "run_until_convergence",
    "stability", "step",
]
