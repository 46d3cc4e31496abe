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
    make_agent,
    step,
)
from .core import (
    DomainViolation,
    HeuristicTable,
    SearchProblem,
    iter_layers,
)
from .harness import (
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
    random_solvable,
)

__version__ = "1.0.0"

__all__ = [
    "AgentConfig", "AgentState", "Algorithm", "ConvergenceRecord",
    "DomainViolation", "ExperimentConfig",
    "HeuristicTable", "KorfFormatError", "PuzzleInstance", "SearchProblem",
    "StabilityIndices", "TileBoard", "TilePuzzle", "TrialRecord", "aggregate",
    "derive_seed", "full_bfs_distances", "goal_board", "ida_star_optimal",
    "is_solvable", "iter_layers", "load_korf", "make_agent",
    "random_solvable", "run_experiment", "run_trial", "run_until_convergence",
    "stability", "step",
]
