import lrts

# The package's public names. A new one is added here on purpose; a name only
# tests call stays private.
PUBLIC = [
    "AgentConfig", "AgentState", "Algorithm", "ConvergenceRecord",
    "DomainViolation", "ExperimentConfig",
    "HeuristicTable", "KorfFormatError", "PuzzleInstance", "SearchProblem",
    "StabilityIndices", "TileBoard", "TilePuzzle", "TrialRecord", "aggregate",
    "derive_seed", "full_bfs_distances", "goal_board", "ida_star_optimal",
    "is_solvable", "iter_layers", "load_korf", "make_agent",
    "random_solvable", "run_experiment", "run_trial", "run_until_convergence",
    "stability", "step",
]


def test_public_names_are_pinned():
    assert sorted(lrts.__all__) == PUBLIC
    assert len(set(lrts.__all__)) == len(PUBLIC)
    for name in PUBLIC:
        assert getattr(lrts, name) is not None
