import os
import subprocess
import sys

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


def test_import_leaves_multiprocessing_unloaded():
    # the process pool is built only for --jobs above 1, so a plain import
    # (and every in-process run) skips loading multiprocessing
    src = os.path.dirname(os.path.dirname(lrts.__file__))
    probe = "import sys, lrts; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
