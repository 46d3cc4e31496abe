"""The benchmark's own input and host-speed machinery.

    python3 -m pytest bench/tests
"""

import os
import random
import sys
from collections import Counter

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import calibration  # noqa: E402
import truth  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("processes", [1, 2])
def test_host_seconds_leaves_no_copy_and_restores_cores(processes):
    allowed = os.sched_getaffinity(0)
    assert calibration.host_seconds(processes) > 0
    assert os.sched_getaffinity(0) == allowed
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_p8_rounds_keep_manhattan_shares_and_repeat_per_seed(tmp_path):
    distances = truth.bfs_distances(3, 3)
    boards = sorted(distances)

    def board_for_seed(cli_seed):  # stands in for the CLI's own generator
        return random.Random(cli_seed).choice(boards)

    wl = workloads.WORKLOADS["p8-converge-deep"]

    def rounds(seed, n):
        src = workloads.RoundSource(wl, seed, str(tmp_path), board_for_seed, distances)
        return src, [src.make(i) for i in range(n)]

    src, made = rounds(4, 60)
    assert all(distances[r.starts[0]] == wl.optimal for r in made)
    for n in range(1, len(made) + 1):
        counts = Counter(truth.manhattan(r.starts[0], 3) for r in made[:n])
        for m, share in src.shares.items():
            assert abs(counts[m] - share * n) < 1
    assert [r.argv for r in rounds(4, 10)[1]] == [r.argv for r in made[:10]]
    assert [r.argv for r in rounds(5, 10)[1]] != [r.argv for r in made[:10]]
    with pytest.raises(ValueError):
        src.make(len(made) + 1)
