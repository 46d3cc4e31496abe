"""The benchmark's workloads and their seeded inputs.

A run of a workload is a sequence of rounds. A round is one `lrts` CLI
invocation on inputs generated for it from the benchmark seed and the
round index, so the same seed always yields the same rounds. Every
instance in a workload has the same optimal cost: agent effort on a
random board grows about 1.3x per extra step of optimal cost, so a fixed
cost is what keeps the work of a run, and therefore its time, steady
from one seed to the next (see README.md). On the 8-puzzle the rounds
also take boards of each Manhattan distance in a fixed proportion, since
at a fixed cost the effort still falls steeply as Manhattan nears it.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

import truth

IDA_BUDGET = 10_000_000  # ample for every p15 instance the generator keeps


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    domain: str
    algorithms: Tuple[str, ...]
    gammas: Tuple[str, ...]
    epsilons: Tuple[str, ...]
    lookaheads: Tuple[int, ...]
    jobs: int
    instances: int        # instances per round (one fold)
    optimal: int          # optimal cost of every instance
    walk: int = 0         # puzzle15: length of the random walk from the goal
    manhattan: int = 0    # puzzle15: Manhattan distance of every instance

    @property
    def size(self) -> Tuple[int, int]:
        return (3, 3) if self.domain == "puzzle8" else (4, 4)

    def specs(self) -> List[Tuple[str, str, str]]:
        """(algorithm, gamma text, epsilon text) as the CLI expands them;
        '' where the algorithm takes no such parameter."""
        out = []
        for alg in self.algorithms:
            if alg in ("gtrap-bt", "gtrap"):
                out.extend((alg, g, "") for g in self.gammas)
            elif alg == "ilrta":
                out.extend((alg, "", e) for e in self.epsilons)
            else:
                out.append((alg, "", ""))
        return out

    def argv(self, cli_seed: int, out_dir: str, korf_file: Optional[str] = None,
             jobs: Optional[int] = None) -> List[str]:
        argv = [
            "--experiment", self.experiment, "--domain", self.domain,
            "--algorithms", ",".join(self.algorithms),
        ]
        if self.gammas:
            argv += ["--gamma", ",".join(self.gammas)]
        if self.epsilons:
            argv += ["--epsilon", ",".join(self.epsilons)]
        argv += [
            "--lookahead", ",".join(str(d) for d in self.lookaheads),
            "--folds", "1", "--instances", str(self.instances),
            "--seed", str(cli_seed),
            "--jobs", str(self.jobs if jobs is None else jobs),
            "--out-dir", out_dir,
        ]
        if korf_file is not None:
            argv += ["--korf-file", korf_file, "--ida-budget", str(IDA_BUDGET)]
        return argv


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("p8-converge-d1", "convergence", "puzzle8",
                 ("gtrap-bt", "gtrap", "lrta", "ilrta"), ("0.2", "0.5", "1.0"),
                 ("0.2", "0.5"), (1,), jobs=1, instances=1, optimal=14),
        Workload("p8-converge-deep", "convergence", "puzzle8",
                 ("gtrap-bt", "gtrap", "lrta", "ilrta"), ("0.5",), ("0.2",),
                 (2, 3), jobs=1, instances=1, optimal=10),
        Workload("p15-memory-j2", "memory", "puzzle15", ("gtrap-bt",), ("0.5",), (),
                 (1, 3), jobs=2, instances=32, optimal=20, walk=24, manhattan=16),
    )
}


@dataclass
class Round:
    """One CLI invocation: its argv, where it writes, and the start board
    of every instance it runs (by instance id)."""

    workload: Workload
    index: int
    cli_seed: int
    out_dir: str
    starts: Dict[int, Tuple[int, ...]]
    korf_file: Optional[str] = None
    jobs: Optional[int] = None
    argv: List[str] = field(init=False)

    def __post_init__(self):
        self.argv = self.workload.argv(self.cli_seed, self.out_dir, self.korf_file, self.jobs)

    def rerun(self, suffix: str, jobs: Optional[int] = None) -> "Round":
        """The same inputs again, written to a sibling directory."""
        return Round(self.workload, self.index, self.cli_seed, self.out_dir + suffix,
                     self.starts, self.korf_file, self.jobs if jobs is None else jobs)

    def to_json(self) -> Dict:
        return {
            "workload": self.workload.name, "index": self.index,
            "out_dir": self.out_dir,
            "starts": {str(k): list(v) for k, v in self.starts.items()},
        }


class RoundSource:
    """Makes round `index` of a workload from the benchmark seed alone.

    puzzle8: the program generates its own boards from the CLI seed, so
    candidate CLI seeds are drawn from the benchmark seed and those whose
    board has the workload's optimal cost are queued by the board's
    Manhattan distance. Round r takes the next board of the distance
    furthest behind its share of all boards of that cost, so every run,
    however long, holds each distance in the same proportion (within one
    board); rounds must therefore be made in order. `board_for_seed`
    returns the board the CLI will generate for a seed and `distances`
    gives optimal costs; both are passed in so the caller decides which
    implementation runs where.

    puzzle15: random walks from the goal are kept when their Manhattan
    distance and optimal cost (by the benchmark's own IDA*) match the
    workload; they are written as a Korf-format file the CLI reads.
    """

    def __init__(self, workload: Workload, seed: int, work_dir: str,
                 board_for_seed: Optional[Callable[[int], Tuple[int, ...]]] = None,
                 distances: Optional[Dict[Tuple[int, ...], int]] = None):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.board_for_seed = board_for_seed
        self.distances = distances
        self.made = 0
        if workload.domain == "puzzle8":
            width = workload.size[0]
            counts = Counter(truth.manhattan(b, width) for b, d in distances.items()
                             if d == workload.optimal)
            total = sum(counts.values())
            self.shares = {m: n / total for m, n in sorted(counts.items())}
            self.taken = dict.fromkeys(self.shares, 0)
            self.queued: Dict[int, List[Tuple[int, Tuple[int, ...]]]] = {m: [] for m in counts}
            self.rng = random.Random(f"{workload.name}/{seed}")

    def make(self, index: int) -> Round:
        wl = self.workload
        if index != self.made:
            raise ValueError(f"round {index} asked for, round {self.made} is next")
        self.made += 1
        out_dir = os.path.join(self.work_dir, f"{wl.name}-{index:04d}")
        if wl.domain == "puzzle8":
            width = wl.size[0]
            m = max(self.shares, key=lambda k: self.shares[k] * (index + 1) - self.taken[k])
            while not self.queued[m]:
                cli_seed = self.rng.getrandbits(40)
                board = self.board_for_seed(cli_seed)
                if self.distances[board] == wl.optimal:
                    self.queued[truth.manhattan(board, width)].append((cli_seed, board))
            cli_seed, board = self.queued[m].pop(0)
            self.taken[m] += 1
            return Round(wl, index, cli_seed, out_dir, {0: board})
        rng = random.Random(f"{wl.name}/{self.seed}/{index}")
        width, height = wl.size
        starts: Dict[int, Tuple[int, ...]] = {}
        while len(starts) < wl.instances:
            board = truth.random_walk(rng, width, height, wl.walk)
            if truth.manhattan(board, width) != wl.manhattan:
                continue
            if truth.ida_star(board, width, height, max_cost=wl.optimal) == wl.optimal:
                starts[len(starts)] = board
        os.makedirs(out_dir, exist_ok=True)
        korf_file = os.path.join(out_dir, "instances.txt")
        with open(korf_file, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# {wl.name} seed {self.seed} round {index}: walks of {wl.walk} moves, "
                     f"Manhattan {wl.manhattan}, optimal cost {wl.optimal}\n")
            for i, board in starts.items():
                fh.write(f"{i} " + " ".join(str(t) for t in board) + "\n")
        return Round(wl, index, rng.getrandbits(40), out_dir, starts, korf_file)


def p8_board_for_seed(harness, template) -> Callable[[int], Tuple[int, ...]]:
    """The fold-0, instance-0 board the CLI generates for a master seed,
    asked of the program's own public instance generator; `template` is
    the workload's parsed ExperimentConfig."""

    def board(cli_seed: int) -> Tuple[int, ...]:
        per_fold = harness.generate_instances(replace(template, master_seed=cli_seed))
        return per_fold[0][0].start.tiles

    return board
