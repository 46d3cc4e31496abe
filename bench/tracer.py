"""Call counts and self time per module for a traced run.

The wrappers are installed on class and module attributes of `lrts` from
here, around calls into each layer, and removed afterwards; the program
itself carries no tracing. A span's self time is its duration minus the
time of the wrapped calls made inside it. While installed, the tracer
also keeps each run's final-trial action list for replay.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple

MODULES = ("cli", "harness", "agents", "core", "tiles", "oracle", "output")


class Tracer:
    def __init__(self):
        self.calls: Dict[str, int] = {m: 0 for m in MODULES}
        self.self_s: Dict[str, float] = {m: 0.0 for m in MODULES}
        self.functions: Dict[str, List[float]] = {}  # "module.name" -> [calls, self_s]
        self.moves = 0            # TilePuzzle.apply calls
        self.expansions = 0       # TilePuzzle.successors calls
        self.generated = 0        # successor states those calls returned
        self.finals: List[Tuple[Tuple[int, ...], List[int], float]] = []
        self.results: List[Tuple[list, list]] = []  # (rows, summary) per CLI call
        self._stack: List[List[float]] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _enter(self) -> Tuple[List[float], float]:
        frame = [0.0]
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _exit(self, module: str, stat: List[float], frame: List[float], t0: float) -> None:
        dt = time.perf_counter() - t0
        self._stack.pop()
        self.self_s[module] += dt - frame[0]
        stat[1] += dt - frame[0]
        if self._stack:
            self._stack[-1][0] += dt

    def _stat(self, module: str, fn: Callable) -> List[float]:
        return self.functions.setdefault(f"{module}.{fn.__qualname__}", [0, 0.0])

    def wrap(self, module: str, fn: Callable, after: Callable = None) -> Callable:
        tracer = self
        stat = self._stat(module, fn)

        def traced(*args, **kwargs):
            tracer.calls[module] += 1
            stat[0] += 1
            frame, t0 = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(module, stat, frame, t0)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, module: str, fn: Callable) -> Callable:
        """Each next() on the generator is one span of `module`."""
        tracer = self
        stat = self._stat(module, fn)

        def traced(*args, **kwargs):
            tracer.calls[module] += 1
            stat[0] += 1
            inner = fn(*args, **kwargs)
            while True:
                frame, t0 = tracer._enter()
                try:
                    layer = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._exit(module, stat, frame, t0)
                yield layer

        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, owner, name: str, replacement) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def install(self) -> None:
        import lrts.agents
        import lrts.cli
        import lrts.harness
        from lrts.core import HeuristicTable
        from lrts.tiles import TilePuzzle

        def count_apply(args, result):
            self.moves += 1

        def count_successors(args, result):
            self.expansions += 1
            self.generated += len(result)

        def keep_final(args, record):
            agent, problem = args[0], args[1]
            self.finals.append((problem.initial_state, list(agent.trial_actions),
                                record.final_cost))

        def keep_result(args, result):
            self.results.append(result)

        self._patch(TilePuzzle, "successors",
                    self.wrap("tiles", TilePuzzle.successors, count_successors))
        self._patch(TilePuzzle, "apply", self.wrap("tiles", TilePuzzle.apply, count_apply))
        self._patch(TilePuzzle, "manhattan", self.wrap("tiles", TilePuzzle.manhattan))
        self._patch(HeuristicTable, "lookup", self.wrap("core", HeuristicTable.lookup))
        self._patch(HeuristicTable, "write", self.wrap("core", HeuristicTable.write))
        self._patch(lrts.agents, "iter_layers",
                    self.wrap_generator("core", lrts.agents.iter_layers))
        h = lrts.harness
        self._patch(h, "step", self.wrap("agents", h.step))
        self._patch(h, "run_trial", self.wrap("harness", h.run_trial))
        self._patch(h, "run_until_convergence",
                    self.wrap("harness", h.run_until_convergence, keep_final))
        self._patch(h, "aggregate", self.wrap("harness", h.aggregate))
        self._patch(h, "full_bfs_distances", self.wrap("oracle", h.full_bfs_distances))
        self._patch(h, "ida_star_optimal", self.wrap("oracle", h.ida_star_optimal))
        c = lrts.cli
        self._patch(c, "run_experiment", self.wrap("harness", c.run_experiment, keep_result))
        self._patch(c, "write_csv", self.wrap("output", c.write_csv))
        self._patch(c, "emit_plots", self.wrap("output", c.emit_plots))
        self._patch(c.RunManifest, "to_json", self.wrap("output", c.RunManifest.to_json))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def main(self, cli_main: Callable) -> Callable:
        """cli.main as the root span: its self time is whatever the CLI
        does outside the wrapped layers."""
        return self.wrap("cli", cli_main)
