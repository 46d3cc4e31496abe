"""Command-line front end.

One invocation runs one experiment family end to end: instance setup,
agent runs (optionally across worker processes), ground-truth lookup,
aggregation, CSV and SVG emission, and a JSON manifest capturing every
knob that influenced the run.

This module parses: one table, _KEYS, gives each config key its
ExperimentConfig field, the converter of its text and the options of its
flag. The table builds the flags, and one converter reads a key's text
whether it came from a flag or from a config-file line; only the keys
that were given are passed on. ExperimentConfig holds every default,
settles the form of every value, validates the result and expands its
algorithm x gamma x epsilon x lookahead grid; the manifest is written from
its fields.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import MISSING, dataclass, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import __version__
from .agents import Algorithm
from .harness import (
    DOMAINS,
    EXPERIMENTS,
    RUN_COLUMNS,
    SUMMARY_COLUMNS,
    ExperimentConfig,
    run_experiment,
    write_csv,
)
from .plots import emit_plots

OUT_DIR_ENV = "LRTS_OUT_DIR"


class ConfigError(ValueError):
    """A semantically invalid configuration (unknown algorithm, gamma out
    of range, missing instance file, ...)."""


_SEED_RULE = (
    "run seed = splitmix64 chain over (master_seed xor fnv1a64(tag), fold, "
    "instance); tag = 'algorithm|d=..|g=..|e=..'; instance boards use the "
    "algorithm-independent tag 'instance'"
)

_CONVENTIONS = {
    "convergence": "first trial finishing with zero value-changing table writes",
    "convergence_cost": "travel cost summed over trials 1..N, N = convergence trial",
    "stability": "IAE/ISE/ITAE/ITSE/SOD over trial costs 1..N against the "
                 "optimal cost; SOD sums positive cost jumps between "
                 "consecutive trials",
    "final_ratio_pct": "final trial cost / optimal cost * 100; empty when no "
                       "oracle value is within budget, the optimal cost is 0, "
                       "or the last trial was cut off by the move limit",
    "rta_lookahead": "each top-level action is scored within its own radius-"
                     "(lookahead-1) ball that excludes the current state; the "
                     "runner-up score is stored at the current state",
    "rta_single_action_store": "10^9 stands in for an infinite second-best",
    "limits": "move limit applies per trial; the stored-value limit is "
              "checked between trials",
}


@dataclass
class RunManifest:
    """Everything needed to reproduce a run byte for byte, plus the output
    conventions a reader needs to interpret the CSVs."""

    config: ExperimentConfig
    outputs: List[str]

    def to_json(self) -> str:
        """Every config field under its own name, except korf_path (written
        as "korf_file"); an algorithm is written as its name."""
        data = {f.name: getattr(self.config, f.name) for f in fields(self.config)}
        data["korf_file"] = data.pop("korf_path")
        data.update(tool_version=__version__, seed_rule=_SEED_RULE,
                    conventions=_CONVENTIONS, outputs=self.outputs)
        return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _list(convert: Callable[[str], object]) -> Callable[[str], Tuple]:
    """A converter of comma-separated text; empty items are skipped."""
    return lambda text: tuple(convert(t) for t in text.split(",") if t.strip())


# config key -> (ExperimentConfig field, converter of the key's text, options
# of its flag --key). The same converter reads a flag and a config-file line;
# ExperimentConfig holds the defaults and validates names and ranges.
_KEYS: Dict[str, Tuple[str, Callable[[str], object], Dict[str, object]]] = {
    "experiment": ("experiment", str, {"help": "required; one of: " + ", ".join(EXPERIMENTS)}),
    "domain": ("domain", str, {"help": f"one of: {', '.join(DOMAINS)}; "
                                       f"default {ExperimentConfig.domain}"}),
    "algorithms": ("algorithms", _list(str.strip),
                   {"help": "comma list: " + ",".join(a.value for a in Algorithm)}),
    "gamma": ("gammas", _list(float), {
        "help": "comma list of discounts in (0,1], default "
                + ",".join(map(str, ExperimentConfig.gammas))}),
    "epsilon": ("epsilons", _list(float), {
        "help": "comma list of table weights - 1, default "
                + ",".join(map(str, ExperimentConfig.epsilons))}),
    "lookahead": ("lookaheads", _list(int), {
        "action": "append", "help": "lookahead depth(s); repeatable or comma-separated"}),
    "folds": ("folds", int, {}),
    "instances": ("instances", int, {}),
    "seed": ("master_seed", int, {"help": f"master seed, default {ExperimentConfig.master_seed}"}),
    "move-limit": ("move_limit", int, {}),
    "memory-limit": ("memory_limit", int, {}),
    "korf-file": ("korf_path", str,
                  {"help": "15-puzzle instance file (index + 16 tiles per line)"}),
    "out-dir": ("out_dir", str, {"help": f"output directory (default ${OUT_DIR_ENV} "
                                         f"or ./{ExperimentConfig.out_dir})"}),
    "jobs": ("jobs", int, {"help": f"worker processes, default {ExperimentConfig.jobs}"}),
    "ida-budget": ("ida_budget", int,
                   {"help": "node budget for 15-puzzle ground-truth search; 0 disables"}),
}


def read_config_file(path: str) -> Dict[str, str]:
    """key=value lines, each key of _KEYS at most once; blank lines and '#'
    comments are skipped."""
    values: Dict[str, str] = {}
    lines: Dict[str, int] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in _KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
                if key in lines:
                    raise ConfigError(f"{path}:{lineno}: {key} repeats line {lines[key]}")
                lines[key] = lineno
                values[key] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    return values


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lrts",
        description="Learning real-time search benchmarks on sliding-tile puzzles.",
    )
    for key, (_, _, options) in _KEYS.items():
        p.add_argument(f"--{key}", **options)
    p.add_argument("--config", help="key=value file with the keys above; explicit flags win")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    return p


def parse_config(argv: Sequence[str]) -> ExperimentConfig:
    """Merge config file and flags (flags strongest) into an
    ExperimentConfig, which fills in the defaults and validates. Raises
    ConfigError on semantic problems, whether found while reading (a
    malformed number, an unknown or repeated key) or by ExperimentConfig;
    argparse handles an unknown flag with a usage message and exit 2.
    """
    args = vars(_build_parser().parse_args(argv))
    texts = read_config_file(args["config"]) if args["config"] else {}
    for key in _KEYS:
        given = args[key.replace("-", "_")]
        if given is not None:
            texts[key] = ",".join(given) if isinstance(given, list) else given

    env_out_dir = os.environ.get(OUT_DIR_ENV)
    kwargs: Dict[str, object] = {"out_dir": env_out_dir} if env_out_dir else {}
    for key, text in texts.items():
        name, convert, _ = _KEYS[key]
        try:
            kwargs[name] = convert(text)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from None
    for f in fields(ExperimentConfig):
        if f.default is MISSING and f.name not in kwargs:
            raise ConfigError(f"{f.name} is required (see --help)")

    try:
        return ExperimentConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _progress_printer(config: ExperimentConfig):
    """A run_experiment progress callback: the run count once, from its
    (0, total) call, then about 20 "run i/total" lines."""

    def report(done: int, total: int) -> None:
        if done == 0:
            print(f"{config.experiment} on {config.domain}: {total} runs",
                  file=sys.stderr, flush=True)
        elif done % max(1, total // 20) == 0 or done == total:
            print(f"  run {done}/{total}", file=sys.stderr, flush=True)

    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        config = parse_config(list(argv) if argv is not None else sys.argv[1:])
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        os.makedirs(config.out_dir, exist_ok=True)
        rows, summary = run_experiment(config, progress=_progress_printer(config))

        runs_path = os.path.join(config.out_dir, f"runs_{config.experiment}.csv")
        summary_path = os.path.join(config.out_dir, f"summary_{config.experiment}.csv")
        write_csv(runs_path, RUN_COLUMNS, rows)
        write_csv(summary_path, SUMMARY_COLUMNS, summary)
        outputs = [runs_path, summary_path]
        if summary:
            outputs.extend(emit_plots(summary, config.out_dir, config.experiment))
        else:
            print("warning: no summary rows, skipping plots", file=sys.stderr)

        manifest = RunManifest(config, [os.path.basename(p) for p in outputs])
        manifest_path = os.path.join(config.out_dir, "manifest.json")
        with open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(manifest.to_json())
        outputs.append(manifest_path)

        for path in outputs:
            print(path)
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
