"""Command-line front end.

One invocation runs one experiment family end to end: instance setup,
agent runs (optionally across worker processes), ground-truth lookup,
aggregation, CSV and SVG emission, and a JSON manifest capturing every
knob that influenced the run.

This module parses: it turns flags and config-file text into typed values
and passes on only the keys that were given. ExperimentConfig holds the
defaults, validates the result and expands its algorithm x gamma x
epsilon x lookahead grid; the manifest is written from its fields. Two
defaults depend on another key and are set here: first-trial adds rta to
the default algorithms, and puzzle15 runs one fold.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

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


def _parse_list(text: str, what: str, convert: type = float) -> Tuple:
    """Comma-separated numbers; convert is float or int."""
    noun = "a number" if convert is float else "an integer"
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            out.append(convert(tok))
        except ValueError:
            raise ConfigError(f"{what}: {tok!r} is not {noun}") from None
    if not out:
        raise ConfigError(f"{what}: no values given")
    return tuple(out)


def read_config_file(path: str) -> Dict[str, str]:
    """key=value lines; blank lines and '#' comments are skipped."""
    values: Dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    return values


_CONFIG_KEYS = (
    "experiment", "domain", "algorithms", "gamma", "epsilon", "lookahead",
    "folds", "instances", "seed", "move-limit", "memory-limit", "korf-file",
    "out-dir", "jobs", "ida-budget",
)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lrts",
        description="Learning real-time search benchmarks on sliding-tile puzzles.",
    )
    p.add_argument("--experiment", choices=EXPERIMENTS)
    p.add_argument("--domain", choices=sorted(DOMAINS))
    p.add_argument("--algorithms", help="comma list: gtrap-bt,gtrap,lrta,rta,ilrta")
    p.add_argument("--gamma", help="comma list of discounts in (0,1], default "
                   + ",".join(map(str, ExperimentConfig.gammas)))
    p.add_argument("--epsilon", help="comma list of table weights - 1, default "
                   + ",".join(map(str, ExperimentConfig.epsilons)))
    p.add_argument("--lookahead", action="append",
                   help="lookahead depth(s); repeatable or comma-separated")
    p.add_argument("--folds", type=int)
    p.add_argument("--instances", type=int)
    p.add_argument("--seed", type=int, help="master seed, default 0")
    p.add_argument("--move-limit", type=int)
    p.add_argument("--memory-limit", type=int)
    p.add_argument("--korf-file", help="15-puzzle instance file (index + 16 tiles per line)")
    p.add_argument("--out-dir", help=f"output directory (default ${OUT_DIR_ENV} or ./lrts-out)")
    p.add_argument("--jobs", type=int, help="worker processes, default 1")
    p.add_argument("--ida-budget", type=int,
                   help="node budget for 15-puzzle ground-truth search; 0 disables")
    p.add_argument("--config", help="key=value file; explicit flags win")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    return p


# config key -> ExperimentConfig field, for the keys that hold one integer
_INT_KEYS = {
    "folds": "folds", "instances": "instances", "seed": "master_seed",
    "move-limit": "move_limit", "memory-limit": "memory_limit", "jobs": "jobs",
    "ida-budget": "ida_budget",
}


def parse_config(argv: Sequence[str]) -> ExperimentConfig:
    """Merge config file and flags (flags strongest) into an
    ExperimentConfig, which fills in the defaults and validates. Raises
    ConfigError on semantic problems, whether found while parsing (a
    malformed number, an unknown key or algorithm) or by ExperimentConfig;
    argparse handles malformed flags with a usage message and exit 2.
    """
    args = _build_parser().parse_args(argv)

    merged: Dict[str, str] = {}
    if args.config:
        file_values = read_config_file(args.config)
        for key in file_values:
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
        merged.update(file_values)

    for key in _CONFIG_KEYS:
        value = getattr(args, key.replace("-", "_"))
        if key == "lookahead" and value:
            value = ",".join(value)
        if value is not None:
            merged[key] = value

    experiment = merged.get("experiment")
    if not experiment:
        raise ConfigError("--experiment is required "
                          f"(one of: {', '.join(EXPERIMENTS)})")
    kwargs: Dict[str, object] = {"experiment": experiment}
    if "domain" in merged:
        kwargs["domain"] = merged["domain"]

    if "algorithms" in merged:
        valid = {a.value: a for a in Algorithm}
        algorithms = []
        for name in filter(None, (t.strip() for t in merged["algorithms"].split(","))):
            if name not in valid:
                raise ConfigError(
                    f"unknown algorithm {name!r} (valid: {', '.join(sorted(valid))})"
                )
            algorithms.append(valid[name])
        kwargs["algorithms"] = tuple(algorithms)
    elif experiment == "first-trial":
        # the field's default algorithms, plus rta, which only runs here
        kwargs["algorithms"] = ExperimentConfig.algorithms + (Algorithm.RTA,)
    for key, name, convert in (("gamma", "gammas", float), ("epsilon", "epsilons", float),
                               ("lookahead", "lookaheads", int)):
        if key in merged:
            kwargs[name] = _parse_list(merged[key], key, convert)
    for key, name in _INT_KEYS.items():
        if key in merged:
            try:
                kwargs[name] = int(merged[key])
            except ValueError:
                raise ConfigError(f"{key}: {merged[key]!r} is not an integer") from None
    if kwargs.get("domain") == "puzzle15" and "folds" not in kwargs:
        kwargs["folds"] = 1
    if merged.get("korf-file"):
        kwargs["korf_path"] = merged["korf-file"]
    out_dir = merged.get("out-dir") or os.environ.get(OUT_DIR_ENV)
    if out_dir:
        kwargs["out_dir"] = out_dir

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
