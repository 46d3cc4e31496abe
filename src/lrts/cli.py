"""Command-line front end.

One invocation runs one experiment family end to end: instance setup,
agent runs (optionally across worker processes), ground-truth lookup,
aggregation, CSV and SVG emission, and a JSON manifest capturing every
knob that influenced the run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__
from .agents import Algorithm
from .harness import (
    DEFAULT_IDA_BUDGET,
    DEFAULT_LOOKAHEADS,
    DEFAULT_MEMORY_LIMIT,
    DEFAULT_MOVE_LIMIT,
    DOMAINS,
    EXPERIMENTS,
    RUN_COLUMNS,
    SUMMARY_COLUMNS,
    AlgoSpec,
    ExperimentConfig,
    run_experiment,
    write_csv,
)
from .plots import emit_plots

OUT_DIR_ENV = "LRTS_OUT_DIR"

_GAMMA_ALGOS = (Algorithm.GTRAP_BT, Algorithm.GTRAP)
_DEFAULT_GAMMAS = "0.2,0.5,1.0"
_DEFAULT_EPSILONS = "0.2,0.5"


class ConfigError(ValueError):
    """A semantically invalid configuration (unknown algorithm, gamma out
    of range, missing instance file, ...)."""


@dataclass
class RunManifest:
    """Everything needed to reproduce a run byte for byte, plus the output
    conventions a reader needs to interpret the CSVs."""

    tool_version: str
    experiment: str
    domain: str
    algorithms: List[str]
    lookaheads: List[int]
    folds: int
    instances: int
    master_seed: int
    move_limit: int
    memory_limit: int
    ida_budget: int
    korf_file: Optional[str]
    jobs: int
    out_dir: str
    seed_rule: str
    conventions: Dict[str, str]
    outputs: List[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


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
    p.add_argument("--gamma", help=f"comma list of discounts in (0,1], default {_DEFAULT_GAMMAS}")
    p.add_argument("--epsilon", help=f"comma list of table weights - 1, default {_DEFAULT_EPSILONS}")
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


def parse_config(argv: Sequence[str]) -> ExperimentConfig:
    """Merge defaults, config file, and flags (flags strongest) into a
    validated ExperimentConfig. Raises ConfigError on semantic problems;
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

    experiment = str(merged.get("experiment") or "")
    if not experiment:
        raise ConfigError("--experiment is required "
                          f"(one of: {', '.join(EXPERIMENTS)})")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")

    domain = str(merged.get("domain") or "puzzle8")
    if domain not in DOMAINS:
        raise ConfigError(f"unknown domain {domain!r} (puzzle8 or puzzle15)")

    default_algos = "gtrap-bt,gtrap,lrta,ilrta" + (",rta" if experiment == "first-trial" else "")
    algo_text = str(merged.get("algorithms") or default_algos)
    algo_names = [t.strip() for t in algo_text.split(",") if t.strip()]
    if not algo_names:
        raise ConfigError("algorithms: no values given")
    algorithms: List[Algorithm] = []
    valid = {a.value: a for a in Algorithm}
    for name in algo_names:
        if name not in valid:
            raise ConfigError(
                f"unknown algorithm {name!r} (valid: {', '.join(sorted(valid))})"
            )
        algorithms.append(valid[name])

    gammas = _parse_list(str(merged.get("gamma") or _DEFAULT_GAMMAS), "gamma")
    for g in gammas:
        if not 0 < g <= 1:
            raise ConfigError(f"gamma must be in (0, 1], got {g:g}")
    epsilons = _parse_list(str(merged.get("epsilon") or _DEFAULT_EPSILONS), "epsilon")
    for e in epsilons:
        if e < 0:
            raise ConfigError(f"epsilon must be >= 0, got {e:g}")

    lookahead_text = merged.get("lookahead")
    if lookahead_text is None:
        lookaheads = DEFAULT_LOOKAHEADS
    else:
        lookaheads = _parse_list(str(lookahead_text), "lookahead", int)
        for d in lookaheads:
            if d < 1:
                raise ConfigError(f"lookahead must be >= 1, got {d}")

    def int_of(key: str, default: int, minimum: int) -> int:
        raw = merged.get(key)
        if raw is None:
            return default
        try:
            value = int(raw)
        except (TypeError, ValueError):
            raise ConfigError(f"{key}: {raw!r} is not an integer") from None
        if value < minimum:
            raise ConfigError(f"{key} must be >= {minimum}, got {value}")
        return value

    folds = int_of("folds", 10 if domain == "puzzle8" else 1, 1)
    instances = int_of("instances", 100, 1)
    seed = int_of("seed", 0, -(10**18))
    move_limit = int_of("move-limit", DEFAULT_MOVE_LIMIT, 1)
    memory_limit = int_of("memory-limit", DEFAULT_MEMORY_LIMIT, 1)
    jobs = int_of("jobs", 1, 1)
    ida_budget = int_of("ida-budget", DEFAULT_IDA_BUDGET, 0)

    korf_file = merged.get("korf-file")
    if domain == "puzzle15":
        if not korf_file:
            raise ConfigError("puzzle15 requires --korf-file")
        if not os.path.isfile(str(korf_file)):
            raise ConfigError(f"instance file not found: {korf_file}")
    out_dir = str(merged.get("out-dir") or os.environ.get(OUT_DIR_ENV) or "lrts-out")

    specs: List[AlgoSpec] = []
    for alg in algorithms:
        if alg in _GAMMA_ALGOS:
            specs.extend(AlgoSpec(alg, gamma=g) for g in gammas)
        elif alg is Algorithm.ILRTA:
            specs.extend(AlgoSpec(alg, epsilon=e) for e in epsilons)
        else:
            specs.append(AlgoSpec(alg))

    try:
        return ExperimentConfig(
            experiment=experiment,
            domain=domain,
            specs=tuple(specs),
            lookaheads=tuple(lookaheads),
            folds=folds,
            instances=instances,
            master_seed=seed,
            move_limit=move_limit,
            memory_limit=memory_limit,
            korf_path=str(korf_file) if korf_file else None,
            out_dir=out_dir,
            jobs=jobs,
            ida_budget=ida_budget,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _progress_printer(total: int):
    tick = max(1, total // 20)

    def report(done: int, _total: int) -> None:
        if done % tick == 0 or done == total:
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
        expected = (len(config.specs) * len(config.lookaheads)
                    * config.folds * config.instances)
        print(f"{config.experiment} on {config.domain}: {expected} runs",
              file=sys.stderr)
        rows, summary = run_experiment(config, progress=_progress_printer(expected))

        runs_path = os.path.join(config.out_dir, f"runs_{config.experiment}.csv")
        summary_path = os.path.join(config.out_dir, f"summary_{config.experiment}.csv")
        write_csv(runs_path, RUN_COLUMNS, rows)
        write_csv(summary_path, SUMMARY_COLUMNS, summary)
        outputs = [runs_path, summary_path]
        if summary:
            outputs.extend(emit_plots(summary, config.out_dir, config.experiment))
        else:
            print("warning: no summary rows, skipping plots", file=sys.stderr)

        manifest = RunManifest(
            tool_version=__version__,
            experiment=config.experiment,
            domain=config.domain,
            algorithms=[s.label() for s in config.specs],
            lookaheads=list(config.lookaheads),
            folds=config.folds,
            instances=config.instances,
            master_seed=config.master_seed,
            move_limit=config.move_limit,
            memory_limit=config.memory_limit,
            ida_budget=config.ida_budget,
            korf_file=config.korf_path,
            jobs=config.jobs,
            out_dir=config.out_dir,
            seed_rule=_SEED_RULE,
            conventions=dict(_CONVENTIONS),
            outputs=[os.path.basename(p) for p in outputs],
        )
        manifest_path = os.path.join(config.out_dir, "manifest.json")
        with open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(manifest.to_json())
        outputs.append(manifest_path)

        for path in outputs:
            print(path)
        return 0 if len(rows) == expected else 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
