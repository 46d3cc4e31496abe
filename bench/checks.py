"""Correctness checks on the CSVs one CLI invocation writes.

Every check is an independent computation or a property the method must
have; none compares with a stored copy of earlier output. A row that
breaks one counts its run as failed. The ground truth comes from
`truth.py`, never from `lrts.oracle`.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import truth

TRAP_ALGORITHMS = ("gtrap-bt", "gtrap")
MEAN_METRICS = (
    "convergence_cost", "final_cost", "final_ratio_pct", "stored_values",
    "iae", "ise", "itae", "itse", "sod",
)
GROUP_COLUMNS = ("experiment", "algorithm", "param_gamma", "param_epsilon", "lookahead")

Key = Tuple[str, str, str, int, int, int]  # algorithm, gamma, epsilon, lookahead, fold, instance


def read_csv(path: str) -> List[Dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _num(text: Optional[str]) -> Optional[float]:
    if text is None or text == "":
        return None
    return float(text)


def _int(text: Optional[str]) -> Optional[int]:
    """An integer-valued cell as int; None when empty or not integral."""
    v = _num(text)
    if v is None or v != int(v):
        return None
    return int(v)


def _param(text: str) -> str:
    """Canonical spelling of a gamma/epsilon cell ('' when absent)."""
    return "" if text == "" else repr(float(text))


def row_key(row: Dict[str, str]) -> Key:
    return (row["algorithm"], _param(row["param_gamma"]), _param(row["param_epsilon"]),
            int(row["lookahead"]), int(row["fold"]), int(row["instance_id"]))


def expected_keys(specs: Sequence[Tuple[str, str, str]], lookaheads: Sequence[int],
                  instance_ids: Iterable[int], folds: int = 1) -> List[Key]:
    ids = list(instance_ids)
    return [
        (alg, _param(g), _param(e), d, fold, i)
        for alg, g, e in specs for d in lookaheads
        for fold in range(folds) for i in ids
    ]


class Truth:
    """What the benchmark knows independently about one instance."""

    def __init__(self, start: Sequence[int], width: int, height: int,
                 optimal: Optional[int] = None, walk: Optional[int] = None):
        self.start = tuple(start)
        self.width = width
        self.height = height
        self.optimal = optimal   # exact optimal cost when the benchmark computed it
        self.walk = walk         # length of the generating walk, puzzle15


def row_violations(row: Dict[str, str], experiment: str, fact: Truth) -> List[str]:
    """Every property of one run that does not hold."""
    bad: List[str] = []
    if row["experiment"] != experiment:
        bad.append(f"experiment {row['experiment']!r}")
    if row["limit_hit"] != "":
        bad.append(f"limit hit: {row['limit_hit']}")
    converged = _int(row["converged_at"])
    if converged is None or converged < 1:
        bad.append("did not converge")
    optimal = _int(row["optimal_cost"])
    final = _int(row["final_cost"])
    total = _int(row["convergence_cost"])
    if optimal is None:
        return bad + ["optimal_cost missing or not an integer"]
    if fact.optimal is not None and optimal != fact.optimal:
        bad.append(f"optimal_cost {optimal} != ground truth {fact.optimal}")
    if fact.walk is not None:
        md = truth.manhattan(fact.start, fact.width)
        if not md <= optimal <= fact.walk:
            bad.append(f"optimal_cost {optimal} outside [Manhattan {md}, walk {fact.walk}]")
        if (optimal - fact.walk) % 2:
            bad.append(f"optimal_cost {optimal} has the wrong parity for a {fact.walk}-move walk")
    if final is None:
        return bad + ["final_cost missing or not an integer"]
    if total is None or total < final:
        bad.append(f"convergence_cost {row['convergence_cost']!r} below final_cost {final}")
    if final < optimal:
        bad.append(f"final_cost {final} below optimal {optimal}")
    if (final - optimal) % 2:
        bad.append(f"final_cost {final} and optimal {optimal} differ in parity")
    alg = row["algorithm"]
    if alg in TRAP_ALGORITHMS and converged is not None:
        gamma = Fraction(row["param_gamma"])
        if final * gamma > optimal:
            bad.append(f"final_cost {final} above optimal/gamma = {optimal}/{gamma}")
    elif alg == "lrta" and final != optimal:
        bad.append(f"lrta final_cost {final} != optimal {optimal}")
    elif alg == "ilrta":
        eps = Fraction(row["param_epsilon"])
        if final > (1 + eps) * optimal:
            bad.append(f"final_cost {final} above (1+{eps})*{optimal}")
    return bad


def _mean_std(values: List[float]) -> Tuple[Optional[float], Optional[float]]:
    if not values:
        return None, None
    mean = math.fsum(values) / len(values)
    if len(values) == 1:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, math.sqrt(var)


def expected_summary(rows: List[Dict[str, str]]) -> Dict[Tuple[str, ...], Dict[str, Optional[float]]]:
    """The summary recomputed from the runs CSV: fold means first, then the
    mean and sample standard deviation across folds."""
    groups: Dict[Tuple[str, ...], List[Dict[str, str]]] = {}
    for row in rows:
        groups.setdefault(tuple(row[c] for c in GROUP_COLUMNS), []).append(row)
    out = {}
    for key, rs in groups.items():
        folds = sorted({int(r["fold"]) for r in rs})
        s: Dict[str, Optional[float]] = {"folds": float(len(folds)), "runs": float(len(rs))}
        conv = [float(sum(1 for r in rs if int(r["fold"]) == f and r["converged_at"] != ""))
                for f in folds]
        s["converged_mean"], s["converged_std"] = _mean_std(conv)
        for metric in MEAN_METRICS:
            by_fold: Dict[int, List[float]] = {}
            for r in rs:
                v = _num(r[metric])
                if v is not None:
                    by_fold.setdefault(int(r["fold"]), []).append(v)
            fold_means = [math.fsum(by_fold[f]) / len(by_fold[f]) for f in sorted(by_fold)]
            s[f"mean_{metric}"], s[f"std_{metric}"] = _mean_std(fold_means)
        s["ratio_coverage"] = sum(1 for r in rs if r["final_ratio_pct"] != "") / len(rs)
        out[key] = s
    return out


def _close(a: Optional[float], b: Optional[float]) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def summary_mismatches(rows: List[Dict[str, str]], summary: List[Dict[str, str]]) -> Dict[Tuple[str, ...], List[str]]:
    """Groups whose summary row disagrees with the recomputation (or is
    missing or duplicated), with what disagrees."""
    expected = expected_summary(rows)
    seen: Dict[Tuple[str, ...], int] = {}
    bad: Dict[Tuple[str, ...], List[str]] = {}
    for srow in summary:
        key = tuple(srow[c] for c in GROUP_COLUMNS)
        seen[key] = seen.get(key, 0) + 1
        want = expected.get(key)
        if want is None:
            bad.setdefault(key, []).append("summary group has no runs")
            continue
        for col, value in want.items():
            if not _close(_num(srow.get(col)), value):
                bad.setdefault(key, []).append(f"{col}: {srow.get(col)!r} != {value!r}")
    for key in expected:
        if seen.get(key, 0) != 1:
            bad.setdefault(key, []).append(f"{seen.get(key, 0)} summary rows")
    return bad


class RoundResult:
    """The outcome of checking one CLI invocation."""

    def __init__(self, attempted: int):
        self.attempted = attempted
        self.failed_keys: Dict[Key, List[str]] = {}
        self.moves = 0
        self.rows: List[Dict[str, str]] = []
        self.errors: List[str] = []  # problems no single expected run owns

    @property
    def failed(self) -> int:
        return len(self.failed_keys)

    def fail(self, key: Key, reason: str) -> None:
        self.failed_keys.setdefault(key, []).append(reason)


def check_round(runs_csv: str, summary_csv: str, experiment: str, expected: List[Key],
                facts: Dict[Tuple[int, int], Truth]) -> RoundResult:
    """Check one invocation's runs and summary CSVs. `facts` is keyed by
    (fold, instance_id). Each expected run must appear exactly once and
    satisfy every row property; a group whose summary disagrees with the
    recomputation fails all of its runs."""
    result = RoundResult(len(expected))
    wanted = set(expected)
    try:
        rows = read_csv(runs_csv)
        summary = read_csv(summary_csv)
    except (OSError, csv.Error, KeyError) as exc:
        for key in expected:
            result.fail(key, f"unreadable output: {exc}")
        return result
    result.rows = rows
    counts: Dict[Key, int] = {}
    for row in rows:
        try:
            key = row_key(row)
        except (KeyError, ValueError) as exc:
            result.errors.append(f"{runs_csv}: malformed row {row!r}: {exc}")
            continue
        counts[key] = counts.get(key, 0) + 1
        if key not in wanted:
            result.errors.append(f"{runs_csv}: run {key} was not requested")
            continue
        if counts[key] > 1:
            result.fail(key, "run appears more than once")
            continue
        for reason in row_violations(row, experiment, facts[(key[4], key[5])]):
            result.fail(key, reason)
        moves = _int(row["convergence_cost"])
        result.moves += moves or 0
    for key in expected:
        if key not in counts:
            result.fail(key, "run missing from the CSV")
    mismatched = summary_mismatches(rows, summary)
    groups = {tuple(row[c] for c in GROUP_COLUMNS) for row in rows}
    for group, reasons in mismatched.items():
        if group not in groups:
            result.errors.append(f"{summary_csv}: {group}: " + "; ".join(reasons))
    for row in rows:
        group = tuple(row[c] for c in GROUP_COLUMNS)
        if group in mismatched:
            key = row_key(row)
            if key in wanted:
                result.fail(key, "summary: " + "; ".join(mismatched[group]))
    return result
