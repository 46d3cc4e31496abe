"""Deterministic SVG bar charts for experiment summaries.

Charts are rendered directly to SVG text with fixed-precision coordinates,
so regenerating a plot from the same summary yields the same bytes.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

Bar = Tuple[str, float, Optional[float]]  # label, value, std (error bar)

_W, _H = 960, 480
_LEFT, _RIGHT, _TOP, _BOTTOM = 80, 24, 56, 120
_TICKS = 5


def _px(v: float) -> str:
    return f"{v:.2f}"


def _sig(v: float) -> str:
    return f"{v:.4g}"


def bar_chart_svg(title: str, ylabel: str, bars: Sequence[Bar]) -> str:
    """A single grouped bar chart; bar heights are linear in value."""
    if not bars:
        raise ValueError("no bars to draw")
    top = max(v + (s or 0.0) for _, v, s in bars)
    if top <= 0:
        top = 1.0
    top *= 1.05
    plot_w = _W - _LEFT - _RIGHT
    plot_h = _H - _TOP - _BOTTOM
    n = len(bars)
    slot = plot_w / n
    bar_w = slot * 0.6

    def y_of(value: float) -> float:
        return _TOP + plot_h * (1 - value / top)

    parts: List[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif">'
    )
    parts.append(f'<rect width="{_W}" height="{_H}" fill="white"/>')
    parts.append(
        f'<text x="{_px(_W / 2)}" y="28" text-anchor="middle" '
        f'font-size="18">{title}</text>'
    )
    parts.append(
        f'<text x="20" y="{_px(_TOP + plot_h / 2)}" text-anchor="middle" '
        f'font-size="13" transform="rotate(-90 20 {_px(_TOP + plot_h / 2)})">'
        f'{ylabel}</text>'
    )
    # axes and horizontal grid
    for i in range(_TICKS + 1):
        tv = top * i / _TICKS
        ty = y_of(tv)
        parts.append(
            f'<line x1="{_LEFT}" y1="{_px(ty)}" x2="{_W - _RIGHT}" y2="{_px(ty)}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_LEFT - 8}" y="{_px(ty + 4)}" text-anchor="end" '
            f'font-size="11">{_sig(tv)}</text>'
        )
    parts.append(
        f'<line x1="{_LEFT}" y1="{_TOP}" x2="{_LEFT}" y2="{_H - _BOTTOM}" '
        f'stroke="#333333" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_LEFT}" y1="{_H - _BOTTOM}" x2="{_W - _RIGHT}" '
        f'y2="{_H - _BOTTOM}" stroke="#333333" stroke-width="1"/>'
    )
    for i, (label, value, std) in enumerate(bars):
        x = _LEFT + slot * i + (slot - bar_w) / 2
        y = y_of(value)
        parts.append(
            f'<rect x="{_px(x)}" y="{_px(y)}" width="{_px(bar_w)}" '
            f'height="{_px(_H - _BOTTOM - y)}" fill="#4878a8"/>'
        )
        if std:
            cx = x + bar_w / 2
            y_lo, y_hi = y_of(max(0.0, value - std)), y_of(value + std)
            parts.append(
                f'<line x1="{_px(cx)}" y1="{_px(y_lo)}" x2="{_px(cx)}" '
                f'y2="{_px(y_hi)}" stroke="#222222" stroke-width="1.5"/>'
            )
            for yy in (y_lo, y_hi):
                parts.append(
                    f'<line x1="{_px(cx - 5)}" y1="{_px(yy)}" x2="{_px(cx + 5)}" '
                    f'y2="{_px(yy)}" stroke="#222222" stroke-width="1.5"/>'
                )
        parts.append(
            f'<text x="{_px(x + bar_w / 2)}" y="{_px(y_of(value + (std or 0.0)) - 6)}" '
            f'text-anchor="middle" font-size="11">{_sig(value)}</text>'
        )
        lx, ly = x + bar_w / 2, _H - _BOTTOM + 14
        parts.append(
            f'<text x="{_px(lx)}" y="{_px(ly)}" text-anchor="end" font-size="11" '
            f'transform="rotate(-35 {_px(lx)} {_px(ly)})">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# metric key -> (mean column, std column, file stem, axis label)
_PLOT_METRICS: Dict[str, List[Tuple[str, str, str, str]]] = {
    "convergence": [
        ("mean_convergence_cost", "std_convergence_cost", "convergence_cost",
         "travel cost to convergence"),
        ("mean_final_ratio_pct", "std_final_ratio_pct", "final_ratio_pct",
         "converged cost, % of optimal"),
    ],
    "memory": [
        ("mean_stored_values", "std_stored_values", "stored_values",
         "stored heuristic values"),
        ("converged_mean", "converged_std", "solved",
         "instances converged per fold"),
        ("mean_final_ratio_pct", "std_final_ratio_pct", "final_ratio_pct",
         "converged cost, % of optimal"),
    ],
    "stability": [
        ("mean_iae", "std_iae", "iae", "IAE"),
        ("mean_ise", "std_ise", "ise", "ISE"),
        ("mean_itae", "std_itae", "itae", "ITAE"),
        ("mean_itse", "std_itse", "itse", "ITSE"),
        ("mean_sod", "std_sod", "sod", "SOD"),
    ],
    "first-trial": [
        ("mean_final_cost", "std_final_cost", "first_trial_cost",
         "first-trial travel cost"),
    ],
}


def _bar_label(row: Dict) -> str:
    label = row["algorithm"]
    if row.get("param_gamma") is not None:
        label += f" g={row['param_gamma']:g}"
    if row.get("param_epsilon") is not None:
        label += f" e={row['param_epsilon']:g}"
    return label + f" d={row['lookahead']}"


def emit_plots(summary_rows: List[Dict], out_dir: str, experiment: str) -> List[str]:
    """Write one SVG per configured metric; rows missing a metric are left
    off that chart. Returns the written paths (empty when there was
    nothing to draw)."""
    written: List[str] = []
    for mean_col, std_col, stem, ylabel in _PLOT_METRICS.get(experiment, []):
        bars = [
            (_bar_label(r), float(r[mean_col]), r.get(std_col))
            for r in summary_rows
            if r.get(mean_col) is not None
        ]
        if not bars:
            continue
        path = os.path.join(out_dir, f"plot_{stem}.svg")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(bar_chart_svg(f"{experiment}: {ylabel}", ylabel, bars))
        written.append(path)
    return written
