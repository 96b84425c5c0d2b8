"""Curve containers and deterministic CSV / SVG emission.

CSV output is one file per curve with the header
``abscissa_<unit>,value_<unit>,error_estimate``, 12 significant digits, LF
line endings, and byte-identical output across runs; a single-curve set
writes exactly the requested path, larger sets derive one deterministic
filename per curve. SVG output is a standalone SVG 1.1 document with an
800x600 viewBox, axes with tick labels, one polyline per curve, and a
legend.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

from .errors import IoError, TooFewPointsError

# fixed palette; curves beyond its length cycle through it
_PALETTE = ("#1f6fb4", "#d1495b", "#3a8f5d", "#8c5aa8",
            "#c97b2d", "#4f7a8c", "#a8333f", "#5c5c99")


@dataclass(frozen=True)
class Curve:
    """One named curve: (abscissa, value, error_estimate) points."""

    name: str
    abscissa_unit: str
    value_unit: str
    points: Tuple[Tuple[float, float, float], ...]

    def __post_init__(self):
        pts = tuple((float(a), float(v), float(e)) for a, v, e in self.points)
        object.__setattr__(self, "points", pts)
        xs = [p[0] for p in pts]
        if len(xs) > 1:
            ascending = all(b > a for a, b in zip(xs[:-1], xs[1:]))
            descending = all(b < a for a, b in zip(xs[:-1], xs[1:]))
            if not (ascending or descending):
                raise ValueError(f"curve {self.name!r}: abscissa not monotone")


@dataclass(frozen=True)
class CurveSet:
    """An ordered collection of curves (order is the emission order)."""

    curves: Tuple[Curve, ...]

    def __post_init__(self):
        object.__setattr__(self, "curves", tuple(self.curves))

    def __len__(self):
        return len(self.curves)

    def __iter__(self):
        return iter(self.curves)


def _fmt(x: float) -> str:
    return f"{x:.11e}"   # 12 significant digits


def render_csv(curve: Curve) -> str:
    """CSV text of one curve: header line plus one row per point."""
    lines = [
        f"abscissa_{curve.abscissa_unit},value_{curve.value_unit},error_estimate"]
    for a, v, e in curve.points:
        lines.append(f"{_fmt(a)},{_fmt(v)},{_fmt(e)}")
    return "\n".join(lines) + "\n"


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name)


def csv_paths(curves: CurveSet, path) -> List[Path]:
    """Deterministic output path per curve.

    A single curve goes to ``path`` itself; several curves derive
    ``<stem>__<curve-name><suffix>`` siblings.
    """
    base = Path(path)
    if len(curves) == 1:
        return [base]
    return [base.with_name(f"{base.stem}__{_safe_name(c.name)}{base.suffix}")
            for c in curves]


def emit_csv(curves: CurveSet, path) -> List[Path]:
    """Write one CSV file per curve, UTF-8 with LF line ends, in binary mode;
    byte-identical across repeated runs.

    Returns the written paths.
    """
    targets = csv_paths(curves, path)
    for curve, target in zip(curves, targets):
        try:
            with open(target, "wb") as handle:
                handle.write(render_csv(curve).encode("utf-8"))
        except OSError as exc:
            raise IoError(f"cannot write CSV to {target}: {exc}") from exc
    return targets


def _ticks(lo: float, hi: float, n: int = 5):
    if hi == lo:
        pad = max(abs(lo), 1.0) * 0.5
        lo, hi = lo - pad, hi + pad
    step = (hi - lo) / (n - 1)
    return lo, hi, [lo + step * k for k in range(n)]


def render_svg(curves: CurveSet) -> str:
    """Standalone SVG 1.1 plot of a curve set.

    Raises
    ------
    TooFewPointsError
        No curves, or some curve has fewer than two points.
    """
    if len(curves) < 1:
        raise TooFewPointsError("need at least one curve")
    for curve in curves:
        if len(curve.points) < 2:
            raise TooFewPointsError(
                f"curve {curve.name!r} has {len(curve.points)} point(s); need >= 2")

    width, height = 800.0, 600.0
    left, right, top, bottom = 80.0, 30.0, 30.0, 60.0
    plot_w, plot_h = width - left - right, height - top - bottom

    xs = [p[0] for c in curves for p in c.points]
    ys = [p[1] for c in curves for p in c.points]
    x_lo, x_hi, x_ticks = _ticks(min(xs), max(xs))
    y_lo, y_hi, y_ticks = _ticks(min(ys), max(ys))

    def sx(x):
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'viewBox="0 0 800 600">',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<rect x="{left:.1f}" y="{top:.1f}" width="{plot_w:.1f}" '
        f'height="{plot_h:.1f}" fill="none" stroke="black" stroke-width="1"/>',
    ]
    for xt in x_ticks:
        px = sx(xt)
        parts.append(
            f'<line x1="{px:.2f}" y1="{top + plot_h:.2f}" x2="{px:.2f}" '
            f'y2="{top + plot_h + 6:.2f}" stroke="black" stroke-width="1"/>')
        parts.append(
            f'<text x="{px:.2f}" y="{top + plot_h + 22:.2f}" font-size="12" '
            f'text-anchor="middle" font-family="sans-serif">{xt:.4g}</text>')
    for yt in y_ticks:
        py = sy(yt)
        parts.append(
            f'<line x1="{left - 6:.2f}" y1="{py:.2f}" x2="{left:.2f}" '
            f'y2="{py:.2f}" stroke="black" stroke-width="1"/>')
        parts.append(
            f'<text x="{left - 10:.2f}" y="{py + 4:.2f}" font-size="12" '
            f'text-anchor="end" font-family="sans-serif">{yt:.4g}</text>')

    first = curves.curves[0]
    parts.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 14:.1f}" font-size="14" '
        f'text-anchor="middle" font-family="sans-serif">'
        f'abscissa [{first.abscissa_unit}]</text>')
    parts.append(
        f'<text x="20" y="{top + plot_h / 2:.1f}" font-size="14" '
        f'text-anchor="middle" font-family="sans-serif" '
        f'transform="rotate(-90 20 {top + plot_h / 2:.1f})">'
        f'value [{first.value_unit}]</text>')

    for k, curve in enumerate(curves):
        color = _PALETTE[k % len(_PALETTE)]
        coords = " ".join(f"{sx(a):.2f},{sy(v):.2f}" for a, v, _ in curve.points)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>')

    legend_x = left + plot_w - 220.0
    legend_y = top + 12.0
    for k, curve in enumerate(curves):
        color = _PALETTE[k % len(_PALETTE)]
        y = legend_y + 18.0 * k
        parts.append(
            f'<line x1="{legend_x:.1f}" y1="{y:.1f}" x2="{legend_x + 24:.1f}" '
            f'y2="{y:.1f}" stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<text x="{legend_x + 30:.1f}" y="{y + 4:.1f}" font-size="12" '
            f'font-family="sans-serif">{curve.name}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_svg(curves: CurveSet, path) -> None:
    """Write the SVG plot file, UTF-8 with LF line ends, in binary mode."""
    data = render_svg(curves).encode("utf-8")
    try:
        with open(path, "wb") as handle:
            handle.write(data)
    except OSError as exc:
        raise IoError(f"cannot write SVG to {path}: {exc}") from exc
