"""Minimal pure-text SVG emission: log-log rate plots with error bars and
theory overlays, and the regime phase diagram with its boundary curve."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rates import PhaseDiagram, Regime

_W, _H = 640, 480
_MARGIN = 60

_REGIME_COLORS = {
    Regime.IID_LIKE: "#4878cf",
    Regime.DEPENDENCE_DOMINATED: "#6acc65",
    Regime.DONSKER_BOUNDED: "#d65f5f",
    Regime.BOUNDARY: "#b8b8b8",
}


@dataclass(frozen=True)
class Series:
    label: str
    x: np.ndarray
    y: np.ndarray
    y_err: np.ndarray | None = None
    color: str = "#4878cf"


@dataclass(frozen=True)
class TheoryLine:
    label: str
    slope: float
    intercept_at: tuple[float, float]  # passes through (x0, y0)
    color: str = "#333333"


def _axes(x_range, y_range):
    lx0, lx1 = math.log10(x_range[0]), math.log10(x_range[1])
    ly0, ly1 = math.log10(y_range[0]), math.log10(y_range[1])

    def px(x):
        return _MARGIN + (math.log10(x) - lx0) / (lx1 - lx0) * (_W - 2 * _MARGIN)

    def py(y):
        return _H - _MARGIN - (math.log10(y) - ly0) / (ly1 - ly0) * (_H - 2 * _MARGIN)

    return px, py


def emit_svg(series: list[Series], theory: list[TheoryLine] = (),
             title: str = "", ylabel: str = "value") -> str:
    """Log-log scatter over n with error bars, theory slope lines, and a legend."""
    if not series:
        raise ValueError("no series to plot")
    xs = np.concatenate([s.x for s in series])
    ys = np.concatenate([s.y for s in series])
    if (xs <= 0).any() or (ys <= 0).any():
        raise ValueError("log-log axes need positive data")
    x_range = (xs.min() / 1.5, xs.max() * 1.5)
    y_range = (ys.min() / 2.0, ys.max() * 2.0)
    px, py = _axes(x_range, y_range)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}">',
             f'<rect width="{_W}" height="{_H}" fill="white"/>',
             f'<text x="{_W / 2:.0f}" y="20" text-anchor="middle" '
             f'font-size="14">{title}</text>',
             f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_W - _MARGIN}" '
             f'y2="{_H - _MARGIN}" stroke="black"/>',
             f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
             f'y2="{_H - _MARGIN}" stroke="black"/>',
             f'<text x="{_W / 2:.0f}" y="{_H - 15}" text-anchor="middle" '
             'font-size="12">log n</text>',
             f'<text x="18" y="{_H / 2:.0f}" text-anchor="middle" font-size="12" '
             f'transform="rotate(-90 18 {_H / 2:.0f})">log {ylabel}</text>']
    for t in theory:
        x0, y0 = t.intercept_at
        xa, xb = x_range[0] * 1.2, x_range[1] / 1.2
        ya = y0 * (xa / x0) ** t.slope
        yb = y0 * (xb / x0) ** t.slope
        parts.append(f'<line x1="{px(xa):.1f}" y1="{py(ya):.1f}" '
                     f'x2="{px(xb):.1f}" y2="{py(yb):.1f}" stroke="{t.color}" '
                     f'stroke-dasharray="6 4"/>')
    for s in series:
        if s.y_err is not None:
            for x, y, e in zip(s.x, s.y, s.y_err):
                if e > 0 and y - e > 0:
                    parts.append(f'<line x1="{px(x):.1f}" y1="{py(y - e):.1f}" '
                                 f'x2="{px(x):.1f}" y2="{py(y + e):.1f}" '
                                 f'stroke="{s.color}"/>')
        for x, y in zip(s.x, s.y):
            parts.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="3.5" '
                         f'fill="{s.color}"/>')
    ly = _MARGIN + 10
    for item in list(series) + list(theory):
        color = item.color
        parts.append(f'<rect x="{_W - _MARGIN - 150}" y="{ly - 9}" width="12" '
                     f'height="12" fill="{color}"/>')
        parts.append(f'<text x="{_W - _MARGIN - 132}" y="{ly + 2}" '
                     f'font-size="11">{item.label}</text>')
        ly += 18
    parts.append("</svg>")
    return "\n".join(parts)


def emit_phase_svg(diagram: PhaseDiagram, title: str = "") -> str:
    """Regime-colored cell grid over (dependence, complexity) with the
    boundary polyline overlaid."""
    bg, ag = diagram.beta_grid, diagram.alpha_grid
    px, py = _axes((bg.min() / 1.3, bg.max() * 1.3), (ag.min() / 1.3, ag.max() * 1.3))
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}">',
             f'<rect width="{_W}" height="{_H}" fill="white"/>',
             f'<text x="{_W / 2:.0f}" y="20" text-anchor="middle" '
             f'font-size="14">{title}</text>']
    for beta, alpha, report in diagram.cells:
        color = _REGIME_COLORS[report.regime]
        parts.append(f'<circle cx="{px(beta):.1f}" cy="{py(alpha):.1f}" r="6" '
                     f'fill="{color}"><title>{report.regime.value}'
                     f'{"" if report.exponent is None else f" exp={report.exponent}"}'
                     f'</title></circle>')
    pts = " ".join(f"{px(b):.1f},{py(a):.1f}" for b, a in diagram.curve
                   if ag.min() / 1.3 <= a <= ag.max() * 1.3)
    parts.append(f'<polyline points="{pts}" fill="none" stroke="black" '
                 f'stroke-width="2"/>')
    ly = _MARGIN + 10
    for regime, color in _REGIME_COLORS.items():
        parts.append(f'<rect x="{_W - _MARGIN - 170}" y="{ly - 9}" width="12" '
                     f'height="12" fill="{color}"/>')
        parts.append(f'<text x="{_W - _MARGIN - 152}" y="{ly + 2}" '
                     f'font-size="11">{regime.value}</text>')
        ly += 18
    parts.append(f'<text x="{_W / 2:.0f}" y="{_H - 15}" text-anchor="middle" '
                 f'font-size="12">dependence exponent</text>')
    parts.append("</svg>")
    return "\n".join(parts)
