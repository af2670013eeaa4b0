"""Minimal deterministic SVG emitters: byte-identical output for identical
inputs (no timestamps, no hashes, fixed float formatting)."""

from __future__ import annotations

import functools
import math

import numpy as np

# Piecewise-linear approximation of a perceptually uniform colormap:
# breakpoints and their RGB colours.
_CMAP_X = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
_CMAP_RGB = np.array([(68, 1, 84), (59, 82, 139), (33, 145, 140), (94, 201, 98),
                      (253, 231, 37)], dtype=float)
_HEX = np.array([f"{v:02x}" for v in range(256)], dtype=object)

_NAN_COLOR = "#b0b0b0"
_SERIES_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _colors(frac: np.ndarray) -> np.ndarray:
    """Colormap fills "#rrggbb" (an object array) of fractions clamped to [0, 1].

    Segment k is the first whose upper breakpoint satisfies frac <= x_{k+1};
    each channel c0 + t (c1 - c0) is rounded half to even.  A NaN fraction
    (possible when the value range overflows) takes the top colour.
    """
    frac = np.clip(np.nan_to_num(frac, nan=1.0), 0.0, 1.0)
    k = np.searchsorted(_CMAP_X[1:], frac, side="left")
    t = (frac - _CMAP_X[k]) / (_CMAP_X[k + 1] - _CMAP_X[k])
    c0, c1 = _CMAP_RGB[k], _CMAP_RGB[k + 1]
    rgb = np.rint(c0 + t[..., None] * (c1 - c0)).astype(np.intp)
    return "#" + _HEX[rgb[..., 0]] + _HEX[rgb[..., 1]] + _HEX[rgb[..., 2]]


#: The fills of the colour bar's 40 cells, bottom to top.
_BAR_FILLS = tuple(_colors(np.arange(40) / 39))


@functools.lru_cache(maxsize=4)  # a sweep's map grid and colour bar
def _rect_template(nx: int, ny: int, left: float, top: float, pw: float, ph: float) -> str:
    """The rects of a heat-map grid, row-major in (i, j), one per line, with a
    '%s' where each fill goes.  Joined per column, so no Python runs per cell."""
    cw, ch = pw / nx, ph / ny
    tail = f'" width="{_fmt(cw + 0.5)}" height="{_fmt(ch + 0.5)}" fill="%s"/>'
    ys = [_fmt(top + ph - (j + 1) * ch) for j in range(ny)]
    columns = []
    for i in range(nx):
        head = f'<rect x="{_fmt(left + i * cw)}" y="'
        columns.append(head + (tail + "\n" + head).join(ys) + tail)
    return "\n".join(columns)


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if not math.isfinite(lo) or not math.isfinite(hi) or lo == hi:
        return [lo]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


class _Svg:
    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="white"/>',
        ]

    def line(self, x1, y1, x2, y2, stroke="#000000", width=1.0, dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{_fmt(width)}"{d}/>'
        )

    def polyline(self, pts, stroke, width=1.2):
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="{_fmt(width)}"/>'
        )

    def text(self, x, y, s, size=11, anchor="start", rotate=None):
        r = f' transform="rotate(-90 {_fmt(x)} {_fmt(y)})"' if rotate else ""
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif" '
            f'font-size="{size}" text-anchor="{anchor}"{r}>{s}</text>'
        )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def heatmap_svg(
    values: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    title: str,
    xlabel: str,
    ylabel: str,
    overlay_circle: float | None = None,
) -> str:
    """Color-coded map of values[i, j] over x[i] (horizontal), y[j] (vertical).

    ``overlay_circle`` draws the curve y = sqrt(r^2 - x^2) (used for the
    resonance-matching circle on sweep maps).
    """
    vals = np.asarray(values, dtype=float)
    nx, ny = vals.shape
    mleft, mright, mtop, mbot = 60, 80, 30, 45
    pw, ph = 420, 420
    svg = _Svg(mleft + pw + mright, mtop + ph + mbot)
    ok = np.isfinite(vals)
    finite = vals[ok]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 1.0
    span = hi - lo if hi > lo else 1.0
    fills = np.full(vals.shape, _NAN_COLOR, dtype=object)
    fills[ok] = _colors((finite - lo) / span)
    svg.parts.append(_rect_template(nx, ny, mleft, mtop, pw, ph) % tuple(fills.ravel()))
    x0, x1 = float(x[0]), float(x[-1])
    y0, y1 = float(y[0]), float(y[-1])

    def px(v):
        return mleft + (v - x0) / (x1 - x0) * pw if x1 != x0 else mleft

    def py(v):
        return mtop + ph - (v - y0) / (y1 - y0) * ph if y1 != y0 else mtop + ph

    if overlay_circle is not None:
        r = overlay_circle
        pts = []
        for xv in np.linspace(max(x0, -r), min(x1, r), 257):
            yy = r * r - xv * xv
            if yy < 0:
                continue
            yv = math.sqrt(yy)
            if y0 <= yv <= y1:
                pts.append((px(xv), py(yv)))
        if len(pts) > 1:
            svg.polyline(pts, stroke="#ffffff", width=1.5)
    svg.line(mleft, mtop + ph, mleft + pw, mtop + ph)
    svg.line(mleft, mtop, mleft, mtop + ph)
    for tv in _ticks(x0, x1):
        svg.line(px(tv), mtop + ph, px(tv), mtop + ph + 4)
        svg.text(px(tv), mtop + ph + 16, _fmt(tv), anchor="middle")
    for tv in _ticks(y0, y1):
        svg.line(mleft - 4, py(tv), mleft, py(tv))
        svg.text(mleft - 7, py(tv) + 4, _fmt(tv), anchor="end")
    svg.text(mleft + pw / 2, mtop + ph + 34, xlabel, anchor="middle")
    svg.text(16, mtop + ph / 2, ylabel, anchor="middle", rotate=True)
    svg.text(mleft + pw / 2, 18, title, size=13, anchor="middle")
    bx = mleft + pw + 20
    # the colour bar: one column of 40 cells, 13.5 + 0.5 wide
    svg.parts.append(_rect_template(1, 40, bx, mtop, 13.5, ph) % _BAR_FILLS)
    svg.text(bx + 18, mtop + ph, _fmt(lo))
    svg.text(bx + 18, mtop + 10, _fmt(hi))
    return svg.render()


def line_svg(
    t: np.ndarray,
    series: list[tuple[str, np.ndarray]],
    title: str,
    xlabel: str,
    ylabel: str,
    max_points: int = 4000,
) -> str:
    """Time-series plot with a small legend; long inputs are decimated."""
    t = np.asarray(t, dtype=float)
    stride = max(1, len(t) // max_points)
    t = t[::stride]
    mleft, mright, mtop, mbot = 60, 120, 30, 45
    pw, ph = 560, 300
    svg = _Svg(mleft + pw + mright, mtop + ph + mbot)
    ys = [np.asarray(y, dtype=float)[::stride] for _, y in series]
    allv = np.concatenate([y[np.isfinite(y)] for y in ys]) if ys else np.array([0.0])
    lo = float(allv.min()) if allv.size else 0.0
    hi = float(allv.max()) if allv.size else 1.0
    if hi == lo:
        hi = lo + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    x0, x1 = float(t[0]), float(t[-1]) if len(t) > 1 else float(t[0]) + 1.0

    def px(v):
        return mleft + (v - x0) / (x1 - x0) * pw

    def py(v):
        return mtop + ph - (v - lo) / (hi - lo) * ph

    svg.line(mleft, mtop + ph, mleft + pw, mtop + ph)
    svg.line(mleft, mtop, mleft, mtop + ph)
    if lo < 0.0 < hi:
        svg.line(mleft, py(0.0), mleft + pw, py(0.0), stroke="#cccccc", dash="4,3")
    for tv in _ticks(x0, x1):
        svg.line(px(tv), mtop + ph, px(tv), mtop + ph + 4)
        svg.text(px(tv), mtop + ph + 16, _fmt(tv), anchor="middle")
    for tv in _ticks(lo, hi):
        svg.line(mleft - 4, py(tv), mleft, py(tv))
        svg.text(mleft - 7, py(tv) + 4, _fmt(tv), anchor="end")
    for k, ((label, _), y) in enumerate(zip(series, ys)):
        color = _SERIES_COLORS[k % len(_SERIES_COLORS)]
        pts = [(px(tv), py(yv)) for tv, yv in zip(t, y) if math.isfinite(yv)]
        if len(pts) > 1:
            svg.polyline(pts, stroke=color)
        ly = mtop + 14 + 16 * k
        svg.line(mleft + pw + 10, ly - 4, mleft + pw + 30, ly - 4, stroke=color, width=2)
        svg.text(mleft + pw + 34, ly, label)
    svg.text(mleft + pw / 2, mtop + ph + 34, xlabel, anchor="middle")
    svg.text(16, mtop + ph / 2, ylabel, anchor="middle", rotate=True)
    svg.text(mleft + pw / 2, 18, title, size=13, anchor="middle")
    return svg.render()
