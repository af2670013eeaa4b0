import math

import numpy as np
import pytest

from disentsim import svgplot
from disentsim.svgplot import _CMAP_RGB, _CMAP_X, _NAN_COLOR, _Svg, _fmt, _ticks, heatmap_svg

_CMAP = list(zip(_CMAP_X.tolist(), map(tuple, _CMAP_RGB.astype(int).tolist())))


def _color(frac: float) -> str:
    """The scalar colormap rule the vectorized fills must reproduce."""
    frac = min(max(frac, 0.0), 1.0)
    for (x0, c0), (x1, c1) in zip(_CMAP, _CMAP[1:]):
        if frac <= x1:
            t = 0.0 if x1 == x0 else (frac - x0) / (x1 - x0)
            rgb = tuple(round(a + t * (b - a)) for a, b in zip(c0, c1))
            return "#%02x%02x%02x" % rgb
    return "#%02x%02x%02x" % _CMAP[-1][1]


def _rect(svg, x, y, w, h, fill):
    svg.parts.append(f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
                     f'height="{_fmt(h)}" fill="{fill}"/>')


def _reference_heatmap(values, x, y, title, xlabel, ylabel, overlay_circle=None):
    """Per-cell heat map: one _color and one rect per cell."""
    vals = np.asarray(values, dtype=float)
    nx, ny = vals.shape
    mleft, mright, mtop, mbot = 60, 80, 30, 45
    pw, ph = 420, 420
    svg = _Svg(mleft + pw + mright, mtop + ph + mbot)
    finite = vals[np.isfinite(vals)]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 1.0
    span = hi - lo if hi > lo else 1.0
    cw, ch = pw / nx, ph / ny
    for i in range(nx):
        for j in range(ny):
            v = vals[i, j]
            fill = _NAN_COLOR if not math.isfinite(v) else _color((v - lo) / span)
            _rect(svg, mleft + i * cw, mtop + ph - (j + 1) * ch, cw + 0.5, ch + 0.5, fill)
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
    for k in range(40):
        _rect(svg, bx, mtop + ph - (k + 1) * ph / 40, 14, ph / 40 + 0.5, _color(k / 39))
    svg.text(bx + 18, mtop + ph, _fmt(lo))
    svg.text(bx + 18, mtop + 10, _fmt(hi))
    return svg.render()


def _maps():
    rng = np.random.default_rng(6)
    random = rng.normal(size=(81, 81))
    non_finite = rng.uniform(-1.0, 3.0, size=(9, 7))
    non_finite[0, 0] = np.nan
    non_finite[3, 2] = np.inf
    non_finite[8, 6] = -np.inf
    # with lo = 0 and hi = 1 the fractions are the values themselves: the
    # breakpoints; 0.125, 0.375 and 0.625 (t = 1/2), where channels moving by
    # an odd amount tie at x.5; 0.3125, 0.6875 and 0.8125 (t = 1/4, 3/4),
    # with ties such as 52.5 and 208.5 that round down to even
    exact = np.array([[0.0, 0.25, 0.5, 0.75],
                      [1.0, 0.125, 0.375, 0.625],
                      [0.3125, 0.6875, 0.8125, 0.5]])
    return {
        "random-81x81": random,
        "nan-and-inf": non_finite,
        "constant": np.full((5, 4), 1.0 / math.sqrt(2.0)),
        "all-nan": np.full((3, 4), np.nan),
        "1xN": rng.normal(size=(1, 6)),
        "Nx1": rng.normal(size=(6, 1)),
        "breakpoints-and-ties": exact,
        # hi - lo overflows: some fractions are inf / inf = NaN
        "overflowing-range": np.array([[-1e308, 0.0], [1e308, 5e307]]),
    }


@pytest.mark.parametrize("name", list(_maps()))
def test_heatmap_matches_per_cell_reference(name):
    vals = _maps()[name]
    nx, ny = vals.shape
    x = np.linspace(-2.0, 2.0, nx)
    y = np.linspace(2.0 / 81.0, 2.0, ny)
    args = (vals, x, y, name, "delta/omega_a", "omega1/omega_a", 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        assert heatmap_svg(*args) == _reference_heatmap(*args)


def test_colors_on_breakpoints_and_ties():
    fracs = [0.0, 0.125, 0.3125, 0.25, 0.5, 0.75, 1.0, -3.0, 7.0, math.nan]
    fills = svgplot._colors(np.array(fracs))
    assert fills.tolist() == [_color(f) for f in fracs]
    # 68 - 4.5, 1 + 40.5 and 84 + 27.5 round up to even; 59 - 6.5 rounds down
    assert fills[1] == "#402a70"
    assert fills[2] == "#34628b"
