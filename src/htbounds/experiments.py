"""Grid experiments: evaluate bounds over a sweep of sample sizes.

A grid pairs one distribution pair and one Type I error regime with a
set of sample sizes and a selection of bounds; running it produces a
table that can be serialized to CSV (byte-deterministic) or rendered to
a standalone SVG plot.  Rows are evaluated one after another, in n
order, on the caller's thread.  The regime only sets each row's log eps;
every cell is a function of the pair, n and log eps.

A cell is the :class:`BoundResult` its bound returns, as ``htbounds bound``
prints it, or None where the bound raised ``DomainError``.  The CSV
prints the value each cell derives from its log; a row keeps the kinds.

One registry, ``_BOUNDS``, holds each bound's column, plot colour, cell
evaluation and the pair family it is defined for; ``bounds_for`` applies
that family rule to grid validation and default selections.
"""

from __future__ import annotations

import html
import math
from collections import namedtuple
from dataclasses import dataclass

from .bounds import (
    BoundKind,
    BoundResult,
    ErrorRegime,
    berry_esseen_bound,
    eps_at,
    fano_bound,
    hellinger_bound,
    phase_transition_achievability,
    phase_transition_converse,
    renyi_converse,
    smoothing_out_bound,
)
from .distributions import BernoulliPair, GaussianPair, parse_pair
from .numerics import DomainError, _check_n
from .oracle import np_exact_bernoulli, np_exact_discrete, np_exact_gaussian

__all__ = [
    "CANONICAL_BOUNDS",
    "ExperimentGrid",
    "GridRow",
    "GridTable",
    "bounds_for",
    "emit_csv",
    "emit_svg",
    "run_grid",
]


def _np_exact(pair, n, log_eps):
    if isinstance(pair, GaussianPair):
        r = np_exact_gaussian(pair, n, log_eps)
    elif isinstance(pair, BernoulliPair):
        r = np_exact_bernoulli(pair, n, log_eps)
    else:
        r = np_exact_discrete(pair, n, log_eps)
    return BoundResult(r.log_beta, r.threshold, BoundKind.EXACT_BETA)


_Bound = namedtuple("_Bound", "colour evaluate family", defaults=(object,))

# Every bound a grid can evaluate, in column order: plot colour, cell evaluation
# (pair, n, log_eps) -> BoundResult, and the pair type it is defined for.
# Evaluations look the bound functions up by module-global name when called, so a
# wrapper set on this module sees every cell.
_BOUNDS = {
    "renyi_converse": _Bound("#d62728", lambda pair, n, log_eps: renyi_converse(pair, n, log_eps)),
    # phase_achievability's cell; kept while the benchmark's sweep-phase runs ask for it (ROADMAP 2(a))
    "achievability": _Bound("#9467bd", lambda pair, n, log_eps:
        phase_transition_achievability(pair, n, -log_eps / n)),
    "phase_converse": _Bound("#e377c2", lambda pair, n, log_eps:
        phase_transition_converse(pair, n, -log_eps / n)),
    "phase_achievability": _Bound("#8c564b", lambda pair, n, log_eps:
        phase_transition_achievability(pair, n, -log_eps / n)),
    "fano": _Bound("#1f77b4", lambda pair, n, log_eps: fano_bound(pair, n, log_eps)),
    "hellinger": _Bound("#2ca02c", lambda pair, n, log_eps: hellinger_bound(pair, n, log_eps)),
    "berry_esseen": _Bound("#ff7f0e", lambda pair, n, log_eps:
        berry_esseen_bound(pair, n, log_eps)),
    "smoothing_out": _Bound("#17becf", lambda pair, n, log_eps:
        smoothing_out_bound(pair, n, log_eps), GaussianPair),
    "np_exact": _Bound("#000000", _np_exact),
}

CANONICAL_BOUNDS = tuple(_BOUNDS)


def bounds_for(pair, names=CANONICAL_BOUNDS) -> tuple:
    """The bounds among ``names`` that are defined for ``pair``'s family, in order."""
    return tuple(b for b in names if isinstance(pair, _BOUNDS[b].family))


@dataclass(frozen=True)
class ExperimentGrid:
    """Specification of one sweep; ``bounds=None`` selects every bound defined for the pair.

    An empty selection, any name outside ``CANONICAL_BOUNDS``, sample sizes
    that are not integers >= 1 in strictly increasing order, or (with
    ``bounds=None``) a pair spec that does not parse raises
    :class:`DomainError`.
    """

    pair_spec: str
    regime: ErrorRegime
    n_values: tuple
    bounds: tuple | None = None

    def __post_init__(self) -> None:
        ns = tuple(self.n_values)
        if not ns:
            raise DomainError("n_values must be non-empty")
        for n in ns:
            _check_n(n)
        ns = tuple(map(int, ns))
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise DomainError("n_values must be strictly increasing")
        object.__setattr__(self, "n_values", ns)
        names = bounds_for(parse_pair(self.pair_spec)) if self.bounds is None else self.bounds
        unknown = [b for b in names if b not in CANONICAL_BOUNDS]
        if unknown:
            raise DomainError(f"unknown bounds {unknown!r}; choose from {CANONICAL_BOUNDS}")
        if not names:
            raise DomainError(f"select at least one bound from {CANONICAL_BOUNDS}")
        object.__setattr__(self, "bounds", tuple(b for b in CANONICAL_BOUNDS if b in names))


@dataclass(frozen=True)
class GridRow:
    n: int
    eps: float
    log_eps: float
    cells: tuple


@dataclass(frozen=True)
class GridTable:
    bounds: tuple
    rows: tuple


def _cell(name, pair, n, log_eps) -> BoundResult | None:
    try:
        return _BOUNDS[name].evaluate(pair, n, log_eps)
    except DomainError:
        return None


def run_grid(grid: ExperimentGrid) -> GridTable:
    """Evaluate every configured bound at every n; rows come back in n order."""
    pair = parse_pair(grid.pair_spec)
    if (defined := bounds_for(pair, grid.bounds)) != grid.bounds:
        b = next(b for b in grid.bounds if b not in defined)
        raise DomainError(f"{b} applies to {_BOUNDS[b].family.__name__} only")

    rows = []
    for n in grid.n_values:
        eps, log_eps = eps_at(grid.regime, n)
        cells = tuple(_cell(b, pair, n, log_eps) for b in grid.bounds)
        rows.append(GridRow(n, eps, log_eps, cells))
    return GridTable(grid.bounds, tuple(rows))


def _fmt(x: float) -> str:
    return format(x, ".17g")


def emit_csv(table: GridTable, path: str) -> None:
    """Write the table as CSV; identical tables produce identical bytes.

    Columns: n, eps, log_eps, then value/optimizer/valid per bound.
    Floats use repr-roundtrip precision; a None cell is ``,,false``.
    """
    if not table.rows:
        raise DomainError("cannot serialize an empty table")
    header = ["n", "eps", "log_eps"]
    for b in table.bounds:
        header += [f"{b}_value", f"{b}_optimizer", f"{b}_valid"]
    lines = [",".join(header)]
    for row in table.rows:
        rec = [str(row.n), _fmt(row.eps), _fmt(row.log_eps)]
        for cell in row.cells:
            if cell is None:
                rec += ("", "", "false")
            else:
                rec.append(_fmt(cell.value))
                rec.append("" if cell.optimizer is None else _fmt(cell.optimizer))
                rec.append("true" if cell.valid else "false")
        lines.append(",".join(rec))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


_W, _H = 880, 540
_LN10 = math.log(10.0)
_ML, _MR, _MT, _MB = 70, 230, 40, 50


def _ticks(lo: float, hi: float) -> list[float]:
    raw = (hi - lo) / 6
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s for s in (mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    first = math.ceil(lo / step) * step
    return [first + i * step for i in range(int((hi - first) / step) + 1)]


def _tag(name: str, text: str | None = None, **attrs) -> str:
    """One SVG element: floats print to 2 decimals, and ``_`` in a name is ``-``."""
    head = "<" + name
    for k, v in attrs.items():
        k = k.replace("_", "-")
        head += f' {k}="{v:.2f}"' if type(v) is float else f' {k}="{v}"'
    return head + "/>" if text is None else f"{head}>{text}</{name}>"


def emit_svg(table: GridTable, path: str, log_y: bool = False, title: str = "") -> None:
    """Render the table as a standalone SVG line plot, one polyline per bound.

    Each curve carries a data-bound attribute with the bound name; a point
    with no plottable neighbour is a circle.  With log_y, y is the log
    value (capped at 0) in decades, so an underflowed value is drawn and
    a log of -inf is a gap, as the legend says.  A bound with no plottable
    point is listed in the legend as having none.  Needs two rows.
    """
    if len(table.rows) < 2:
        raise DomainError("plot needs at least two rows")
    x_lo, x_hi = float(table.rows[0].n), float(table.rows[-1].n)
    # Each bound's runs of (row index, y), split at a None (with log_y, at a log of -inf).
    series = {}
    for j, b in enumerate(table.bounds):
        segs = [[]]
        for i, row in enumerate(table.rows):
            cell = row.cells[j]
            if cell is None or log_y and not cell.log_value > -math.inf:
                segs.append([])
            else:
                segs[-1].append((i, min(cell.log_value, 0.0) / _LN10 if log_y else cell.value))
        series[b] = [seg for seg in segs if seg]
    y_all = [y for segs in series.values() for seg in segs for _, y in seg]
    y_lo, y_hi = (min(y_all), max(y_all)) if y_all else (0.0, 1.0)
    if y_hi - y_lo < 1.0e-12:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    x_span, y_span = x_hi - x_lo, y_hi - y_lo

    def sx(x: float) -> float:
        return _ML + (x - x_lo) / x_span * (_W - _ML - _MR)

    def sy(y: float) -> float:
        return _H - _MB - (y - y_lo) / y_span * (_H - _MT - _MB)

    xs = ["%.2f" % sx(row.n) for row in table.rows]  # each row's x, shared by every curve
    ax, font = {"stroke": "#444444", "stroke_width": 1}, "sans-serif"
    parts = [_tag("rect", width=_W, height=_H, fill="#ffffff")]
    if title:
        parts.append(_tag("text", html.escape(title, quote=False), x=_ML, y=24,
                          font_family=font, font_size=15))
    parts.append(_tag("line", x1=_ML, y1=_H - _MB, x2=_W - _MR, y2=_H - _MB, **ax))
    parts.append(_tag("line", x1=_ML, y1=_MT, x2=_ML, y2=_H - _MB, **ax))
    for t in _ticks(x_lo, x_hi):
        x = sx(t)
        parts.append(_tag("line", x1=x, y1=_H - _MB, x2=x, y2=_H - _MB + 5, **ax))
        parts.append(_tag("text", f"{t:g}", x=x, y=_H - _MB + 18, font_family=font,
                          font_size=11, text_anchor="middle"))
    for t in _ticks(y_lo, y_hi):
        y = sy(t)
        parts.append(_tag("line", x1=_ML - 5, y1=y, x2=_ML, y2=y, **ax))
        parts.append(_tag("text", f"1e{t:g}" if log_y else f"{t:g}", x=_ML - 8, y=y + 4,
                          font_family=font, font_size=11, text_anchor="end"))
    parts.append(_tag("text", "n", x=(_ML + _W - _MR) / 2, y=_H - 12, font_family=font,
                      font_size=12, text_anchor="middle"))
    legend_y = _MT + 10
    for b in table.bounds:
        color = _BOUNDS[b].colour
        for seg in series[b]:
            if len(seg) == 1:
                parts.append(_tag("circle", data_bound=b, cx=xs[seg[0][0]], cy=sy(seg[0][1]),
                                  r="2.5", fill=color))
            else:
                pts = " ".join(["%s,%.2f" % (xs[i], sy(y)) for i, y in seg])
                parts.append(_tag("polyline", data_bound=b, fill="none", stroke=color,
                                  stroke_width="1.5", points=pts))
        parts.append(_tag("line", x1=_W - _MR + 12, y1=legend_y - 4, x2=_W - _MR + 34,
                          y2=legend_y - 4, stroke=color, stroke_width=2))
        parts.append(_tag("text", b if series[b] else f"{b} (no valid points)", x=_W - _MR + 40,
                          y=legend_y, font_family=font, font_size=12))
        legend_y += 18
    if log_y:
        parts.append(_tag("text", "log scale; zeros omitted", x=_W - _MR + 12, y=legend_y + 4,
                          font_family=font, font_size=10, fill="#666666"))
    svg = _tag("svg", "\n" + "\n".join(parts) + "\n", xmlns="http://www.w3.org/2000/svg",
               width=_W, height=_H, viewBox=f"0 0 {_W} {_H}", version="1.1")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(svg + "\n")
