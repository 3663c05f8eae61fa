"""The strain spectrum figure, written as SVG.

No plotting framework: one fixed log-log layout rendered with
deterministic number formatting, so the same data always produces the
same bytes. It draws what ``report.spectrum_svg`` needs: a handful of
polyline traces over one frequency axis, decade grids, fixed title and
axis labels, and a legend.

The traces stay arrays from end to end: each is placed on its axis by
``np.log10`` over the whole array, the frequency axis's ``%.2f`` text
is formatted once and shared by every polyline, and the polyline text
goes into the document in chunks that are joined once. Tuples of floats
(a float grid's traces, and the ticks) take ``math.log10`` and ``%``
instead, without numpy: the text, not the last bit, is the contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from ._numfmt import format_pairs
from .errors import DomainError

if TYPE_CHECKING:
    import numpy as np

_FONT = "font-family=\"Helvetica, Arial, sans-serif\""
_WIDTH, _HEIGHT = 820, 520
# Largest plottable value: the decade above it would not be a float.
_MAX_VALUE = 1e308
_TITLE = "Strain noise budget with and without squeezed light"
_XLABEL = "frequency (Hz)"
_YLABEL = "strain ASD (1/sqrt(Hz))"


@dataclass(frozen=True)
class Trace:
    """One curve of the figure; ``x`` is the figure's frequency grid."""

    label: str
    color: str
    x: Sequence[float]
    y: Sequence[float]
    width: float = 1.6
    dash: str | None = None


def _fmt(v: float) -> str:
    return "%.2f" % v


def _points(px: np.ndarray | list[float], pys: Iterable) -> Iterator[list[str]]:
    """Polyline ``points`` text of each y in ``pys`` over the x in ``px``.

    Yields, per y, chunks whose join is the "x,y" pairs at two decimals,
    space-separated. Written by ``_numfmt.format_pairs``, which formats
    the x text once for every y and leaves a pair holding a near-tie,
    NaN, inf, a negative value or one of 1e4 or more to ``%``, so the
    text is exactly ``"%.2f,%.2f" % (x, y)`` per point. That ``%`` writes
    a list ``px`` (a float grid's) directly.
    """
    if isinstance(px, list):
        for py in pys:
            yield [" ".join(["%.2f,%.2f" % point for point in zip(px, py)])]
        return
    for chunks in format_pairs(px, pys):
        if chunks:
            chunks[-1] = chunks[-1][:-1]  # no space after the last pair
        yield chunks


def _line(x1: float, y1: float, x2: float, y2: float, stroke: str, width: str, dash=None) -> str:
    dash_attr = ' stroke-dasharray="%s"' % dash if dash else ""
    return '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s" stroke-width="%s"%s/>\n' % (
        _fmt(x1), _fmt(y1), _fmt(x2), _fmt(y2), stroke, width, dash_attr
    )


def _decade_label(exponent: int) -> str:
    if -3 <= exponent <= 4:
        return "%g" % (10.0**exponent)
    return "1e%d" % exponent


class _LogAxis:
    def __init__(self, lo: float, hi: float, px_lo: float, px_hi: float):
        if lo <= 0.0 or hi <= lo:
            raise DomainError(f"log axis needs 0 < lo < hi, got ({lo!r}, {hi!r})")
        self.lo = math.log10(lo)
        self.hi = math.log10(hi)
        self.px_lo = px_lo
        self.px_hi = px_hi

    def place(self, values: Sequence[float] | np.ndarray) -> np.ndarray | list[float]:
        """Pixel coordinates of ``values``, one per value.

        The logs are taken by ``np.log10`` over the float array, the
        function ``budget.improvement_db`` applies to the same spectra.
        Its last bit can differ from ``math.log10``'s, and between the
        AVX-512 and the baseline loop numpy may dispatch to; the golden
        figures are checked with both loops. A tuple takes ``math.log10``.
        """
        if isinstance(values, tuple):
            lo, span, px_lo, width = self.lo, self.hi - self.lo, self.px_lo, self.px_hi - self.px_lo
            return [px_lo + (math.log10(v) - lo) / span * width for v in values]
        import numpy as np

        logs = np.log10(np.asarray(values, dtype=float))
        frac = (logs - self.lo) / (self.hi - self.lo)
        return self.px_lo + frac * (self.px_hi - self.px_lo)

    def decades(self) -> list[int]:
        return list(range(math.ceil(self.lo - 1e-9), math.floor(self.hi + 1e-9) + 1))

    def minor_ticks(self) -> tuple[float, ...]:
        ticks = []
        for d in range(math.floor(self.lo), math.ceil(self.hi)):
            for m in range(2, 10):
                v = math.log10(m) + d
                if self.lo < v < self.hi:
                    ticks.append(10.0**v)
        return tuple(ticks)


def render_loglog(traces: Sequence[Trace]) -> str:
    """Draw the spectrum figure; returns the SVG document text.

    The traces share one frequency axis, the first trace's ``x``, which
    is placed and formatted once; every other trace must carry the same
    frequencies. If that ``x`` is a tuple, so are they all.
    """
    if not traces:
        raise DomainError("nothing to plot")
    margin_l, margin_r, margin_t, margin_b = 86.0, 24.0, 48.0, 58.0
    plot_w = _WIDTH - margin_l - margin_r
    plot_h = _HEIGHT - margin_t - margin_b

    if isinstance(traces[0].x, tuple):
        f, ys = traces[0].x, [tuple(trace.y) for trace in traces]
        same_x = lambda x: x is traces[0].x or tuple(x) == f
        plottable = lambda a: all(0.0 < v <= _MAX_VALUE for v in a)
        least, most = min, max
    else:
        import numpy as np

        f = np.asarray(traces[0].x, dtype=float)
        ys = [np.asarray(trace.y, dtype=float) for trace in traces]
        same_x = lambda x: x is traces[0].x or np.array_equal(x, f)
        plottable = lambda a: ((a > 0.0) & (a <= _MAX_VALUE)).all()
        least, most = np.min, np.max
    for trace, y in zip(traces, ys):
        if not same_x(trace.x):
            raise DomainError(f"trace {trace.label!r} is not on the first trace's frequencies")
        if len(y) != len(f):
            raise DomainError(
                f"trace {trace.label!r} has {len(y)} y values for {len(f)} frequencies"
            )
    if not all(plottable(a) for a in (f, *ys)):
        raise DomainError(f"log-log traces need positive finite data up to {_MAX_VALUE!r}")

    x_lo = 10.0 ** math.floor(math.log10(least(f)) + 1e-12)
    x_hi = 10.0 ** math.ceil(math.log10(most(f)) - 1e-12)
    y_lo = 10.0 ** math.floor(math.log10(min(least(y) for y in ys)) + 1e-12)
    y_hi = 10.0 ** math.ceil(math.log10(max(most(y) for y in ys)) - 1e-12)

    ax_x = _LogAxis(x_lo, x_hi, margin_l, margin_l + plot_w)
    ax_y = _LogAxis(y_lo, y_hi, margin_t + plot_h, margin_t)  # y grows upward

    # Every piece ends its own line, so the document is joined once.
    out: list[str] = []
    out.append(
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">\n' % (_WIDTH, _HEIGHT, _WIDTH, _HEIGHT)
    )
    out.append('<rect x="0" y="0" width="%d" height="%d" fill="white"/>\n' % (_WIDTH, _HEIGHT))
    out.append(
        '<text x="%s" y="26" %s font-size="15" text-anchor="middle" fill="#202020">%s</text>\n'
        % (_fmt(margin_l + plot_w / 2.0), _FONT, _TITLE)
    )

    # gridlines: faint minors, solid decade majors with labels
    for px in ax_x.place(ax_x.minor_ticks()):
        out.append(_line(px, margin_t, px, margin_t + plot_h, "#ececec", "0.6"))
    for py in ax_y.place(ax_y.minor_ticks()):
        out.append(_line(margin_l, py, margin_l + plot_w, py, "#ececec", "0.6"))
    x_decades = ax_x.decades()
    for d, px in zip(x_decades, ax_x.place(tuple(10.0**d for d in x_decades))):
        out.append(_line(px, margin_t, px, margin_t + plot_h, "#c8c8c8", "1"))
        out.append(
            '<text x="%s" y="%s" %s font-size="12" text-anchor="middle" fill="#404040">%s</text>\n'
            % (_fmt(px), _fmt(margin_t + plot_h + 20.0), _FONT, _decade_label(d))
        )
    y_decades = ax_y.decades()
    for d, py in zip(y_decades, ax_y.place(tuple(10.0**d for d in y_decades))):
        out.append(_line(margin_l, py, margin_l + plot_w, py, "#c8c8c8", "1"))
        out.append(
            '<text x="%s" y="%s" %s font-size="12" text-anchor="end" fill="#404040">%s</text>\n'
            % (_fmt(margin_l - 8.0), _fmt(py + 4.0), _FONT, _decade_label(d))
        )

    out.append(
        '<rect x="%s" y="%s" width="%s" height="%s" fill="none" stroke="#404040" '
        'stroke-width="1"/>\n'
        % (_fmt(margin_l), _fmt(margin_t), _fmt(plot_w), _fmt(plot_h))
    )
    out.append(
        '<text x="%s" y="%s" %s font-size="13" text-anchor="middle" fill="#202020">%s</text>\n'
        % (_fmt(margin_l + plot_w / 2.0), _fmt(_HEIGHT - 14.0), _FONT, _XLABEL)
    )
    out.append(
        '<text x="20" y="%s" %s font-size="13" text-anchor="middle" '
        'fill="#202020" transform="rotate(-90 20 %s)">%s</text>\n'
        % (
            _fmt(margin_t + plot_h / 2.0),
            _FONT,
            _fmt(margin_t + plot_h / 2.0),
            _YLABEL,
        )
    )

    polylines = _points(ax_x.place(f), (ax_y.place(y) for y in ys))
    for trace, points in zip(traces, polylines):
        dash = ' stroke-dasharray="%s"' % trace.dash if trace.dash else ""
        out.append('<polyline points="')
        out += points
        out.append(
            '" fill="none" stroke="%s" stroke-width="%s"%s/>\n'
            % (trace.color, _fmt(trace.width), dash)
        )

    # legend, top right inside the frame
    legend_x = margin_l + plot_w - 230.0
    legend_y = margin_t + 14.0
    box_h = 20.0 * len(traces) + 10.0
    out.append(
        '<rect x="%s" y="%s" width="222" height="%s" fill="white" '
        'stroke="#c8c8c8" stroke-width="1"/>\n'
        % (_fmt(legend_x), _fmt(legend_y), _fmt(box_h))
    )
    for i, trace in enumerate(traces):
        row_y = legend_y + 20.0 * i + 18.0
        out.append(
            _line(
                legend_x + 10.0,
                row_y - 4.0,
                legend_x + 42.0,
                row_y - 4.0,
                trace.color,
                _fmt(trace.width),
                trace.dash,
            )
        )
        out.append(
            '<text x="%s" y="%s" %s font-size="12" fill="#202020">%s</text>\n'
            % (_fmt(legend_x + 50.0), _fmt(row_y), _FONT, trace.label)
        )

    out.append("</svg>\n")
    return "".join(out)
