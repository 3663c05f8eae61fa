"""Minimal log-log SVG chart writer.

No plotting framework: a fixed layout rendered with deterministic
number formatting, so the same data always produces the same bytes.
Only what the spectrum plot needs: decade grids, a handful of
polyline traces, a legend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .errors import DomainError

if TYPE_CHECKING:
    import numpy as np

_FONT = "font-family=\"Helvetica, Arial, sans-serif\""
_WIDTH, _HEIGHT = 820, 520
# Largest plottable value: the decade above it would not be a float.
_MAX_VALUE = 1e308


@dataclass(frozen=True)
class Trace:
    label: str
    color: str
    x: Sequence[float]
    y: Sequence[float]
    width: float = 1.6
    dash: str | None = None


def _fmt(v: float) -> str:
    return "%.2f" % v


def _points(px: np.ndarray, py: np.ndarray) -> str:
    """Polyline ``points`` text: "x,y" pairs at two decimals, space-separated."""
    import numpy as np

    pairs = np.column_stack((px, py)).ravel().tolist()
    return " ".join(["%.2f,%.2f"] * len(px)) % tuple(pairs)


def _line(x1: float, y1: float, x2: float, y2: float, stroke: str, width: str, dash=None) -> str:
    dash_attr = ' stroke-dasharray="%s"' % dash if dash else ""
    return '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s" stroke-width="%s"%s/>' % (
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

    def place(self, values: Sequence[float]) -> np.ndarray:
        """Pixel coordinates of ``values``, one per value."""
        import numpy as np

        # math.log10, not np.log10: they differ in the last bit on some
        # inputs, which can move a coordinate across a %.2f boundary.
        logs = np.fromiter(map(math.log10, values), dtype=float, count=len(values))
        frac = (logs - self.lo) / (self.hi - self.lo)
        return self.px_lo + frac * (self.px_hi - self.px_lo)

    def decades(self) -> list[int]:
        return list(range(math.ceil(self.lo - 1e-9), math.floor(self.hi + 1e-9) + 1))

    def minor_ticks(self) -> list[float]:
        ticks = []
        for d in range(math.floor(self.lo), math.ceil(self.hi)):
            for m in range(2, 10):
                v = math.log10(m) + d
                if self.lo < v < self.hi:
                    ticks.append(10.0**v)
        return ticks


def render_loglog(
    traces: Sequence[Trace],
    *,
    title: str,
    xlabel: str,
    ylabel: str,
) -> str:
    """Render traces on log-log axes; returns the SVG document text."""
    import numpy as np

    if not traces:
        raise DomainError("nothing to plot")
    margin_l, margin_r, margin_t, margin_b = 86.0, 24.0, 48.0, 58.0
    plot_w = _WIDTH - margin_l - margin_r
    plot_h = _HEIGHT - margin_t - margin_b

    data = [(np.asarray(t.x, dtype=float), np.asarray(t.y, dtype=float)) for t in traces]
    for trace, (x, y) in zip(traces, data):
        if x.shape != y.shape:
            raise DomainError(
                f"trace {trace.label!r} has {x.size} x values but {y.size} y values"
            )
    xs = np.concatenate([x for x, _ in data])
    ys = np.concatenate([y for _, y in data])
    if not all(np.all((a > 0.0) & (a <= _MAX_VALUE)) for a in (xs, ys)):
        raise DomainError(f"log-log traces need positive finite data up to {_MAX_VALUE!r}")

    x_lo = 10.0 ** math.floor(math.log10(xs.min()) + 1e-12)
    x_hi = 10.0 ** math.ceil(math.log10(xs.max()) - 1e-12)
    y_lo = 10.0 ** math.floor(math.log10(ys.min()) + 1e-12)
    y_hi = 10.0 ** math.ceil(math.log10(ys.max()) - 1e-12)

    ax_x = _LogAxis(x_lo, x_hi, margin_l, margin_l + plot_w)
    ax_y = _LogAxis(y_lo, y_hi, margin_t + plot_h, margin_t)  # y grows upward

    out: list[str] = []
    out.append(
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (_WIDTH, _HEIGHT, _WIDTH, _HEIGHT)
    )
    out.append('<rect x="0" y="0" width="%d" height="%d" fill="white"/>' % (_WIDTH, _HEIGHT))
    out.append(
        '<text x="%s" y="26" %s font-size="15" text-anchor="middle" fill="#202020">%s</text>'
        % (_fmt(margin_l + plot_w / 2.0), _FONT, _escape(title))
    )

    # gridlines: faint minors, solid decade majors with labels
    for px in ax_x.place(ax_x.minor_ticks()).tolist():
        out.append(_line(px, margin_t, px, margin_t + plot_h, "#ececec", "0.6"))
    for py in ax_y.place(ax_y.minor_ticks()).tolist():
        out.append(_line(margin_l, py, margin_l + plot_w, py, "#ececec", "0.6"))
    x_decades = ax_x.decades()
    for d, px in zip(x_decades, ax_x.place([10.0**d for d in x_decades]).tolist()):
        out.append(_line(px, margin_t, px, margin_t + plot_h, "#c8c8c8", "1"))
        out.append(
            '<text x="%s" y="%s" %s font-size="12" text-anchor="middle" fill="#404040">%s</text>'
            % (_fmt(px), _fmt(margin_t + plot_h + 20.0), _FONT, _decade_label(d))
        )
    y_decades = ax_y.decades()
    for d, py in zip(y_decades, ax_y.place([10.0**d for d in y_decades]).tolist()):
        out.append(_line(margin_l, py, margin_l + plot_w, py, "#c8c8c8", "1"))
        out.append(
            '<text x="%s" y="%s" %s font-size="12" text-anchor="end" fill="#404040">%s</text>'
            % (_fmt(margin_l - 8.0), _fmt(py + 4.0), _FONT, _decade_label(d))
        )

    out.append(
        '<rect x="%s" y="%s" width="%s" height="%s" fill="none" stroke="#404040" stroke-width="1"/>'
        % (_fmt(margin_l), _fmt(margin_t), _fmt(plot_w), _fmt(plot_h))
    )
    out.append(
        '<text x="%s" y="%s" %s font-size="13" text-anchor="middle" fill="#202020">%s</text>'
        % (_fmt(margin_l + plot_w / 2.0), _fmt(_HEIGHT - 14.0), _FONT, _escape(xlabel))
    )
    out.append(
        '<text x="20" y="%s" %s font-size="13" text-anchor="middle" '
        'fill="#202020" transform="rotate(-90 20 %s)">%s</text>'
        % (
            _fmt(margin_t + plot_h / 2.0),
            _FONT,
            _fmt(margin_t + plot_h / 2.0),
            _escape(ylabel),
        )
    )

    for trace, (x, y) in zip(traces, data):
        points = _points(ax_x.place(x.tolist()), ax_y.place(y.tolist()))
        dash = ' stroke-dasharray="%s"' % trace.dash if trace.dash else ""
        out.append(
            '<polyline points="%s" fill="none" stroke="%s" stroke-width="%s"%s/>'
            % (points, trace.color, _fmt(trace.width), dash)
        )

    # legend, top right inside the frame
    legend_x = margin_l + plot_w - 230.0
    legend_y = margin_t + 14.0
    box_h = 20.0 * len(traces) + 10.0
    out.append(
        '<rect x="%s" y="%s" width="222" height="%s" fill="white" '
        'stroke="#c8c8c8" stroke-width="1"/>'
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
            '<text x="%s" y="%s" %s font-size="12" fill="#202020">%s</text>'
            % (_fmt(legend_x + 50.0), _fmt(row_y), _FONT, _escape(trace.label))
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )
