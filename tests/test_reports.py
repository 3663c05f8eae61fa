"""Emitters: CSV/JSON/SVG content, formatting, determinism."""

import contextlib
import csv
import io
import json
import math
import os
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqzbudget import (
    IfoConfig,
    SweepTable,
    build_report,
    default_run_config,
    standard_suite,
    sweep,
)
from sqzbudget import _numfmt
from sqzbudget import report as report_module
from sqzbudget import svgplot
from sqzbudget._numfmt import format_pairs, format_rows
from sqzbudget.cli import EXIT_OK, main
from sqzbudget.errors import DomainError
from sqzbudget.losses import DegradationRow
from sqzbudget.svgplot import Trace, _fmt, _LogAxis, _points, render_loglog
from sqzbudget.report import (
    budget_csv,
    fmt9,
    ledger_csv,
    oracle_json,
    spectrum_svg,
    summary_json,
    sweep_csv,
    sweep_json,
)


@pytest.fixture(scope="module")
def report():
    return build_report(default_run_config())


def test_fmt9_gives_nine_significant_digits():
    assert fmt9(1.0 / 3.0) == "0.333333333"
    assert fmt9(1.0e-21) == "1e-21"
    assert fmt9(0.44200000001) == "0.442"
    assert fmt9(123456789.123) == "123456789"


def _floats(node):
    if isinstance(node, float):
        yield node
    elif isinstance(node, dict):
        for item in node.values():
            yield from _floats(item)
    elif isinstance(node, list):
        for item in node:
            yield from _floats(item)


JSON_OUTPUTS = {
    "summary.json": ["budget", "--format", "json"],
    "sweep.json": ["sweep", "--values", "0.5,0.62", "--solve-improvement-db", "6"],
    "oracle.json": ["oracle", "--samples", "20000"],
}


@pytest.mark.parametrize("name", sorted(JSON_OUTPUTS))
def test_every_json_float_has_nine_digits(name, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(JSON_OUTPUTS[name] + ["--out", out]) == EXIT_OK
    capsys.readouterr()
    with open(os.path.join(out, name), encoding="utf-8") as fh:
        floats = list(_floats(json.load(fh)))
    assert floats
    assert [x for x in floats if x != float(fmt9(x))] == []


def _csv_per_cell(head, rows):
    """The CSV writer as it was, one ``fmt9`` call per cell: the reference."""
    body = [",".join([v if type(v) is str else fmt9(v) for v in row]) for row in rows]
    return "\n".join([*head, *body]) + "\n"


_FLOAT = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.floats(),  # subnormal and huge values included
)
_NUMBER = st.one_of(_FLOAT, _FLOAT.map(np.float64), st.integers(-(10**20), 10**20))


@st.composite
def _tables(draw):
    row = st.tuples(*[_NUMBER] * draw(st.integers(1, 5)))
    return draw(st.lists(row, max_size=30))


@given(rows=_tables(), chunk_cells=st.integers(1, 7), as_array=st.booleans())
@settings(max_examples=300, deadline=None)
def test_csv_matches_the_per_cell_writer(rows, chunk_cells, as_array):
    head = ["# a table", "a,b"]
    expected = _csv_per_cell(head, rows)
    if as_array and rows:
        rows = np.array([[float(v) for v in row] for row in rows])
    saved = _numfmt._CHUNK_CELLS
    _numfmt._CHUNK_CELLS = chunk_cells  # cross chunk boundaries on small tables
    try:
        assert "# a table\na,b\n" + "".join(format_rows(rows)) == expected
    finally:
        _numfmt._CHUNK_CELLS = saved


_LEDGER_HEAD = ["stage,efficiency,eta_cumulative,v_sq_cumulative,squeeze_db_cumulative"]
_STAGE = st.one_of(st.text(max_size=8), st.text(alphabet=", ab", max_size=6))


@given(st.lists(st.builds(DegradationRow, _STAGE, _FLOAT, _FLOAT, _FLOAT, _FLOAT), max_size=8))
@settings(max_examples=300, deadline=None)
def test_ledger_csv_matches_the_per_cell_writer(rows):
    expected = _csv_per_cell(_LEDGER_HEAD, [tuple(vars(row).values()) for row in rows])
    assert ledger_csv(rows) == expected


_SWEEP_HEAD = [
    "# sweep axis: sigma",
    "value,broadband_improvement_db,shot_limited_improvement_db,rate_gain",
]
_SWEEP_FIELDS = _SWEEP_HEAD[1].split(",")


@st.composite
def _sweep_tables(draw, cell, min_size=0, max_size=40):
    """A ``SweepTable`` of four equal-length columns of ``cell`` draws."""
    n = draw(st.integers(min_size, max_size))
    return SweepTable(*[draw(st.lists(cell, min_size=n, max_size=n)) for _ in _SWEEP_FIELDS])


def _sweep_rows(table):
    """The table's rows as cell tuples, read from its columns directly."""
    return list(zip(*[getattr(table, name) for name in _SWEEP_FIELDS]))


@given(_sweep_tables(_NUMBER))
@settings(max_examples=300, deadline=None)
def test_sweep_csv_matches_the_per_cell_writer(table):
    assert sweep_csv("sigma", table) == _csv_per_cell(_SWEEP_HEAD, _sweep_rows(table))


def test_csv_without_rows_is_its_header():
    assert sweep_csv("eta", SweepTable([], [], [], [])) == (
        "# sweep axis: eta\n"
        "value,broadband_improvement_db,shot_limited_improvement_db,rate_gain\n"
    )
    assert "".join(format_rows(np.empty((0, 3)))) == "".join(format_rows([])) == ""


def _np_log10(value):
    """``np.log10`` of one value, taken over a one-element array."""
    return float(np.log10(np.array([value]))[0])


def _place_per_point(axis, value, log10=math.log10):
    """``_LogAxis.place`` for one value, its log taken by ``log10``: the reference.

    With ``math.log10`` it is the per-point placement that ``place`` used
    before it took ``np.log10`` over the array.
    """
    frac = (log10(value) - axis.lo) / (axis.hi - axis.lo)
    return axis.px_lo + frac * (axis.px_hi - axis.px_lo)


@st.composite
def _decades_and_points(draw):
    lo = draw(st.integers(-30, 5))
    hi = lo + draw(st.integers(1, 8))
    value = st.floats(10.0**lo, 10.0**hi)
    return lo, hi, draw(st.lists(st.tuples(value, value), max_size=40))


@given(_decades_and_points())
@settings(max_examples=300, deadline=None)
def test_polyline_points_match_the_per_point_writer(case):
    lo, hi, points = case
    xs, ys = [x for x, _ in points], [y for _, y in points]
    ax_x = _LogAxis(10.0**lo, 10.0**hi, 86.0, 796.0)
    ax_y = _LogAxis(10.0**lo, 10.0**hi, 462.0, 48.0)
    placed_x, placed_y = ax_x.place(xs), ax_y.place(ys)
    # Equal to the last bit, not only after rounding to two decimals.
    assert placed_x.tolist() == [_place_per_point(ax_x, x, _np_log10) for x in xs]
    assert placed_y.tolist() == [_place_per_point(ax_y, y, _np_log10) for y in ys]
    # The text is still that of the per-point math.log10 placement.
    px = [_place_per_point(ax_x, x) for x in xs]
    py = [_place_per_point(ax_y, y) for y in ys]
    expected = " ".join("%s,%s" % (_fmt(x), _fmt(y)) for x, y in zip(px, py))
    assert "".join(*_points(placed_x, [placed_y])) == expected


def test_float_points_yield_one_chunk_per_curve_and_then_stop():
    # A float grid's x is a list: each y's text is one %-written chunk.
    curves = list(_points([1.0, 20.5], [[3.0, 4.125], [1e4, -0.005]]))
    assert curves == [["1.00,3.00 20.50,4.12"], ["1.00,10000.00 20.50,-0.01"]]


def _kernel(values):
    """``values`` as a one-column table through the vectorised ``%.9g`` formatter."""
    table = np.array(values, dtype=float).reshape(-1, 1)
    return "".join(format_rows(table))


def _pair_texts(x, ys):
    """The ``"%.2f,%.2f "`` text of ``x`` beside each y in ``ys``, joined per y."""
    return ["".join(chunks) for chunks in format_pairs(x, ys)]


_POWERS = [float("1e%d" % k) for k in range(-300, 301)]
_G9_EDGES = [
    *_POWERS,
    *(math.nextafter(p, 0.0) for p in _POWERS),
    *(math.nextafter(p, math.inf) for p in _POWERS),
    123456789.5,  # an exact tie: % rounds half to even
    999999999.5,  # rounds up into the next decade
    9.9999999995e-05,  # rounds up from exponent form into fixed form
    # Near-ties where the scaling by 10**(8 - e) is inexact.
    3.312928265e-194,
    9.991232935e-219,
    4.526866565e89,
    7.990148025e210,
    1e16,
    0.0,
    5e-324,
    1e308,
    math.nan,
    math.inf,
    # Each count, 0-8, of the digits after the first that precede the
    # point, with the point where word 0 ends and inside word 1.
    *(float("123456789"[: k + 1] + "." + "123456789"[k + 1 :]) for k in range(9)),
    *(float("1" + "0" * k + ".5") for k in range(9)),
    # The 0., 0.0, 0.00 and 0.000 prefixes, with nine digits and with one.
    0.123456789, 0.0123456789, 0.00123456789, 0.000123456789, 0.5, 0.05, 0.005, 0.0005,
    # Two- and three-digit exponents of both signs.
    *(float("1.23456789e%d" % e) for e in (-300, -123, -100, -99, -10, -5)),
    *(float("1.23456789e%d" % e) for e in (9, 10, 99, 100, 123, 300)),
    1e-05, 2e09, 1.5e-99, 1.5e99, 1.5e-100, 1.5e100,
    # Trailing zeros dropped: none, some, or every digit after the first.
    1.0, 10.0, 1e8, 100000000.5, 1.5e-5, 120000000.0, 1.2e-5,
    # Subnormals; the 1e-290 and 1e290 range edges are in _POWERS.
    2.2250738585072009e-308, 1e-310,
]


def test_g9_kernel_matches_percent_on_edge_cases():
    values = _G9_EDGES + [-v for v in _G9_EDGES]
    assert _kernel(values).splitlines() == ["%.9g" % v for v in values]
    pinned = [999999999.5, 9.9999999995e-05, 1e16, -0.0, 0.0, math.nan, -math.inf]
    assert _kernel(pinned).splitlines() == [
        "1e+09", "0.0001", "1e+16", "-0", "0", "nan", "-inf",
    ]


def test_f2_kernel_matches_percent_on_edge_cases():
    values = [
        0.125, 0.375, -0.001, -0.0, 0.0, 999999.995, 999999.994, 1e6, 1234567.891, 1e8,
        0.005, 0.015, 2.675, 796.0, 5e-324, 1e300, math.nan, math.inf, -math.inf,
        # The edges of the one-word cell: four integer digits, no sign bit.
        9999.994, 9999.995, 9999.996, 1e4, 99.995, 1e-320,
    ]
    values += [-v for v in values]
    # Every value as an x and as a y, beside itself and beside another.
    ys = [values, values[::-1]]
    assert _pair_texts(values, ys) == [
        "".join("%.2f,%.2f " % pair for pair in zip(values, y)) for y in ys
    ]
    pinned = [0.125, 0.375, -0.001, -0.0, 999999.995, 1e8, math.nan]
    assert _pair_texts(pinned, [pinned])[0].split() == [
        "%s,%s" % (text, text)
        for text in ["0.12", "0.38", "-0.00", "-0.00", "999999.99", "100000000.00", "nan"]
    ]


_COORD = st.one_of(_FLOAT, st.floats(0.0, 1e4), st.integers(0, 10**6).map(lambda h: h / 100.0))


@given(
    data=st.data(),
    n=st.integers(0, 12),
    curves=st.integers(1, 3),
    chunk_cells=st.integers(1, 7),
)
@settings(max_examples=300, deadline=None)
def test_pairs_share_x_and_match_percent(data, n, curves, chunk_cells):
    x = data.draw(st.lists(_COORD, min_size=n, max_size=n))
    ys = [data.draw(st.lists(_COORD, min_size=n, max_size=n)) for _ in range(curves)]
    saved = _numfmt._CHUNK_CELLS
    _numfmt._CHUNK_CELLS = chunk_cells  # cross chunk boundaries on small curves
    try:
        texts = _pair_texts(x, ys)
    finally:
        _numfmt._CHUNK_CELLS = saved
    assert texts == ["".join("%.2f,%.2f " % pair for pair in zip(x, y)) for y in ys]


@contextlib.contextmanager
def _big_tables(chunk_cells, cpus):
    """Shrink ``_CHUNK_CELLS`` and let the process use ``cpus`` CPUs.

    Yields the list of the threads started meanwhile.
    """
    started = []

    class Thread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_numfmt, "_CHUNK_CELLS", chunk_cells)
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        patch.setattr(threading, "Thread", Thread)
        yield started


_FALLBACKS = {
    "%.9g": [math.nan, math.inf, -math.inf, -0.0, 123456789.5, 3.312928265e-194, 1e300, 5e-324],
    "%.2f": [math.nan, math.inf, -math.inf, -0.0, 0.125, 2.675, -1.5, 1e4],
}


def _with_fallbacks(data, table, spec):
    """``table`` with cells ``%`` writes in its first, middle and last rows and a few more."""
    rows, cols = table.shape
    picks = [0, rows // 2, rows - 1] + data.draw(st.lists(st.integers(0, rows - 1), max_size=3))
    for row in picks:
        col = data.draw(st.integers(0, cols - 1))
        table[row, col] = data.draw(st.sampled_from(_FALLBACKS[spec]))
    return table


@given(
    data=st.data(),
    cols=st.integers(1, 4),
    chunk_cells=st.integers(1, 4),
    cpus=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_big_tables_match_percent_on_one_or_two_threads(data, cols, chunk_cells, cpus, seed):
    rows = max(1, chunk_cells // cols) + data.draw(st.integers(1, 40))  # two or more chunks
    rng = np.random.default_rng(seed)
    table = _with_fallbacks(data, rng.lognormal(0.0, 30.0, (rows, cols)), "%.9g")
    with _big_tables(chunk_cells, cpus) as started:
        text = "".join(format_rows(table))
    template = ",".join(["%.9g"] * cols) + "\n"
    assert text == "".join(template % tuple(row) for row in table.tolist())
    assert len(started) == cpus - 1


@given(
    data=st.data(),
    curves=st.integers(1, 3),
    chunk_cells=st.integers(1, 4),
    cpus=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**32 - 1),
    lognormal=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_big_figures_match_percent_on_one_or_two_threads(
    data, curves, chunk_cells, cpus, seed, lognormal
):
    n = max(1, chunk_cells // 2) + data.draw(st.integers(1, 40))  # two or more chunks
    rng = np.random.default_rng(seed)

    def draw_pairs():  # lognormal values span many decades and cross 1e4
        return rng.lognormal(0.0, 3.0, (n, 2)) if lognormal else rng.uniform(0.0, 1e4, (n, 2))

    pairs = [_with_fallbacks(data, draw_pairs(), "%.2f") for _ in range(curves)]
    x, ys = pairs[0][:, 0], [p[:, 1] for p in pairs]
    with _big_tables(chunk_cells, cpus) as started:
        texts = _pair_texts(x, ys)
    assert texts == ["".join("%.2f,%.2f " % xy for xy in zip(x, y)) for y in ys]
    assert len(started) == (cpus - 1) * curves


def test_big_table_bytes_do_not_depend_on_the_cpus():
    report = build_report(replace(default_run_config(), grid_points=20011))  # 160088 cells
    texts = []
    for cpus in (1, 2):
        with _big_tables(_numfmt._CHUNK_CELLS, cpus) as started:
            texts.append(budget_csv(report) + spectrum_svg(report))
        assert bool(started) == (cpus == 2)
    assert texts[0] == texts[1]


def test_a_failing_chunk_of_a_big_table_is_raised_in_chunk_order(monkeypatch):
    # Chunk 2 fails after chunk 4, which fails at once; chunk 2 comes
    # earlier in chunk order and wins.
    class EarlyChunkError(Exception):
        pass

    class LateChunkError(Exception):
        pass

    build = _numfmt._g9_frame

    def failing(x, sep, frame):
        if x[0, 0] == 2.0:
            time.sleep(0.05)
            raise EarlyChunkError
        if x[0, 0] == 4.0:
            raise LateChunkError
        return build(x, sep, frame)

    monkeypatch.setattr(_numfmt, "_g9_frame", failing)
    table = np.arange(8.0).reshape(-1, 1)  # one row per chunk: chunk k holds the value k
    before = threading.active_count()
    with _big_tables(1, 2) as started, pytest.raises(EarlyChunkError):
        format_rows(table)
    assert started
    assert threading.active_count() == before


def test_csv_array_with_fallback_rows_on_a_chunk_boundary():
    chunk = _numfmt._CHUNK_CELLS // 3  # rows per chunk of a 3-column table
    rng = np.random.default_rng(8)
    table = rng.lognormal(0.0, 30.0, (chunk + 3, 3)) * rng.choice([-1.0, 1.0], (chunk + 3, 3))
    table[chunk - 1, 1] = math.nan  # last row of the first chunk
    table[chunk, 0] = 123456789.5  # first row of the second: a tie
    table[chunk + 2, 2] = 1e300  # outside the fast range
    expected = _csv_per_cell(["# a table", "a,b,c"], [tuple(row) for row in table.tolist()])
    assert "# a table\na,b,c\n" + "".join(format_rows(table)) == expected


def test_traces_sharing_an_x_array_render_like_distinct_copies(monkeypatch):
    f = np.geomspace(10.0, 1e4, 500)
    ys = [np.sqrt(1.0 + (f / 400.0) ** 2) * 1e-22 * (k + 1) for k in range(4)]
    calls = []
    place = svgplot._LogAxis.place
    monkeypatch.setattr(svgplot._LogAxis, "place", lambda self, v: calls.append(1) or place(self, v))
    shared = render_loglog([Trace(str(k), "#000", f, y) for k, y in enumerate(ys)])
    placed_shared = len(calls)
    copies = [Trace(str(k), "#000", f.copy(), y) for k, y in enumerate(ys)]
    assert shared == render_loglog(copies)
    # The one frequency grid is placed once however the traces hold it.
    assert len(calls) - placed_shared == placed_shared


def test_zero_technical_column_matches_the_per_cell_writer():
    run = replace(
        default_run_config(), ifo=IfoConfig(tech_displacement_asd=0.0), grid_points=20011
    )
    report = build_report(run)
    off, on = report.spectrum_off, report.spectrum_on
    arm = run.ifo.arm_length_eff
    columns = (
        off.grid.values, off.total, on.total, report.improvement_db,
        off.quantum, off.tech, off.total * arm, on.total * arm,
    )
    rows = list(zip(*(column.tolist() for column in columns)))
    assert {row[5] for row in rows} == {0.0}
    text = budget_csv(report)
    assert text == _csv_per_cell(text.splitlines()[:4], rows)


class TestBudgetCsv:
    def test_column_contract(self, report):
        text = budget_csv(report)
        header = next(l for l in text.splitlines() if not l.startswith("#"))
        assert header == "f_hz,asd_off,asd_on,improvement_db,shot_off,tech,disp_off,disp_on"

    def test_row_count_matches_grid(self, report):
        rows = [l for l in budget_csv(report).splitlines() if not l.startswith("#")]
        assert len(rows) - 1 == 1000  # header + one row per grid point

    def test_anchor_row(self, report):
        body = "\n".join(
            l for l in budget_csv(report).splitlines() if not l.startswith("#")
        )
        rows = list(csv.DictReader(io.StringIO(body)))
        nearest = min(rows, key=lambda r: abs(float(r["f_hz"]) - 3000.0))
        assert abs(float(nearest["asd_off"]) - 1.0e-21) / 1.0e-21 < 0.005
        assert abs(float(nearest["asd_on"]) - 6.7e-22) / 6.7e-22 < 0.02

    def test_displacement_columns_are_strain_times_arm(self, report):
        body = "\n".join(
            l for l in budget_csv(report).splitlines() if not l.startswith("#")
        )
        row = next(csv.DictReader(io.StringIO(body)))
        assert float(row["disp_off"]) == pytest.approx(
            float(row["asd_off"]) * 1200.0, rel=1e-8
        )

    def test_header_states_db_convention(self, report):
        head = budget_csv(report).splitlines()[1]
        assert "20*log10" in head and "10*log10" in head

    def test_deterministic(self, report):
        assert budget_csv(report) == budget_csv(report)


class TestSummaryJson:
    def test_schema_and_metrics(self, report):
        payload = json.loads(summary_json(report))
        assert payload["schema_version"] == 1
        assert payload["rate_gain"] == pytest.approx(3.40, abs=0.005)
        assert payload["squeezing_factor"] == pytest.approx(math.sqrt(0.442), rel=1e-8)
        assert payload["anchor"]["computed_asd"] == pytest.approx(1e-21, rel=1e-8)
        assert payload["losses"]["eta_effective"] == 0.62
        assert payload["losses"]["eta_stage_product"] == pytest.approx(0.648)
        assert len(payload["losses"]["stages"]) == 3
        assert "db_conventions" in payload

    def test_keys_sorted_and_deterministic(self, report):
        text = summary_json(report)
        assert text == summary_json(report)
        payload = json.loads(text)
        assert list(payload) == sorted(payload)


def test_ledger_csv_rows_and_override_note(report):
    text = ledger_csv(report.ledger, eta_effective=0.62)
    lines = text.splitlines()
    assert lines[0].startswith("stage,efficiency,eta_cumulative")
    assert len([l for l in lines if not l.startswith("#")]) == 4
    assert any("eta_total = 0.62" in l for l in lines)
    # no note when the stages are authoritative
    plain = ledger_csv(report.ledger, eta_effective=None)
    assert not any(l.startswith("#") for l in plain.splitlines())


def test_sweep_serialization():
    rows = sweep(default_run_config(), "eta", [0.5, 0.62])
    text = sweep_csv("eta", rows)
    assert text.splitlines()[1] == (
        "value,broadband_improvement_db,shot_limited_improvement_db,rate_gain"
    )
    payload = json.loads(sweep_json("eta", rows))
    assert payload["axis"] == "eta"
    assert len(payload["rows"]) == 2
    assert payload["schema_version"] == 1


_JSON_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(
        [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e-300, 1e-5, 1e16]
    ),
    # Where a cell's %.9g text and repr part ways: exponents e+09 to e+15,
    # the normal/subnormal boundary, integral values and the signed zero.
    st.sampled_from(
        [
            1e9,
            123456789.0,
            999999999.5,
            1e15,
            1.5e15,
            9.999999995e15,
            1e16,
            2.2250738585072014e-308,
            2.225073858507201e-308,
            1e-310,
            12345.0,
            -0.0,
        ]
    ),
)


def _sweep_payload(axis, table, extra):
    """sweep.json's payload, its rows read from the table's columns."""
    rows = [dict(zip(_SWEEP_FIELDS, row)) for row in _sweep_rows(table)]
    payload = {"schema_version": 1, "axis": axis, "rows": rows}
    payload.update(extra or {})
    return json.dumps(report_module._rounded(payload), indent=2, sort_keys=True) + "\n"


@given(
    table=_sweep_tables(_JSON_FLOATS),
    axis=st.sampled_from(["eta", "injected_db", "sigma"]),
    required=st.one_of(
        st.none(),
        st.fixed_dictionaries(
            {"target_improvement_db": _JSON_FLOATS, "squeeze_db": _JSON_FLOATS, "eta": _JSON_FLOATS}
        ),
    ),
)
@example(table=SweepTable([], [], [], []), axis="eta", required=None)
@example(
    table=SweepTable([5e-324, 1.0], [1e-310, 2.0], [2.225073858507201e-308, 3.0], [0.5, -0.0]),
    axis="eta",
    required=None,
)
@example(table=SweepTable([1e9], [1.5e15], [999999999.5], [1e16]), axis="eta", required=None)
@example(table=SweepTable([0.5, 1.0], [math.nan, 2.0], [3.0, math.inf], [-math.inf, 4.0]),
         axis="sigma", required=None)
@example(table=SweepTable([], [], [], []), axis="sigma",
         required={"target_improvement_db": 6.0, "squeeze_db": 10.0, "eta": 0.8})
@settings(max_examples=300, deadline=None)
def test_sweep_json_rows_match_the_indent_encoder(table, axis, required):
    extra = None if required is None else {"required_eta": required}
    expected = _sweep_payload(axis, table, extra)
    assert sweep_json(axis, table, extra) == expected
    assert sweep_json(axis, table, extra, sweep_csv(axis, table)) == expected


@given(table=_sweep_tables(_JSON_FLOATS, min_size=1, max_size=10), data=st.data())
@settings(max_examples=200, deadline=None)
def test_sweep_json_of_other_cells_or_extra_rows_matches_the_indent_encoder(table, data):
    # An np.float64 cell is laid out like a float; an extra "rows" key sends
    # the table to to_json.
    extra = None
    if data.draw(st.booleans()):
        extra = {"rows": data.draw(st.sampled_from([[], "replaced"]))}
    else:
        column = getattr(table, data.draw(st.sampled_from(_SWEEP_FIELDS)))
        column[data.draw(st.integers(0, len(table) - 1))] = data.draw(_JSON_FLOATS.map(np.float64))
    expected = _sweep_payload("eta", table, extra)
    assert sweep_json("eta", table, extra) == expected
    assert sweep_json("eta", table, extra, sweep_csv("eta", table)) == expected


def test_oracle_json_structure():
    verdicts = standard_suite(seed=42, n_samples=20_000)
    payload = json.loads(oracle_json(verdicts))
    assert payload["schema_version"] == 1
    assert len(payload["checks"]) == 5
    check = payload["checks"][0]
    for key in ("name", "analytic_variance", "estimated_variance", "z", "passed"):
        assert key in check
    assert payload["all_passed"] == all(c["passed"] for c in payload["checks"])


class TestSvg:
    def test_well_formed_and_deterministic(self, report):
        svg = spectrum_svg(report)
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<polyline") == 4
        assert svg == spectrum_svg(report)

    def test_axes_cover_the_band_and_decades(self, report):
        svg = spectrum_svg(report)
        # x decade labels for 10 Hz..10 kHz, y decades in scientific form
        for label in (">10<", ">100<", ">1000<", ">10000<"):
            assert label in svg
        assert "1e-21" in svg
        assert "frequency (Hz)" in svg

    def test_zero_technical_envelope_drops_that_trace(self):
        from dataclasses import replace
        from sqzbudget import IfoConfig

        run = replace(default_run_config(), ifo=IfoConfig(tech_displacement_asd=0.0))
        svg = spectrum_svg(build_report(run))
        assert svg.count("<polyline") == 3

    def test_render_rejects_empty_and_nonpositive(self):
        with pytest.raises(DomainError, match="nothing to plot"):
            render_loglog([])
        with pytest.raises(DomainError):
            render_loglog([Trace("a", "#000", [1.0, 2.0], [0.0, 1.0])])
        # The decade above 1.5e308 is not a float, so no axis can hold it.
        with pytest.raises(DomainError, match="up to 1e"):
            render_loglog([Trace("a", "#000", [1.0, 1.5e308], [1.0, 2.0])])

    def test_render_rejects_traces_of_unequal_length(self):
        f = [1.0, 2.0, 3.0]
        traces = [
            Trace("ok", "#000", f, [1.0, 2.0, 3.0]),
            Trace("short y", "#000", f, [1.0, 2.0]),
        ]
        with pytest.raises(DomainError, match="'short y' has 2 y values for 3 frequencies"):
            render_loglog(traces)

    def test_render_rejects_a_trace_on_other_frequencies(self):
        traces = [
            Trace("ok", "#000", [1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),
            Trace("moved", "#000", [1.0, 2.0, 4.0], [1.0, 2.0, 3.0]),
        ]
        with pytest.raises(DomainError, match="'moved' is not on the first trace's frequencies"):
            render_loglog(traces)

    @pytest.mark.parametrize("x", [[100.0, 100.0], (100.0, 100.0)], ids=["array", "tuple"])
    def test_render_rejects_frequencies_that_span_no_decade(self, x):
        # Every x at one power of ten: the x axis would run from 100 to 100.
        with pytest.raises(DomainError) as info:
            render_loglog([Trace("flat", "#000", x, (1.0, 2.0))])
        assert str(info.value) == "log axis needs 0 < lo < hi, got (100.0, 100.0)"
