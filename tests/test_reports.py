"""Emitters: CSV/JSON/SVG content, formatting, determinism."""

import csv
import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqzbudget import build_report, default_run_config, standard_suite, sweep
from sqzbudget import report as report_module
from sqzbudget.cli import EXIT_OK, main
from sqzbudget.errors import DomainError
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


_NUMBER = st.one_of(
    st.floats(),  # nan, +-inf, -0.0, subnormal and huge values included
    st.floats().map(np.float64),
    st.integers(-(10**20), 10**20),
)
_CELL = {"str": st.text(max_size=6), "num": _NUMBER}


@st.composite
def _tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_CELL)), min_size=1, max_size=5))
    row = st.tuples(*(_CELL[kind] for kind in kinds))
    return draw(st.lists(row, max_size=30))


@given(rows=_tables(), chunk_rows=st.integers(1, 7), as_array=st.booleans())
@settings(max_examples=300, deadline=None)
def test_csv_matches_the_per_cell_writer(rows, chunk_rows, as_array):
    head = ["# a table", "a,b"]
    expected = _csv_per_cell(head, rows)
    if as_array and rows and not any(isinstance(v, str) for v in rows[0]):
        rows = np.array([[float(v) for v in row] for row in rows])
    saved = report_module._CSV_CHUNK_ROWS
    report_module._CSV_CHUNK_ROWS = chunk_rows  # cross chunk boundaries on small tables
    try:
        assert report_module._csv(head, rows) == expected
    finally:
        report_module._CSV_CHUNK_ROWS = saved


def _place_per_point(axis, value):
    """``_LogAxis.place`` as it was, for one value: the reference."""
    frac = (math.log10(value) - axis.lo) / (axis.hi - axis.lo)
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
    px = [_place_per_point(ax_x, x) for x in xs]
    py = [_place_per_point(ax_y, y) for y in ys]
    placed_x, placed_y = ax_x.place(xs), ax_y.place(ys)
    # Equal to the last bit, not only after rounding to two decimals.
    assert placed_x.tolist() == px and placed_y.tolist() == py
    expected = " ".join("%s,%s" % (_fmt(x), _fmt(y)) for x, y in zip(px, py))
    assert _points(placed_x, placed_y) == expected


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
        with pytest.raises(DomainError):
            render_loglog([], title="t", xlabel="x", ylabel="y")
        with pytest.raises(DomainError):
            render_loglog(
                [Trace("a", "#000", [1.0, 2.0], [0.0, 1.0])],
                title="t",
                xlabel="x",
                ylabel="y",
            )
        # The decade above 1.5e308 is not a float, so no axis can hold it.
        with pytest.raises(DomainError, match="up to 1e"):
            render_loglog(
                [Trace("a", "#000", [1.0, 1.5e308], [1.0, 2.0])],
                title="t",
                xlabel="x",
                ylabel="y",
            )

    def test_render_rejects_traces_of_unequal_length(self):
        traces = [
            Trace("ok", "#000", [1.0, 2.0], [1.0, 2.0]),
            Trace("short y", "#000", [1.0, 2.0, 3.0], [1.0, 2.0]),
        ]
        with pytest.raises(DomainError, match="'short y' has 3 x values but 2 y values"):
            render_loglog(traces, title="t", xlabel="x", ylabel="y")
