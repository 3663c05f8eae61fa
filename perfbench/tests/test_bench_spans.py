"""The span recorder: every target exists, spans nest, wrappers come off."""

import contextlib
import io

import pytest

import spans
from sqzbudget import budget, cli


def traced_main(argv):
    tracer = spans.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = tracer.call("cli.main", "cli", cli.main, [str(a) for a in argv])
    finally:
        tracer.uninstall()
    return rc, tracer


def test_sweep_spans_nest_and_add_up(tmp_path):
    original = budget.build_report
    rc, tracer = traced_main(["sweep", "--values", "0.5,0.6,0.7", "--out", tmp_path])
    assert rc == 0
    assert tracer.missing == 0, "every target is a function of the package"
    assert budget.build_report is original, "uninstall restores the module attributes"
    totals = tracer.collect()
    assert totals["budget.sweep_values"] == 3
    assert totals["budget.build_report_calls"] == 3
    assert totals["cli.calls"] == totals["budget.calls"] == 1
    assert totals["ifo.calls"] == 3 * 7  # squeezing factor, and shot and tech three times
    self_total = sum(totals.get(f"{layer}.self_ms", 0.0) for layer in spans.LAYERS)
    assert self_total == pytest.approx(totals["cli.main_ms"], rel=1e-9)
    assert totals["cli.bytes_written"] == sum(p.stat().st_size for p in tmp_path.iterdir())


def test_collect_starts_the_next_op(tmp_path):
    rc, tracer = traced_main(["oracle", "--samples", 10000, "--out", tmp_path])
    first = tracer.collect()
    assert first["oracle.checks_run"] == 5
    assert first["oracle.samples_drawn"] == 5 * 10000
    assert tracer.op == 1
    assert tracer.collect() == {"trace.spans": 0, "trace.targets_missing": 0}
