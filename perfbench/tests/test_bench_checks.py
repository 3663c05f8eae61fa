"""The output checker accepts real outputs and rejects corrupted ones."""

import contextlib
import io
import os
import re
from pathlib import Path

import pytest

import checks
from checks import CheckError
from sqzbudget.cli import main

PRESET_RUN = dict(checks.PRESET)


def call(argv, out_dir=None):
    """(exit code, stdout, files) of one in-process CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = main([str(a) for a in argv])
    files = {}
    if out_dir is not None and os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                files[name] = fh.read()
    return rc, buf.getvalue(), files


def bump_digit(text: str, line_no: int, field: int, pos: int = 2) -> str:
    """Change one digit of one CSV field."""
    lines = text.split("\n")
    parts = lines[line_no].split(",")
    digit = parts[field][pos]
    assert digit.isdigit()
    parts[field] = parts[field][:pos] + str((int(digit) + 1) % 10) + parts[field][pos + 1:]
    lines[line_no] = ",".join(parts)
    return "\n".join(lines)


@pytest.fixture(scope="module")
def budget(tmp_path_factory):
    out = tmp_path_factory.mktemp("budget")
    return call(["budget", "--out", out], out)


def test_budget_at_preset_passes_with_paper_anchors(budget):
    checks.check_budget({"run": PRESET_RUN, "anchors": True}, *budget)


@pytest.mark.parametrize("field", range(8))
def test_budget_csv_corrupted_digit_is_caught(budget, field):
    rc, stdout, files = budget
    line_no = files["budget.csv"].split("\n").index(checks.BUDGET_HEADER) + 500
    bad = dict(files, **{"budget.csv": bump_digit(files["budget.csv"], line_no, field)})
    with pytest.raises(CheckError, match="budget.csv row 499"):
        checks.check_budget({"run": PRESET_RUN}, rc, stdout, bad)


def test_budget_wrong_efficiency_is_caught(budget):
    with pytest.raises(CheckError, match="squeezing_factor"):
        checks.check_budget({"run": dict(PRESET_RUN, eta_total=0.63)}, *budget)


def test_budget_svg_missing_trace_is_caught(budget):
    rc, stdout, files = budget
    svg = files["spectrum.svg"]
    start = svg.index("<polyline")
    bad = dict(files, **{"spectrum.svg": svg[:start] + svg[svg.index("/>", start) + 2:]})
    with pytest.raises(CheckError, match="3 traces"):
        checks.check_budget({"run": PRESET_RUN}, rc, stdout, bad)


SIGMAS = [0.0, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5]


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    values = ",".join(map(repr, SIGMAS))
    return call(["sweep", "--axis", "sigma", "--values", values, "--solve-improvement-db", "6",
                 "--out", out], out)


def sweep_expect(**extra):
    return {"run": PRESET_RUN, "axis": "sigma", "values": SIGMAS, "solve_db": 6.0, **extra}


def test_sweep_matches_closed_form(sweep):
    checks.check_sweep(sweep_expect(anchors=True), *sweep)


def test_sweep_dropped_row_is_caught(sweep):
    rc, stdout, files = sweep
    lines = files["sweep.csv"].split("\n")
    del lines[4]
    text = "\n".join(lines)
    with pytest.raises(CheckError, match="rows for"):
        checks.check_sweep(sweep_expect(), rc, text, dict(files, **{"sweep.csv": text}))


def test_sweep_wrong_base_run_is_caught(sweep):
    with pytest.raises(CheckError, match="shot_limited"):
        checks.check_sweep(sweep_expect(run=dict(PRESET_RUN, eta_total=0.7)), *sweep)


@pytest.fixture(scope="module")
def oracle(tmp_path_factory):
    out = tmp_path_factory.mktemp("oracle")
    return call(["oracle", "--samples", 10000, "--seed", 7, "--out", out], out)


def test_oracle_passes(oracle):
    checks.check_oracle({"seed": 7, "samples": 10000}, *oracle)


def test_oracle_wrong_analytic_value_is_caught(oracle):
    rc, stdout, files = oracle
    text = files["oracle.json"]
    good = re.search(r'"analytic_variance": ([0-9.]+),', text)
    wrong = f'"analytic_variance": {float(good.group(1)) * 1.001!r},'
    text = text[:good.start()] + wrong + text[good.end():]
    with pytest.raises(CheckError, match="analytic_variance"):
        checks.check_oracle({"seed": 7, "samples": 10000}, rc, text, {"oracle.json": text})


def test_oracle_exit_code_must_match_verdict(oracle):
    rc, stdout, files = oracle
    with pytest.raises(CheckError, match="exited"):
        checks.check_oracle({"seed": 7, "samples": 10000}, 0 if rc == 3 else 3, stdout, files)


def test_ledger_matches_readme(tmp_path):
    readme = (Path(checks.__file__).resolve().parents[1] / "README.md").read_text()
    assert checks.README_LEDGER in readme
    checks.check_ledger(*call(["ledger", "--out", tmp_path], tmp_path))


def test_preset_parses_back_and_a_changed_value_is_caught():
    rc, stdout, files = call(["preset"])
    checks.check_preset(rc, stdout, files)
    with pytest.raises(CheckError, match="power_bs"):
        checks.check_preset(rc, stdout.replace("power_bs = 2700.0", "power_bs = 2701.0"), files)


def test_config_text_round_trips():
    text = checks.config_text(grid_points=5, eta_total=0.5)
    assert checks.parse_config_text(text) == dict(checks.PRESET, grid_points=5, eta_total=0.5)
