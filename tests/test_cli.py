"""Command-line surface: subcommands, exit codes, file outputs, streams."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sqzbudget import cli, parse_config
from sqzbudget.cli import EXIT_CONFIG, EXIT_OK, EXIT_ORACLE, main


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


SRC = Path(__file__).resolve().parents[1] / "src"

# Runs main(argv) in a fresh interpreter, then reports whether numpy loaded.
FRESH_MAIN = """\
import sys
from sqzbudget.cli import main
code = main(sys.argv[1:])
sys.stdout.write("\\nnumpy loaded: %s\\n" % ("numpy" in sys.modules))
sys.exit(code)
"""


def run_fresh(argv, cwd, script=FRESH_MAIN):
    """Run ``script`` with ``argv`` in a new interpreter that imports from src."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


# A two-point linear grid (10 Hz and 10 kHz) has no point in the
# default 1-5 kHz summary band.
SPARSE_GRID = "grid_spacing = linear\ngrid_points = 2\n"
EMPTY_BAND = (
    "band_min_hz = 1000.0 violates bound: band up to band_max_hz = 5000.0 "
    "must hold at least one of the 2 grid points"
)

# Passes RunConfig, but 100000 points cannot be told apart in a span of
# 1e-12 Hz: the grid would repeat a float.
NARROW_SPAN = (
    "f_min_hz = 1.0\nf_max_hz = 1.000000000001\nanchor_freq_hz = 1.0\n"
    "band_min_hz = 0.9\nband_max_hz = 1.0000000000005\ngrid_points = 100000\n"
)
NARROW_SPAN_ERROR = (
    "grid_points = 100000 violates bound: must fit between f_min_hz (1.0) and "
    "f_max_hz (1.000000000001): frequency grid must be strictly increasing"
)

class TestBudget:
    def test_default_run_writes_three_files(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["budget", "--out", str(out)]) == EXIT_OK
        assert sorted(os.listdir(out)) == ["budget.csv", "spectrum.svg", "summary.json"]
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["schema_version"] == 1
        assert all("wrote" in line for line in captured.err.strip().splitlines())

    def test_single_format(self, tmp_path):
        out = tmp_path / "out"
        assert main(["budget", "--out", str(out), "--format", "csv"]) == EXIT_OK
        assert os.listdir(out) == ["budget.csv"]

    def test_byte_identical_reruns(self, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["budget", "--out", str(out_a)]) == EXIT_OK
        assert main(["budget", "--out", str(out_b)]) == EXIT_OK
        capsys.readouterr()
        for name in ("budget.csv", "summary.json", "spectrum.svg"):
            assert read(out_a / name) == read(out_b / name)

    def test_bad_config_value_exits_2_and_names_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("eta_total = 1.3\n", encoding="utf-8")
        code = main(["budget", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "eta_total" in err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        code = main(["budget", "--config", str(tmp_path / "nope.cfg")])
        assert code == EXIT_CONFIG
        assert "nope.cfg" in capsys.readouterr().err

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "latin.cfg"
        cfg.write_bytes(b"squeeze_db = 10\n# \xff\n")
        code = main(["budget", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "cannot read config file" in err and "latin.cfg" in err
        assert "Traceback" not in err

    def test_config_override_changes_the_budget(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("squeeze_db = 6\nantisqueeze_db = 12\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main(["budget", "--config", str(cfg), "--out", str(out), "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["injected"]["squeeze_db"] == 6

    def test_huge_tech_corner_runs_without_warnings(self, tmp_path):
        cfg = tmp_path / "corner.cfg"
        cfg.write_text("tech_corner_hz = 1e300\n", encoding="utf-8")
        proc = run_fresh(["budget", "--config", str(cfg), "--out", str(tmp_path)], tmp_path)
        assert proc.returncode == EXIT_OK
        lines = proc.stderr.splitlines()
        assert len(lines) == 3
        assert all(line.startswith("wrote ") for line in lines)

    def test_antisqueezed_readout_too_large_exits_2_without_warnings(self, tmp_path):
        # Finite unsqueezed, but reading out 300 dB of anti-squeezing
        # multiplies the quantum ASD at f_max_hz past the float range.
        cfg = tmp_path / "anti.cfg"
        cfg.write_text(
            "anchor_asd = 1e150\nsr_pole_hz = 1\nanchor_freq_hz = 10\n"
            "f_max_hz = 1e153\nsqueeze_db = 0\nantisqueeze_db = 300\n"
            "injection_angle_rad = 1.5707963\neta_total = 1\n",
            encoding="utf-8",
        )
        proc = run_fresh(["budget", "--config", str(cfg), "--out", str(tmp_path / "o")], tmp_path)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("error: antisqueeze_db = 300.0 violates bound: ")
        assert proc.stderr.count("\n") == 1
        for key in ("antisqueeze_db", "injection_angle_rad", "f_max_hz"):
            assert key in proc.stderr
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
        assert not (tmp_path / "o").exists()

    def test_band_without_grid_points_exits_2_naming_the_keys(self, tmp_path, capsys):
        cfg = tmp_path / "sparse.cfg"
        cfg.write_text(SPARSE_GRID, encoding="utf-8")
        code = main(["budget", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {EMPTY_BAND}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv, prefix",
        [(["budget"], ""), (["sweep", "--values", "0.5,0.6"], "sweep eta value [0]: ")],
        ids=["budget", "sweep"],
    )
    @pytest.mark.parametrize("spacing", ["log", "linear"])
    def test_span_too_narrow_for_its_points_exits_2_naming_the_keys(
        self, argv, prefix, spacing, tmp_path
    ):
        cfg = tmp_path / "narrow.cfg"
        cfg.write_text(NARROW_SPAN + f"grid_spacing = {spacing}\n", encoding="utf-8")
        proc = run_fresh(argv + ["--config", str(cfg), "--out", str(tmp_path / "o")], tmp_path)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr == f"error: {prefix}{NARROW_SPAN_ERROR}\n"
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
        assert not (tmp_path / "o").exists()

    def test_out_path_that_is_a_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("keep\n", encoding="utf-8")
        assert main(["budget", "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "File exists" in err and str(out) in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert os.listdir(tmp_path) == ["taken"]
        assert out.read_text(encoding="utf-8") == "keep\n"

    @pytest.mark.parametrize("command", ["budget", "ledger"])
    def test_grid_too_wide_for_the_shot_asd_exits_2_without_warnings(self, command, tmp_path):
        # The shot ASD rises as f / sr_pole_hz and overflows far below f = 1e200.
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("f_max_hz = 1e200\nband_max_hz = 5000\n", encoding="utf-8")
        proc = run_fresh([command, "--config", str(cfg), "--out", str(tmp_path / "o")], tmp_path)
        assert proc.returncode == EXIT_CONFIG
        message = (
            f"error: {cfg}: line 1: f_max_hz = 1e+200 violates bound: "
            "must keep the unsqueezed shot ASD finite (sr_pole_hz = 400.0)\n"
        )
        assert proc.stderr == message
        assert proc.stdout == "\nnumpy loaded: False\n"
        assert not (tmp_path / "o").exists()


class TestLedger:
    def test_writes_table(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["ledger", "--out", str(out)]) == EXIT_OK
        text = capsys.readouterr().out
        assert (out / "ledger.csv").exists()
        for stage in ("sr_cavity", "output_mode_cleaner", "detection"):
            assert stage in text
        assert "eta_total = 0.62" in text  # override note against the 0.648 product


    def test_accepts_a_span_too_narrow_for_a_grid(self, tmp_path, capsys):
        # The ledger builds no grid, as it accepts a band with no grid point.
        cfg = tmp_path / "narrow.cfg"
        cfg.write_text(NARROW_SPAN, encoding="utf-8")
        assert main(["ledger", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
        assert (tmp_path / "o" / "ledger.csv").exists()


class TestSweep:
    def test_eta_sweep(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["sweep", "--axis", "eta", "--values", "0.5,0.62,0.8", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert sorted(os.listdir(out)) == ["sweep.csv", "sweep.json"]
        lines = capsys.readouterr().out.strip().splitlines()
        data = [float(l.split(",")[1]) for l in lines if not l.startswith(("#", "value"))]
        assert data == sorted(data)

    def test_solve_required_efficiency(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["sweep", "--solve-improvement-db", "6.0", "--out", str(out), "--format", "json"]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["required_eta"]["eta"] == pytest.approx(0.833, abs=1e-3)

    def test_invalid_value_exits_2_with_index(self, tmp_path, capsys):
        code = main(["sweep", "--axis", "eta", "--values", "0.5,1.3", "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "[1]" in capsys.readouterr().err

    def test_failing_budget_names_the_value_index(self, tmp_path):
        # Value 0 is valid; value 1 reads out 300 dB of anti-squeezing,
        # which build_report rejects after the RunConfig was accepted.
        cfg = tmp_path / "anti.cfg"
        cfg.write_text(
            "anchor_asd = 1e150\nsr_pole_hz = 1\nanchor_freq_hz = 10\n"
            "f_max_hz = 1e153\nsqueeze_db = 0\nantisqueeze_db = 0\n"
            "injection_angle_rad = 1.5707963\neta_total = 1\n",
            encoding="utf-8",
        )
        argv = ["sweep", "--config", str(cfg), "--axis", "injected_db", "--values", "0,300"]
        proc = run_fresh(argv + ["--out", str(tmp_path / "o")], tmp_path)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr == (
            "error: sweep injected_db value [1]: antisqueeze_db = 300.0 violates bound: "
            "must keep the squeezed quantum ASD finite up to f_max_hz "
            "at this injection_angle_rad\n"
        )
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
        assert not (tmp_path / "o").exists()

    def test_band_without_grid_points_names_the_value_index(self, tmp_path, capsys):
        cfg = tmp_path / "sparse.cfg"
        cfg.write_text(SPARSE_GRID, encoding="utf-8")
        argv = ["sweep", "--config", str(cfg), "--values", "0.5,0.6"]
        assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: sweep eta value [0]: {EMPTY_BAND}\n"
        assert not (tmp_path / "o").exists()

    def test_non_numeric_value_exits_2(self, tmp_path, capsys):
        argv = ["sweep", "--values", "0.5,abc", "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: --values must be a comma list of numbers, got '0.5,abc'\n"
        )
        assert not (tmp_path / "o").exists()

    def test_needs_values_or_solve(self, tmp_path, capsys):
        assert main(["sweep", "--out", str(tmp_path / "o")]) == EXIT_CONFIG


class TestOracle:
    def test_passes_at_default_seed(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["oracle", "--out", str(out), "--samples", "50000"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_passed"] is True
        assert (out / "oracle.json").exists()

    def test_statistical_failure_exits_3(self, tmp_path, capsys):
        # seed 23 at n = 10^4 is a known 3-sigma outlier in one check
        code = main(
            ["oracle", "--out", str(tmp_path / "o"), "--seed", "23", "--samples", "10000"]
        )
        assert code == EXIT_ORACLE
        captured = capsys.readouterr()
        assert "failed" in captured.err
        assert json.loads(captured.out)["all_passed"] is False

    def test_undersized_run_is_a_config_error(self, tmp_path):
        code = main(["oracle", "--out", str(tmp_path / "o"), "--samples", "100"])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--seed", "-1", "seed = -1 violates bound: must be >= 0"),
            ("--samples", "10000001", "n_samples = 10000001 violates bound: must be <= 10000000"),
        ],
    )
    def test_out_of_range_argument_exits_2(self, flag, value, message, tmp_path, capsys):
        # Both are rejected before the generator or any sample array exists.
        code = main(["oracle", "--out", str(tmp_path / "o"), flag, value])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()


class TestWrite:
    @pytest.mark.parametrize("failure", ["encode", "rename"])
    def test_failed_write_keeps_previous_file(self, failure, tmp_path, capsys, monkeypatch):
        cli._write(str(tmp_path), "budget.csv", "previous\n")
        content = "partial\n"
        if failure == "encode":
            content += "\ud800"  # a lone surrogate cannot be encoded as UTF-8
        else:
            def broken_replace(src, dst):
                raise OSError("disk full")

            monkeypatch.setattr(cli.os, "replace", broken_replace)
        with pytest.raises((UnicodeEncodeError, OSError)):
            cli._write(str(tmp_path), "budget.csv", content)
        assert read(tmp_path / "budget.csv") == b"previous\n"
        assert os.listdir(tmp_path) == ["budget.csv"]

    def test_new_file_gets_the_umask_mode(self, tmp_path, capsys):
        umask = os.umask(0o022)
        try:
            cli._write(str(tmp_path), "ledger.csv", "x\n")
        finally:
            os.umask(umask)
        assert (tmp_path / "ledger.csv").stat().st_mode & 0o777 == 0o644


class TestPreset:
    def test_round_trips_through_the_parser(self, capsys):
        assert main(["preset"]) == EXIT_OK
        text = capsys.readouterr().out
        cfg = parse_config(text)
        assert cfg == parse_config("")
        assert "arm_length_eff" in text

    def test_no_color_strips_escape_codes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("NO_COLOR", "1")
        code = main(["budget", "--config", str(tmp_path / "missing.cfg")])
        assert code == EXIT_CONFIG
        assert "\x1b[" not in capsys.readouterr().err


class TestNumpyFreeStart:
    """Only subcommands that build or read an array import numpy."""

    def test_package_import(self, tmp_path):
        script = "import sys, sqzbudget; print('numpy' in sys.modules)"
        proc = run_fresh([], tmp_path, script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    @pytest.mark.parametrize(
        "argv, code, loaded",
        [
            (["ledger", "--out", "out"], EXIT_OK, False),
            (["preset"], EXIT_OK, False),
            (["--help"], EXIT_OK, False),
            (["ledger", "--config", "bad.cfg"], EXIT_CONFIG, False),
            (["budget", "--config", "bad.cfg"], EXIT_CONFIG, False),
            (["budget", "--out", "out"], EXIT_OK, True),
        ],
    )
    def test_numpy_loads_only_for_arrays(self, argv, code, loaded, tmp_path):
        (tmp_path / "bad.cfg").write_text("eta_total = 1.5\n", encoding="utf-8")
        proc = run_fresh(argv, tmp_path)
        assert proc.returncode == code, proc.stderr
        assert proc.stdout.endswith(f"\nnumpy loaded: {loaded}\n")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "budget" in capsys.readouterr().out


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
