"""Command-line surface: subcommands, exit codes, file outputs, streams."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sqzbudget import cli, parse_config
from sqzbudget.cli import EXIT_CONFIG, EXIT_OK, EXIT_ORACLE, main
from sqzbudget.errors import ConfigError
from test_paths import FLOAT_WORK


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


def run_fresh(argv, cwd, script=FRESH_MAIN, float_work=None):
    """Run ``script`` with ``argv`` in a new interpreter that imports from src.

    ``float_work``, if given, replaces ``cli._FLOAT_WORK`` first.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    if float_work is not None:
        script = f"from sqzbudget import cli\ncli._FLOAT_WORK = {float_work}\n{script}"
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

# Finite unsqueezed up to f_max_hz = 1e153 Hz, but 300 dB of
# anti-squeezing read out at 90 degrees overflows the quantum ASD there.
ANTISQUEEZE_AT_F_MAX = (
    "anchor_asd = 1e150\nsr_pole_hz = 1\nanchor_freq_hz = 10\n"
    "f_max_hz = 1e153\nsqueeze_db = 0\nantisqueeze_db = 0\n"
    "injection_angle_rad = 1.5707963\neta_total = 1\n"
)
# A shot ASD of ~5e-314 at f_min_hz: 250 dB of squeezing read out at
# eta = 1 scales it to zero there.
SUBNORMAL_SHOT = (
    "anchor_asd = 1e-160\nsr_pole_hz = 1e-150\nf_min_hz = 1e-150\n"
    "tech_displacement_asd = 0\nsqueeze_db = 0\nantisqueeze_db = 300\neta_total = 1\n"
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
        argv = ["budget", "--config", str(cfg), "--out", str(tmp_path / "o")]
        errors = set()
        for work in FLOAT_WORK.values():
            proc = run_fresh(argv, tmp_path, float_work=work)
            assert proc.returncode == EXIT_CONFIG
            assert proc.stderr.startswith("error: antisqueeze_db = 300.0 violates bound: ")
            assert proc.stderr.count("\n") == 1
            for key in ("antisqueeze_db", "injection_angle_rad", "f_max_hz"):
                assert key in proc.stderr
            assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
            assert not (tmp_path / "o").exists()
            errors.add(proc.stderr)
        assert len(errors) == 1, "the same message on both paths"

    def test_band_without_grid_points_exits_2_naming_the_keys(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "sparse.cfg"
        cfg.write_text(SPARSE_GRID, encoding="utf-8")
        for work in FLOAT_WORK.values():
            monkeypatch.setattr(cli, "_FLOAT_WORK", work)
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
        argv = argv + ["--config", str(cfg), "--out", str(tmp_path / "o")]
        for work in FLOAT_WORK.values():
            proc = run_fresh(argv, tmp_path, float_work=work)
            assert proc.returncode == EXIT_CONFIG
            assert proc.stderr == f"error: {prefix}{NARROW_SPAN_ERROR}\n"
            assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
            assert not (tmp_path / "o").exists()

    def test_out_path_that_is_a_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("keep\n", encoding="utf-8")
        assert main(["budget", "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: --out {out}: cannot write budget.csv: File exists\n"
        assert os.listdir(tmp_path) == ["taken"]
        assert out.read_text(encoding="utf-8") == "keep\n"

    def test_out_path_below_a_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "taken").write_text("keep\n", encoding="utf-8")
        out = tmp_path / "taken" / "x"
        assert main(["budget", "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: --out {out}: cannot write budget.csv: Not a directory\n"
        assert os.listdir(tmp_path) == ["taken"]

    def test_unwritable_out_dir_exits_2(self, tmp_path, capsys, monkeypatch):
        # Under root, chmod cannot deny a write, so open() is made to.
        def denied(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(cli, "open", denied, raising=False)
        out = tmp_path / "o"
        assert main(["budget", "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: --out {out}: cannot write budget.csv: Permission denied\n"
        assert os.listdir(out) == []

    @pytest.mark.parametrize("command", ["budget", "ledger"])
    def test_grid_too_wide_for_the_shot_asd_exits_2_without_warnings(self, command, tmp_path):
        # The shot ASD rises as f / sr_pole_hz and overflows far below f = 1e200.
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("f_max_hz = 1e200\nband_max_hz = 5000\n", encoding="utf-8")
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
        message = (
            f"error: {cfg}: line 1: f_max_hz = 1e+200 violates bound: "
            "must keep the unsqueezed shot ASD finite (sr_pole_hz = 400.0)\n"
        )
        for work in FLOAT_WORK.values():
            proc = run_fresh(argv, tmp_path, float_work=work)
            assert proc.returncode == EXIT_CONFIG
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

    def test_invalid_value_exits_2_with_index(self, tmp_path, capsys, monkeypatch):
        argv = ["sweep", "--axis", "eta", "--values", "0.5,1.3", "--out", str(tmp_path / "o")]
        errors = set()
        for work in FLOAT_WORK.values():
            monkeypatch.setattr(cli, "_FLOAT_WORK", work)
            assert main(argv) == EXIT_CONFIG
            errors.add(capsys.readouterr().err)
        assert len(errors) == 1
        assert errors.pop().startswith("error: sweep eta value [1]: eta_total = 1.3 violates bound")

    def test_failing_budget_names_the_value_index(self, tmp_path):
        # Value 0 is valid; value 1 reads out 300 dB of anti-squeezing,
        # which build_report rejects after the RunConfig was accepted.
        cfg = tmp_path / "anti.cfg"
        cfg.write_text(ANTISQUEEZE_AT_F_MAX, encoding="utf-8")
        argv = ["sweep", "--config", str(cfg), "--axis", "injected_db", "--values", "0,300"]
        for work in FLOAT_WORK.values():
            proc = run_fresh(argv + ["--out", str(tmp_path / "o")], tmp_path, float_work=work)
            assert proc.returncode == EXIT_CONFIG
            assert proc.stderr == (
                "error: sweep injected_db value [1]: antisqueeze_db = 300.0 violates bound: "
                "must keep the squeezed quantum ASD finite up to f_max_hz "
                "at this injection_angle_rad\n"
            )
            assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
            assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("path", sorted(FLOAT_WORK))
    @pytest.mark.parametrize(
        "config_text, axis, values, stderr",
        [
            ("", "eta", "0.5,0.6,0.7,1.3",
             "error: sweep eta value [3]: eta_total = 1.3 violates bound: must lie in (0, 1]\n"),
            (ANTISQUEEZE_AT_F_MAX, "injected_db", "0,3,300,301",
             "error: sweep injected_db value [2]: antisqueeze_db = 300.0 violates bound: "
             "must keep the squeezed quantum ASD finite up to f_max_hz "
             "at this injection_angle_rad\n"),
            (SPARSE_GRID, "sigma", "0.1,0.2", f"error: sweep sigma value [0]: {EMPTY_BAND}\n"),
            (SUBNORMAL_SHOT, "injected_db", "0,3,250,301",
             "error: sweep injected_db value [2]: "
             "quantum must be positive and tech non-negative\n"),
        ],
        ids=["bad-value", "antisqueeze-overflow", "empty-band", "squeezed-shot-underflow"],
    )
    def test_first_failing_value_is_reported_alike_on_both_paths(
        self, tmp_path, capsys, monkeypatch, path, config_text, axis, values, stderr
    ):
        # Each text is the failing check's own message under the sweep's
        # prefix, the same on both paths.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config_text, encoding="utf-8")
        monkeypatch.setattr(cli, "_FLOAT_WORK", FLOAT_WORK[path])
        argv = ["sweep", "--config", str(cfg), "--axis", axis, "--values", values]
        assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert capsys.readouterr().err == stderr
        assert not (tmp_path / "o").exists()

    def test_band_without_grid_points_names_the_value_index(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "sparse.cfg"
        cfg.write_text(SPARSE_GRID, encoding="utf-8")
        argv = ["sweep", "--config", str(cfg), "--values", "0.5,0.6"]
        for work in FLOAT_WORK.values():
            monkeypatch.setattr(cli, "_FLOAT_WORK", work)
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

    @pytest.mark.parametrize(
        "argv",
        [["--values", ","], ["--values", " , ,", "--solve-improvement-db", "6"]],
    )
    def test_values_without_a_number_exits_2_and_names_the_flag(self, argv, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["sweep", *argv, "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == f"error: --values must hold at least one number, got {argv[1]!r}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_needs_values_or_solve(self, tmp_path, capsys):
        assert main(["sweep", "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_solve_only_csv_exits_2_and_names_both_flags(self, tmp_path, capsys):
        out = tmp_path / "o"
        out.mkdir()
        argv = ["sweep", "--solve-improvement-db", "6", "--format", "csv", "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == (
            "error: --format csv drops --solve-improvement-db: the required efficiency "
            "is written only to sweep.json; use --format json or all\n"
        )
        assert captured.out == ""
        assert os.listdir(out) == []

    def test_solve_with_values_and_csv_exits_2_and_names_both_flags(self, tmp_path, capsys):
        out = tmp_path / "o"
        argv = ["sweep", "--values", "0.5,0.6", "--solve-improvement-db", "6", "--format", "csv"]
        assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == (
            "error: --format csv drops --solve-improvement-db: the required efficiency "
            "is written only to sweep.json; use --format json or all\n"
        )
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "target, message",
        [
            ("nan", "target_db = nan violates bound: must be > 0 and finite"),
            ("20", "target of 20.0 dB exceeds the injected 10.0 dB; unreachable at any efficiency"),
        ],
    )
    def test_bad_solve_target_names_the_flag(self, target, message, tmp_path, capsys):
        argv = ["sweep", "--solve-improvement-db", target, "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: --solve-improvement-db: {message}\n"
        assert not (tmp_path / "o").exists()


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

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB only on Linux")
    def test_peak_memory_grows_by_under_two_and_a_half_sample_arrays(self, tmp_path):
        # Two checks run at once, each holding one n-sample array and one
        # block, so 1e6 samples should cost about two 8 MB arrays more
        # than 1e4 samples, whose arrays fit in one block.
        def peak_rss_bytes(samples):
            argv = ["oracle", "--samples", str(samples), "--out", str(tmp_path / "o")]
            proc = subprocess.Popen(
                [sys.executable, "-m", "sqzbudget.cli", *argv],
                cwd=tmp_path,
                env={**os.environ, "PYTHONPATH": str(SRC)},
                stdout=subprocess.DEVNULL,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
            assert proc.returncode == EXIT_OK
            return usage.ru_maxrss * 1024

        array = 1_000_000 * 8
        growth = peak_rss_bytes(1_000_000) - peak_rss_bytes(10_000)
        assert growth < 2.5 * array

    def test_undersized_run_is_a_config_error(self, tmp_path):
        code = main(["oracle", "--out", str(tmp_path / "o"), "--samples", "100"])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--seed", "-1", "seed = -1 violates bound: must be >= 0"),
            ("--samples", "10000001", "n_samples = 10000001 violates bound: must be <= 10000000"),
            ("--samples", "5000", "n_samples = 5000 violates bound: oracle verdicts need >= 10000"),
        ],
    )
    def test_out_of_range_argument_exits_2(self, flag, value, message, tmp_path, capsys):
        # All are rejected before the generator or any sample array exists.
        code = main(["oracle", "--out", str(tmp_path / "o"), flag, value])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {flag}: {message}\n"
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
        with pytest.raises(UnicodeEncodeError if failure == "encode" else ConfigError):
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
    """Only subcommands that build or read an array import numpy.

    ``budget`` does so only above ``cli._FLOAT_WORK`` grid points, and
    ``sweep`` only above ``cli._SWEEP_FLOAT_SCALE`` times that many grid
    points times values; up to it they run on floats.
    """

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
            (["budget", "--out", "out"], EXIT_OK, False),
            (["sweep", "--values", ",".join(["0.5"] * 10), "--solve-improvement-db", "6",
              "--out", "out"], EXIT_OK, False),
            (["budget", "--config", "at_limit.cfg", "--out", "out"], EXIT_OK, False),
            (["budget", "--config", "over_limit.cfg", "--out", "out"], EXIT_OK, True),
            (["sweep", "--config", "sweep_at_limit.cfg", "--values", ",".join(["0.5"] * 100),
              "--out", "out"], EXIT_OK, False),
            (["sweep", "--config", "sweep_over_limit.cfg", "--values", ",".join(["0.5"] * 100),
              "--out", "out"], EXIT_OK, True),
        ],
    )
    def test_numpy_loads_only_for_arrays(self, argv, code, loaded, tmp_path):
        (tmp_path / "bad.cfg").write_text("eta_total = 1.5\n", encoding="utf-8")
        sweep_points = cli._FLOAT_WORK * cli._SWEEP_FLOAT_SCALE // 100  # at 100 values
        for name, points in (
            ("at_limit", cli._FLOAT_WORK),
            ("over_limit", cli._FLOAT_WORK + 1),
            ("sweep_at_limit", sweep_points),
            ("sweep_over_limit", sweep_points + 1),
        ):
            (tmp_path / f"{name}.cfg").write_text(f"grid_points = {points}\n", encoding="utf-8")
        proc = run_fresh(argv, tmp_path)
        assert proc.returncode == code, proc.stderr
        assert proc.stdout.endswith(f"\nnumpy loaded: {loaded}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["budget", "--out", "out"],
            ["sweep", "--values", "0.5,0.6", "--out", "out"],
            ["oracle", "--samples", "10000", "--out", "out"],
        ],
    )
    def test_no_masked_arrays_or_executors(self, argv, tmp_path):
        # On the array path, the band median is taken without np.median,
        # whose NaN check loads numpy.ma; the oracle's threads need no
        # executor.
        script = (
            "import sys\n"
            "from sqzbudget.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "unwanted = ('numpy.ma', 'concurrent.futures')\n"
            "print('\\nloaded:', [m for m in unwanted if m in sys.modules])\n"
            "sys.exit(code)\n"
        )
        proc = run_fresh(argv, tmp_path, script, float_work=0)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.endswith("\nloaded: []\n")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "budget" in capsys.readouterr().out


ORACLE_HELP = """\
usage: sqzbudget oracle [-h] [--out OUT] [--seed SEED] [--samples SAMPLES]

options:
  -h, --help         show this help message and exit
  --out OUT          output directory (default: out)
  --seed SEED        RNG seed (default: 42)
  --samples SAMPLES  samples per check (default: 1000000)
"""


def test_oracle_help_prints_the_defaults(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["oracle", "--help"]) == 0
    assert capsys.readouterr().out == ORACLE_HELP


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
