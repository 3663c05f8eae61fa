"""Command-line interface.

Subcommands::

    budget   evaluate the noise budget, write spectra/summary/plot
    ledger   tabulate the loss chain stage by stage
    sweep    scan eta, injected dB, or jitter; invert for a target
    oracle   Monte-Carlo check of the quadrature algebra
    preset   print the GEO 600 default configuration

Data goes to standard output and to files under ``--out``; diagnostics
go to standard error. Exit codes: 0 success, 2 configuration error,
3 oracle failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .budget import SWEEP_AXES, build_report, required_efficiency_for_improvement, sweep
from .config import default_config_text, default_run_config, load_config
from .errors import ConfigError, DomainError
from .losses import degradation_report
from .oracle import standard_suite
from .report import (
    budget_csv,
    ledger_csv,
    oracle_json,
    spectrum_svg,
    summary_json,
    sweep_csv,
    sweep_json,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ORACLE = 3

# budget and sweep run on Python floats, without importing numpy, when their
# work is at most a limit, and on numpy arrays above it: about where the
# float evaluation costs what importing numpy does. Both write the same text.
# A budget's work is its grid points, and its limit is this.
_FLOAT_WORK = 20_000
# A sweep's work is its grid points times its values, and its limit is this
# many times _FLOAT_WORK: a sweep evaluates the instrument's curves once, so
# its float evaluation comes to cost what importing numpy does at about
# eleven times a budget's work.
_SWEEP_FLOAT_SCALE = 11

# Library keys that hold a command-line flag's value.
_FLAG_OF_KEY = {"n_samples": "--samples", "seed": "--seed", "target_db": "--solve-improvement-db"}


def _use_color(stream) -> bool:
    if os.environ.get("NO_COLOR"):
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


def _error(message: str) -> None:
    prefix = "error:"
    if _use_color(sys.stderr):
        prefix = "\x1b[31merror:\x1b[0m"
    print(f"{prefix} {message}", file=sys.stderr)


def _write(out_dir: str, name: str, content: str) -> None:
    # Write beside the target, then rename over it: an interrupted run
    # leaves the previous file whole, and open() applies the usual umask.
    path = os.path.join(out_dir, name)
    tmp = os.path.join(out_dir, f".{name}.{os.getpid()}.tmp")
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.remove(tmp)
        if isinstance(exc, OSError):
            reason = exc.strerror or exc
            raise ConfigError(f"--out {out_dir}: cannot write {name}: {reason}") from None
        raise
    _diag(f"wrote {path}")


def _load_run(args):
    if args.config is None:
        return default_run_config()
    return load_config(args.config)


def _cmd_budget(args) -> int:
    run = _load_run(args)
    report = build_report(run, run.grid_points <= _FLOAT_WORK)
    summary = summary_json(report)
    if args.format in ("csv", "all"):
        _write(args.out, "budget.csv", budget_csv(report))
    if args.format in ("json", "all"):
        _write(args.out, "summary.json", summary)
    if args.format in ("svg", "all"):
        _write(args.out, "spectrum.svg", spectrum_svg(report))
    sys.stdout.write(summary)
    return EXIT_OK


def _cmd_ledger(args) -> int:
    run = _load_run(args)
    text = ledger_csv(
        degradation_report(run.level, run.loss_stages),
        eta_effective=run.eta_total,
    )
    _write(args.out, "ledger.csv", text)
    sys.stdout.write(text)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.format == "csv" and args.solve_improvement_db is not None:
        raise ConfigError(
            "--format csv drops --solve-improvement-db: the required efficiency "
            "is written only to sweep.json; use --format json or all"
        )
    run = _load_run(args)
    extra = None
    if args.solve_improvement_db is not None:
        eta = required_efficiency_for_improvement(args.solve_improvement_db, run.level)
        extra = {
            "required_eta": {
                "target_improvement_db": args.solve_improvement_db,
                "squeeze_db": run.level.squeeze_db,
                "eta": eta,
            }
        }
    rows = ()
    if args.values is not None:
        try:
            values = [float(v) for v in args.values.split(",") if v.strip()]
        except ValueError:
            raise ConfigError(f"--values must be a comma list of numbers, got {args.values!r}")
        if not values:
            raise ConfigError(f"--values must hold at least one number, got {args.values!r}")
        floats = run.grid_points * len(values) <= _FLOAT_WORK * _SWEEP_FLOAT_SCALE
        rows = sweep(run, args.axis, values, floats)
    elif extra is None:
        raise ConfigError("sweep needs --values, --solve-improvement-db, or both")
    text = sweep_csv(args.axis, rows) if rows else sweep_json(args.axis, rows, extra)
    if rows and args.format in ("csv", "all"):
        _write(args.out, "sweep.csv", text)
    if args.format in ("json", "all"):
        _write(args.out, "sweep.json", sweep_json(args.axis, rows, extra) if rows else text)
    sys.stdout.write(text)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    verdicts = standard_suite(seed=args.seed, n_samples=args.samples)
    text = oracle_json(verdicts)
    _write(args.out, "oracle.json", text)
    sys.stdout.write(text)
    failed = [v.name for v in verdicts if not v.passed]
    if failed:
        _error(f"oracle checks failed: {', '.join(failed)}")
        return EXIT_ORACLE
    return EXIT_OK


def _cmd_preset(args) -> int:
    sys.stdout.write(default_config_text())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqzbudget",
        description="Quantum-noise budget for a squeezed-light interferometer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=None):
        p.add_argument("--config", help="config file (default: GEO 600 preset)")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        if formats:
            p.add_argument(
                "--format",
                choices=formats,
                default="all",
                help="which outputs to write (default: all)",
            )

    p_budget = sub.add_parser("budget", help="evaluate the noise budget")
    common(p_budget, formats=("csv", "json", "svg", "all"))
    p_budget.set_defaults(func=_cmd_budget)

    p_ledger = sub.add_parser("ledger", help="stage-by-stage loss ledger")
    common(p_ledger)
    p_ledger.set_defaults(func=_cmd_ledger)

    p_sweep = sub.add_parser("sweep", help="scan a parameter axis")
    common(p_sweep, formats=("csv", "json", "all"))
    p_sweep.add_argument(
        "--axis",
        choices=SWEEP_AXES,
        default="eta",
        help="parameter to scan (default: eta)",
    )
    p_sweep.add_argument("--values", help="comma list of axis values")
    p_sweep.add_argument(
        "--solve-improvement-db",
        type=float,
        help="report the efficiency required for this shot-limited improvement",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="Monte-Carlo variance checks")
    p_oracle.add_argument("--out", default="out", help="output directory (default: out)")
    p_oracle.add_argument("--seed", type=int, default=42, help="RNG seed (default: %(default)s)")
    p_oracle.add_argument(
        "--samples",
        type=int,
        default=1_000_000,
        help="samples per check (default: %(default)s)",
    )
    p_oracle.set_defaults(func=_cmd_oracle)

    p_preset = sub.add_parser("preset", help="print the GEO 600 default config")
    p_preset.set_defaults(func=_cmd_preset)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on --help and usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        _error(str(exc))
        return EXIT_CONFIG
    except DomainError as exc:
        # Flag values checked in the library are reported under their flag.
        flag = _FLAG_OF_KEY.get(exc.keys[0]) if exc.keys else None
        _error(f"{flag}: {exc}" if flag else str(exc))
        return EXIT_CONFIG
    except OSError as exc:
        _error(str(exc))
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
