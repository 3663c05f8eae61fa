"""Output emitters: CSV spectra, JSON summary, SVG plot, ledger table.

All numbers are written with 9 significant digits and all JSON keys are
sorted, so identical runs produce byte-identical files. Nothing here
writes timestamps, hostnames, or absolute paths.
"""

from __future__ import annotations

import json
from typing import Sequence

from .budget import BudgetReport, SweepRow
from .losses import DegradationRow
from .oracle import Z_MAX, OracleVerdict
from .svgplot import Trace, render_loglog

SCHEMA_VERSION = 1

DB_CONVENTIONS = (
    "dB of a variance or noise-power ratio is 10*log10; improvement_db = "
    "20*log10(asd_off/asd_on), the power dB of the noise-power ratio; "
    "squeeze_db = -10*log10(v_sq)"
)


def fmt9(value: float) -> str:
    """Format with 9 significant digits (the package-wide file format)."""
    return f"{float(value):.9g}"


def budget_csv(report: BudgetReport) -> str:
    """Spectra table: one row per grid point.

    Strain columns are ASDs in 1/sqrt(Hz); the trailing displacement
    columns are the same totals referred to test-mass motion
    (strain * arm_length_eff, m/sqrt(Hz)).
    """
    arm = report.run.ifo.arm_length_eff
    lines = [
        "# strain noise budget",
        f"# {DB_CONVENTIONS}",
        "# disp columns: total strain referred to displacement "
        "(strain * arm_length_eff, m/sqrt(Hz))",
        "f_hz,asd_off,asd_on,improvement_db,shot_off,tech,disp_off,disp_on",
    ]
    off = report.spectrum_off
    on = report.spectrum_on
    for i, f in enumerate(off.grid.values):
        lines.append(
            ",".join(
                (
                    fmt9(f),
                    fmt9(off.total[i]),
                    fmt9(on.total[i]),
                    fmt9(report.improvement_db[i]),
                    fmt9(off.quantum[i]),
                    fmt9(off.tech[i]),
                    fmt9(off.total[i] * arm),
                    fmt9(on.total[i] * arm),
                )
            )
        )
    return "\n".join(lines) + "\n"


def ledger_csv(rows: Sequence[DegradationRow], eta_effective: float | None = None) -> str:
    """Loss-ledger table, one row per stage.

    When a measured overall efficiency overrides the stage product, a
    trailing comment records both numbers.
    """
    lines = [
        "stage,efficiency,eta_cumulative,v_sq_cumulative,squeeze_db_cumulative",
    ]
    product = 1.0
    for row in rows:
        product *= row.efficiency
        lines.append(
            ",".join(
                (
                    row.name,
                    fmt9(row.efficiency),
                    fmt9(row.eta_cumulative),
                    fmt9(row.v_sq_cumulative),
                    fmt9(row.squeeze_db_cumulative),
                )
            )
        )
    if eta_effective is not None and eta_effective != product:
        lines.append(
            f"# budget uses measured eta_total = {fmt9(eta_effective)} "
            f"(stage product {fmt9(product)})"
        )
    return "\n".join(lines) + "\n"


def _round9(value: float) -> float:
    return float(fmt9(value))


def summary_dict(report: BudgetReport) -> dict:
    """JSON-ready summary of one budget evaluation."""
    run = report.run
    return {
        "schema_version": SCHEMA_VERSION,
        "db_conventions": DB_CONVENTIONS,
        "instrument": {
            "arm_length_eff_m": _round9(run.ifo.arm_length_eff),
            "power_bs_w": _round9(run.ifo.power_bs),
            "wavelength_m": _round9(run.ifo.wavelength),
            "sr_pole_hz": _round9(run.ifo.sr_pole_hz),
            "tech_displacement_asd": _round9(run.ifo.tech_displacement_asd),
            "tech_corner_hz": _round9(run.ifo.tech_corner_hz),
        },
        "anchor": {
            "freq_hz": _round9(run.ifo.anchor_freq_hz),
            "asd": _round9(run.ifo.anchor_asd),
            "computed_asd": _round9(report.anchor_computed_asd),
        },
        "injected": {
            "squeeze_db": _round9(run.level.squeeze_db),
            "antisqueeze_db": _round9(run.level.antisqueeze_db),
            "injection_angle_rad": _round9(run.injection_angle_rad),
            "sigma_jitter_rad": _round9(run.sigma_jitter_rad),
        },
        "losses": {
            "eta_effective": _round9(report.eta_effective),
            "eta_stage_product": _round9(report.eta_stage_product),
            "eta_total_override": (
                None if run.eta_total is None else _round9(run.eta_total)
            ),
            "stages": [
                {
                    "name": row.name,
                    "efficiency": _round9(row.efficiency),
                    "eta_cumulative": _round9(row.eta_cumulative),
                    "v_sq_cumulative": _round9(row.v_sq_cumulative),
                    "squeeze_db_cumulative": _round9(row.squeeze_db_cumulative),
                }
                for row in report.ledger
            ],
        },
        "grid": {
            "f_min_hz": _round9(run.f_min_hz),
            "f_max_hz": _round9(run.f_max_hz),
            "points": run.grid_points,
            "spacing": run.grid_spacing,
        },
        "band_hz": [_round9(run.band_min_hz), _round9(run.band_max_hz)],
        "squeezing_factor": _round9(report.squeezing_factor),
        "broadband_improvement_db": _round9(report.broadband_improvement_db),
        "shot_limited_improvement_db": _round9(report.shot_limited_improvement_db),
        "rate_gain": _round9(report.rate_gain),
    }


def to_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def summary_json(report: BudgetReport) -> str:
    return to_json(summary_dict(report))


def sweep_csv(axis: str, rows: Sequence[SweepRow]) -> str:
    lines = [
        f"# sweep axis: {axis}",
        "value,broadband_improvement_db,shot_limited_improvement_db,rate_gain",
    ]
    for row in rows:
        lines.append(
            ",".join(
                (
                    fmt9(row.value),
                    fmt9(row.broadband_improvement_db),
                    fmt9(row.shot_limited_improvement_db),
                    fmt9(row.rate_gain),
                )
            )
        )
    return "\n".join(lines) + "\n"


def sweep_json(axis: str, rows: Sequence[SweepRow], extra: dict | None = None) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "axis": axis,
        "rows": [
            {
                "value": _round9(row.value),
                "broadband_improvement_db": _round9(row.broadband_improvement_db),
                "shot_limited_improvement_db": _round9(row.shot_limited_improvement_db),
                "rate_gain": _round9(row.rate_gain),
            }
            for row in rows
        ],
    }
    if extra:
        payload.update(extra)
    return to_json(payload)


def oracle_json(verdicts: Sequence[OracleVerdict]) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "z_max": Z_MAX,
        "all_passed": all(v.passed for v in verdicts),
        "checks": [
            {
                "name": v.name,
                "analytic_variance": _round9(v.analytic),
                "estimated_variance": _round9(v.run.estimated_variance),
                "standard_error": _round9(v.run.standard_error),
                "z": _round9(v.z),
                "n_samples": v.run.n_samples,
                "seed": v.run.seed,
                "passed": v.passed,
            }
            for v in verdicts
        ],
    }
    return to_json(payload)


def spectrum_svg(report: BudgetReport) -> str:
    """Log-log spectrum plot: squeezing off/on totals plus the parts."""
    f = list(report.spectrum_off.grid.values)
    traces = []
    tech = list(report.spectrum_off.tech)
    if all(v > 0.0 for v in tech):  # a zero envelope cannot sit on log axes
        traces.append(
            Trace("technical envelope", "#909090", f, tech, width=1.0, dash="4 3")
        )
    traces.extend(
        [
            Trace(
                "shot noise (no squeezing)",
                "#7aa6d6",
                f,
                list(report.spectrum_off.quantum),
                width=1.0,
                dash="6 3",
            ),
            Trace("total, squeezing off", "#1f3b70", f, list(report.spectrum_off.total)),
            Trace("total, squeezing on", "#b03030", f, list(report.spectrum_on.total)),
        ]
    )
    return render_loglog(
        traces,
        title="Strain noise budget with and without squeezed light",
        xlabel="frequency (Hz)",
        ylabel="strain ASD (1/sqrt(Hz))",
    )
