"""Output emitters: CSV spectra, JSON summary, SVG plot, ledger table.

All numbers are written with 9 significant digits and all JSON keys are
sorted, so identical runs produce byte-identical files. ``to_json`` and
``_csv`` apply that rule, so the emitters hand them raw values. ``_csv``
formats a table column-wise: it builds one row template from the cell
types of the first row (``%s`` for a string, ``%.9g`` for a number,
which writes the same bytes as ``fmt9``) and applies it to a few
thousand rows at a time with a single ``%`` operation, so no numpy
scalar and no per-cell call reaches the formatter. Nothing here writes
timestamps, hostnames, or absolute paths.
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


# Rows formatted per ``%`` operation: bounds the cells held at once.
_CSV_CHUNK_ROWS = 4096


def _csv(head: Sequence[str], rows) -> str:
    """Header lines, then one comma-joined line per row.

    ``rows`` is a 2-D float array or a list of row tuples whose cells
    have the types of the first row's. Numbers are written as ``fmt9``
    would write them; strings pass through unchanged.
    """
    parts = [line + "\n" for line in head]
    template = ""
    for start in range(0, len(rows), _CSV_CHUNK_ROWS):
        chunk = rows[start : start + _CSV_CHUNK_ROWS]
        if hasattr(chunk, "ravel"):  # a 2-D array, without importing numpy
            cells = chunk.ravel().tolist()
        else:
            cells = [v for row in chunk for v in row]
        if not template:
            first = cells[: len(chunk[0])]
            template = ",".join(["%s" if isinstance(v, str) else "%.9g" for v in first]) + "\n"
        parts.append(template * len(chunk) % tuple(cells))
    return "".join(parts)


def budget_csv(report: BudgetReport) -> str:
    """Spectra table: one row per grid point.

    Strain columns are ASDs in 1/sqrt(Hz); the trailing displacement
    columns are the same totals referred to test-mass motion
    (strain * arm_length_eff, m/sqrt(Hz)).
    """
    import numpy as np

    arm = report.run.ifo.arm_length_eff
    head = [
        "# strain noise budget",
        f"# {DB_CONVENTIONS}",
        "# disp columns: total strain referred to displacement "
        "(strain * arm_length_eff, m/sqrt(Hz))",
        "f_hz,asd_off,asd_on,improvement_db,shot_off,tech,disp_off,disp_on",
    ]
    off = report.spectrum_off
    on = report.spectrum_on
    table = np.column_stack(
        (
            off.grid.values,
            off.total,
            on.total,
            report.improvement_db,
            off.quantum,
            off.tech,
            off.total * arm,
            on.total * arm,
        )
    )
    return _csv(head, table)


def ledger_csv(rows: Sequence[DegradationRow], eta_effective: float | None = None) -> str:
    """Loss-ledger table, one row per stage.

    When a measured overall efficiency overrides the stage product, a
    trailing comment records both numbers.
    """
    head = ["stage,efficiency,eta_cumulative,v_sq_cumulative,squeeze_db_cumulative"]
    # DegradationRow declares its fields in column order.
    text = _csv(head, [tuple(vars(row).values()) for row in rows])
    product = rows[-1].eta_cumulative if rows else 1.0
    if eta_effective is not None and eta_effective != product:
        text += (
            f"# budget uses measured eta_total = {fmt9(eta_effective)} "
            f"(stage product {fmt9(product)})\n"
        )
    return text


def summary_dict(report: BudgetReport) -> dict:
    """JSON-ready summary of one budget evaluation (unrounded values)."""
    run = report.run
    return {
        "schema_version": SCHEMA_VERSION,
        "db_conventions": DB_CONVENTIONS,
        "instrument": {
            "arm_length_eff_m": run.ifo.arm_length_eff,
            "power_bs_w": run.ifo.power_bs,
            "wavelength_m": run.ifo.wavelength,
            "sr_pole_hz": run.ifo.sr_pole_hz,
            "tech_displacement_asd": run.ifo.tech_displacement_asd,
            "tech_corner_hz": run.ifo.tech_corner_hz,
        },
        "anchor": {
            "freq_hz": run.ifo.anchor_freq_hz,
            "asd": run.ifo.anchor_asd,
            "computed_asd": report.anchor_computed_asd,
        },
        "injected": {
            "squeeze_db": run.level.squeeze_db,
            "antisqueeze_db": run.level.antisqueeze_db,
            "injection_angle_rad": run.injection_angle_rad,
            "sigma_jitter_rad": run.sigma_jitter_rad,
        },
        "losses": {
            "eta_effective": report.eta_effective,
            "eta_stage_product": report.eta_stage_product,
            "eta_total_override": run.eta_total,
            "stages": [dict(vars(row)) for row in report.ledger],  # not the rows' own dicts
        },
        "grid": {
            "f_min_hz": run.f_min_hz,
            "f_max_hz": run.f_max_hz,
            "points": run.grid_points,
            "spacing": run.grid_spacing,
        },
        "band_hz": [run.band_min_hz, run.band_max_hz],
        "squeezing_factor": report.squeezing_factor,
        "broadband_improvement_db": report.broadband_improvement_db,
        "shot_limited_improvement_db": report.shot_limited_improvement_db,
        "rate_gain": report.rate_gain,
    }


def _rounded(value):
    """``value`` with every float inside it rounded to nine digits."""
    if isinstance(value, float):
        return float(fmt9(value))
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(item) for item in value]
    return value


def to_json(payload: dict) -> str:
    """Sorted-key JSON with every float rounded to nine digits."""
    return json.dumps(_rounded(payload), indent=2, sort_keys=True) + "\n"


def summary_json(report: BudgetReport) -> str:
    return to_json(summary_dict(report))


def sweep_csv(axis: str, rows: Sequence[SweepRow]) -> str:
    head = [
        f"# sweep axis: {axis}",
        "value,broadband_improvement_db,shot_limited_improvement_db,rate_gain",
    ]
    # SweepRow declares its fields in column order.
    return _csv(head, [tuple(vars(row).values()) for row in rows])


def sweep_json(axis: str, rows: Sequence[SweepRow], extra: dict | None = None) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "axis": axis,
        "rows": [vars(row) for row in rows],
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
                "analytic_variance": v.analytic,
                "estimated_variance": v.run.estimated_variance,
                "standard_error": v.run.standard_error,
                "z": v.z,
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
    import numpy as np

    off, on = report.spectrum_off, report.spectrum_on
    f = off.grid.values
    traces = []
    if np.all(off.tech > 0.0):  # a zero envelope cannot sit on log axes
        traces.append(
            Trace("technical envelope", "#909090", f, off.tech, width=1.0, dash="4 3")
        )
    traces.extend(
        [
            Trace(
                "shot noise (no squeezing)",
                "#7aa6d6",
                f,
                off.quantum,
                width=1.0,
                dash="6 3",
            ),
            Trace("total, squeezing off", "#1f3b70", f, off.total),
            Trace("total, squeezing on", "#b03030", f, on.total),
        ]
    )
    return render_loglog(
        traces,
        title="Strain noise budget with and without squeezed light",
        xlabel="frequency (Hz)",
        ylabel="strain ASD (1/sqrt(Hz))",
    )
