"""Output emitters: CSV spectra, JSON summary, SVG plot, ledger table.

All numbers are written with 9 significant digits and all JSON keys are
sorted, so identical runs produce byte-identical files. ``to_json``,
``budget_csv``, ``ledger_csv`` and ``sweep_csv`` apply that rule, so the
emitters hand them raw values. ``budget_csv`` writes the spectra's array
through ``_numfmt.format_rows``, which computes each cell's ``%.9g``
digits with numpy array operations, three 8-byte words per cell, and
hands any row holding a cell it cannot prove exact (NaN, inf, extreme
magnitudes, near-ties) back to ``%``. It cuts a table into chunks of
about 16,384 cells (2048 rows of the spectra), makes two or more on up
to two threads and joins them in order, so the bytes do not depend on
the thread count. The spectra of a run on a float grid, which must not
load numpy, are written row by row with one ``%`` row template, the
one ``format_rows`` applies to the rows it cannot prove exact; so is
the ledger, which has a text column. A sweep's columns are interleaved
into one ``%`` template, whose text also lays out ``sweep.json``'s rows,
so each cell is rounded once. Either way the bytes are those of ``fmt9``.
Nothing here writes timestamps, hostnames, or absolute paths.
"""

from __future__ import annotations

import json
import re
from typing import Sequence

from ._numfmt import format_rows
from .budget import BudgetReport, SweepTable
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
    head = (
        "# strain noise budget\n"
        f"# {DB_CONVENTIONS}\n"
        "# disp columns: total strain referred to displacement "
        "(strain * arm_length_eff, m/sqrt(Hz))\n"
        "f_hz,asd_off,asd_on,improvement_db,shot_off,tech,disp_off,disp_on\n"
    )
    off = report.spectrum_off
    on = report.spectrum_on
    columns = (off.grid.values, off.total, on.total, report.improvement_db, off.quantum, off.tech)
    if isinstance(off.total, tuple):  # a float grid's spectra
        template = ",".join(["%.9g"] * 8) + "\n"
        rows = zip(*columns, [t * arm for t in off.total], [t * arm for t in on.total])
        return head + "".join([template % row for row in rows])
    import numpy as np

    table = np.column_stack(columns + (off.total * arm, on.total * arm))
    return head + "".join(format_rows(table))


def ledger_csv(rows: Sequence[DegradationRow], eta_effective: float | None = None) -> str:
    """Loss-ledger table, one row per stage.

    When a measured overall efficiency overrides the stage product, a
    trailing comment records both numbers.
    """
    text = "stage,efficiency,eta_cumulative,v_sq_cumulative,squeeze_db_cumulative\n"
    # DegradationRow declares its fields in column order.
    text += "".join("%s,%.9g,%.9g,%.9g,%.9g\n" % tuple(vars(row).values()) for row in rows)
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


def sweep_csv(axis: str, table: SweepTable) -> str:
    cells = [0.0] * (4 * len(table))  # the columns, interleaved row by row
    cells[0::4], cells[1::4], cells[2::4], cells[3::4] = vars(table).values()
    head = "value,broadband_improvement_db,shot_limited_improvement_db,rate_gain\n"
    return f"# sweep axis: {axis}\n{head}" + ("%.9g,%.9g,%.9g,%.9g\n" * len(table)) % tuple(cells)


# One row of sweep.json as ``to_json`` lays it out: sorted keys, indent 2.
_SWEEP_ROW = (
    '    {\n      "broadband_improvement_db": %s,\n      "rate_gain": %s,\n'
    '      "shot_limited_improvement_db": %s,\n      "value": %s\n    }'
)
# %.9g cells that json's repr writes otherwise: e+09 to e+15 in fixed
# notation, and the subnormals (in e-3xx) with fewer digits.
_NOT_REPR = re.compile(r"e\+(?:09|1[0-5])(?!\d)|e-3\d\d")


def sweep_json(
    axis: str, table: SweepTable, extra: dict | None = None, csv_text: str | None = None
) -> str:
    """``to_json`` of the axis, the table's rows and ``extra`` (whose keys win).

    json's indented encoder is pure Python, so a table of floats is laid out
    from the cells of ``csv_text``, ``sweep_csv(axis, table)`` (made here if
    None): json writes a ``%.9g`` float as its text, ``.0`` after a bare
    integer, or as repr in a table where ``_NOT_REPR`` finds a cell. Nan, inf,
    no rows or a "rows" key in ``extra`` take ``to_json`` whole. Same bytes.
    """
    extra = extra or {}
    body = None
    if len(table) and "rows" not in extra:
        lines = (csv_text or sweep_csv(axis, table)).split("\n", 2)[2]
        if "n" not in lines:  # no nan or inf, which json spells its own way
            cells = lines.replace("\n", ",").split(",")[:-1]
            if _NOT_REPR.search(lines):
                cells = [repr(float(t)) for t in cells]
            else:
                cells = [t if "." in t or "e" in t else t + ".0" for t in cells]
            keyed = cells[:]  # json's key order: columns 1, 3, 2, 0
            keyed[0::4], keyed[1::4], keyed[3::4] = cells[1::4], cells[3::4], cells[0::4]
            body = ",\n".join([_SWEEP_ROW] * len(table)) % tuple(keyed)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "axis": axis,
        "rows": [vars(row) for row in table] if body is None else [],
    }
    payload.update(extra)
    text = to_json(payload)
    if body is None:
        return text
    return text.replace('\n  "rows": []', f'\n  "rows": [\n{body}\n  ]', 1)


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
    off, on = report.spectrum_off, report.spectrum_on
    f = off.grid.values
    traces = []
    tech = off.tech
    # A zero envelope cannot sit on log axes.
    if (min(tech) > 0.0) if isinstance(tech, tuple) else (tech > 0.0).all():
        traces.append(
            Trace("technical envelope", "#909090", f, off.tech, width=1.0, dash="4 3")
        )
    traces += [
        Trace("shot noise (no squeezing)", "#7aa6d6", f, off.quantum, width=1.0, dash="6 3"),
        Trace("total, squeezing off", "#1f3b70", f, off.total),
        Trace("total, squeezing on", "#b03030", f, on.total),
    ]
    return render_loglog(traces)
