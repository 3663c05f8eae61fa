"""Noise-budget assembly: spectra, improvement metrics, sweeps.

The budget combines the quantum-noise ASD (scaled by the squeezing
factor) with the technical envelope in quadrature, and reports the
squeezed-versus-unsqueezed improvement two ways:

* ``broadband_improvement_db``: median of the per-frequency improvement
  over the summary band, taken from the full spectra (technical noise
  dilutes it at the low edge of the band);
* ``shot_limited_improvement_db``: the asymptote where quantum noise
  dominates, -20*log10(squeezing factor). This is the number that
  saturates at -10*log10(1 - eta) for strong injected squeezing.

Improvements are power dB of the noise-power ratio, i.e.
20*log10(asd_off / asd_on).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from .config import RunConfig
from .errors import ConfigError, DomainError, require
from .ifo import (
    FrequencyGrid,
    IfoConfig,
    shot_noise_asd,
    squeezing_factor,
    technical_noise_asd,
)
from .losses import DegradationRow, chain_efficiency, degradation_report
from .quadrature import SqueezeLevel, db_to_variance, state_from_db

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True, eq=False)
class NoiseSpectrum:
    """Strain noise budget on a frequency grid.

    ``quantum`` already includes any squeezing factor; ``total`` is the
    quadrature sum of the two sources, derived at construction.
    """

    grid: FrequencyGrid
    quantum: np.ndarray
    tech: np.ndarray
    total: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        import numpy as np

        n = len(self.grid)
        for name in ("quantum", "tech"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise DomainError(
                    f"{name} must have one entry per grid point "
                    f"({arr.shape} vs {n})"
                )
            if not np.isfinite(arr).all():
                raise DomainError(f"{name} must be finite")
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (self.quantum > 0.0).all() or not (self.tech >= 0.0).all():
            raise DomainError("quantum must be positive and tech non-negative")
        total = np.hypot(self.quantum, self.tech)
        total.setflags(write=False)
        object.__setattr__(self, "total", total)


def total_noise(cfg: IfoConfig, grid: FrequencyGrid, sqz: float = 1.0) -> NoiseSpectrum:
    """Assemble the noise budget, optionally with squeezing applied.

    ``sqz`` multiplies the quantum-noise amplitude: 1 for squeezing off,
    the squeezing factor otherwise. Sources add in quadrature.
    """
    require(0.0 < sqz < math.inf, "squeezing factor", sqz, "must be > 0 and finite")
    shot = shot_noise_asd(cfg, grid.values)
    return NoiseSpectrum(grid, sqz * shot, technical_noise_asd(cfg, grid.values))


def improvement_db(
    off: NoiseSpectrum,
    on: NoiseSpectrum,
    band: tuple[float, float] = (1000.0, 5000.0),
) -> tuple[np.ndarray, float]:
    """Per-frequency improvement in dB plus the band median.

    20*log10(off.total / on.total) bin by bin (power dB of the noise
    power ratio), and the median over grid points inside ``band``. Both
    spectra must live on the same grid.
    """
    import numpy as np

    if off.grid != on.grid:
        raise DomainError("spectra are on different frequency grids")
    lo, hi = band
    if not (math.isfinite(lo) and math.isfinite(hi)) or not 0.0 < lo < hi:
        raise DomainError(f"band must satisfy 0 < lo < hi, got {band!r}")
    per_bin = 20.0 * np.log10(off.total / on.total)
    # The grid is strictly increasing, so the bins with lo <= f <= hi are
    # one contiguous slice.
    f = off.grid.values
    start, stop = f.searchsorted(lo, "left"), f.searchsorted(hi, "right")
    rule = f"band up to band_max_hz = {hi!r} must hold at least one of the {len(f)} grid points"
    require(start < stop, "band_min_hz", lo, rule, "band_max_hz", "grid_points")
    return per_bin, float(np.median(per_bin[start:stop]))


def shot_limited_improvement_db(sqz: float) -> float:
    """Improvement where quantum noise dominates: -20*log10(sqz)."""
    require(0.0 < sqz < math.inf, "squeezing factor", sqz, "must be > 0 and finite")
    return -20.0 * math.log10(sqz)


def detection_rate_gain(amplitude_ratio: float) -> float:
    """Detection-rate gain from a sensitivity amplitude ratio.

    Event rate scales with the observable volume, i.e. with range cubed:
    a ratio r in amplitude sensitivity gains r^3 in rate. Multiplicative:
    gain(r1*r2) = gain(r1)*gain(r2).
    """
    rule = "must be > 0 and finite"
    require(0.0 < amplitude_ratio < math.inf, "amplitude_ratio", amplitude_ratio, rule)
    return amplitude_ratio**3


def required_efficiency_for_improvement(target_db: float, level: SqueezeLevel) -> float:
    """Efficiency needed to reach a target shot-limited improvement.

    Inverts eta*v + (1 - eta) = 10**(-target_db/10) for an aligned,
    jitter-free readout of the given injected level:

        eta = (1 - 10**(-target_db/10)) / (1 - v_in)

    Raises if the target is unreachable (it exceeds the injected level,
    so no passive efficiency suffices, or the input is not squeezed).
    """
    require(0.0 < target_db < math.inf, "target_db", target_db, "must be > 0 and finite")
    v_in = db_to_variance(level.squeeze_db)
    if v_in >= 1.0:
        raise DomainError(
            "injected level is not squeezed (squeeze_db = 0); no efficiency helps"
        )
    if target_db > level.squeeze_db:
        raise DomainError(
            f"target of {target_db!r} dB exceeds the injected "
            f"{level.squeeze_db!r} dB; unreachable at any efficiency"
        )
    return (1.0 - db_to_variance(target_db)) / (1.0 - v_in)


@dataclass(frozen=True)
class BudgetReport:
    """Everything one budget evaluation produced.

    ``ledger`` tabulates the named loss stages; when the configuration
    pins ``eta_total`` the budget itself uses that measured value, and
    ``eta_effective`` records which number was used.
    """

    run: RunConfig
    spectrum_off: NoiseSpectrum
    spectrum_on: NoiseSpectrum
    improvement_db: np.ndarray
    broadband_improvement_db: float
    shot_limited_improvement_db: float
    squeezing_factor: float
    rate_gain: float
    eta_effective: float
    eta_stage_product: float
    ledger: tuple[DegradationRow, ...]
    anchor_computed_asd: float


def build_report(run: RunConfig) -> BudgetReport:
    """Evaluate the full noise budget for one run configuration."""
    state = state_from_db(run.level, run.injection_angle_rad)
    chain = run.effective_chain()
    sqz = squeezing_factor(state, chain, run.sigma_jitter_rad)
    grid = run.grid()
    off = total_noise(run.ifo, grid, 1.0)
    # Anti-squeezing read out (sqz > 1) can overflow a quantum ASD that
    # RunConfig found finite unsqueezed. The shot ASD rises with f, so
    # the last bin, at f_max_hz, is the largest; a float product that
    # overflows gives inf, not the numpy warning the array would.
    peak = sqz * float(off.quantum[-1])
    rule = "must keep the squeezed quantum ASD finite up to f_max_hz at this injection_angle_rad"
    require(peak < math.inf, "antisqueeze_db", run.level.antisqueeze_db, rule,
            "injection_angle_rad", "f_max_hz")
    on = total_noise(run.ifo, grid, sqz)
    per_bin, band_median = improvement_db(
        off, on, (run.band_min_hz, run.band_max_hz)
    )
    per_bin.setflags(write=False)
    ledger = degradation_report(run.level, run.loss_stages)
    anchor_f = run.ifo.anchor_freq_hz
    anchor_total = math.hypot(
        float(shot_noise_asd(run.ifo, anchor_f)),
        float(technical_noise_asd(run.ifo, anchor_f)),
    )
    return BudgetReport(
        run=run,
        spectrum_off=off,
        spectrum_on=on,
        improvement_db=per_bin,
        broadband_improvement_db=band_median,
        shot_limited_improvement_db=shot_limited_improvement_db(sqz),
        squeezing_factor=sqz,
        rate_gain=detection_rate_gain(1.0 / sqz),
        eta_effective=chain_efficiency(chain),
        eta_stage_product=ledger[-1].eta_cumulative,
        ledger=ledger,
        anchor_computed_asd=anchor_total,
    )


SWEEP_AXES = ("eta", "injected_db", "sigma")


@dataclass(frozen=True)
class SweepRow:
    """One sweep point with the improvement metrics evaluated there."""

    value: float
    broadband_improvement_db: float
    shot_limited_improvement_db: float
    rate_gain: float


def _run_at(run: RunConfig, axis: str, value: float) -> RunConfig:
    if axis == "eta":
        return replace(run, eta_total=value)
    if axis == "injected_db":
        level = SqueezeLevel(value, max(run.level.antisqueeze_db, value))
        return replace(run, level=level)
    return replace(run, sigma_jitter_rad=value)


def sweep(run: RunConfig, axis: str, values) -> tuple[SweepRow, ...]:
    """Evaluate the budget along one parameter axis.

    ``axis`` is one of ``eta`` (overall efficiency), ``injected_db``
    (injected squeezing, anti-squeezing floored at the configured
    level), or ``sigma`` (phase jitter RMS). Values are evaluated in
    order; the first one whose RunConfig or budget is invalid aborts the
    whole sweep with an error naming the axis and its index.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis '{axis}'; expected one of {SWEEP_AXES}")
    values = [float(v) for v in values]
    if len(values) == 0:
        raise ConfigError("sweep needs at least one value")
    rows = []
    for i, v in enumerate(values):
        try:
            report = build_report(_run_at(run, axis, v))
        except DomainError as exc:
            raise DomainError(f"sweep {axis} value [{i}]: {exc}", *exc.keys) from None
        rows.append(
            SweepRow(
                value=v,
                broadband_improvement_db=report.broadband_improvement_db,
                shot_limited_improvement_db=report.shot_limited_improvement_db,
                rate_gain=report.rate_gain,
            )
        )
    return tuple(rows)
