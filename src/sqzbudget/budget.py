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

On a float grid (``build_report(run, floats=True)``) the spectra are tuples
of floats, evaluated with ``math`` without numpy; ``math.log10`` may differ
from numpy's in the last bit, so the nine-digit text is the contract.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .config import RunConfig
from .errors import ConfigError, DomainError, require
from .ifo import (
    FrequencyGrid,
    IfoConfig,
    shot_noise_asd,
    squeezing_factor,
    squeezing_factors,
    technical_noise_asd,
)
from .losses import DegradationRow, chain_efficiency, degradation_report
from .quadrature import SqueezeLevel, db_to_variance, state_from_db

if TYPE_CHECKING:
    import numpy as np


# Parts below this cannot overflow their quadrature sum:
# hypot(a, b) <= sqrt(2) * max(a, b).
_PART_MAX = sys.float_info.max / 2.0


@dataclass(frozen=True, eq=False)
class NoiseSpectrum:
    """Strain noise budget on a frequency grid.

    ``quantum`` already includes any squeezing factor; ``total`` is the
    quadrature sum of the two sources, derived at construction. Each
    part is kept as a read-only float array: a part that is one already
    and owns its data, such as a memoised curve, as it is, without a
    second copy, and any other part as a copy. Each must have one entry
    per grid point and be finite; ``quantum`` must be positive and
    ``tech`` non-negative, and ``total`` must be finite too. A fault is
    reported as a DomainError, checked in that order.
    """

    grid: FrequencyGrid
    quantum: np.ndarray | tuple[float, ...]
    tech: np.ndarray | tuple[float, ...]
    total: np.ndarray | tuple[float, ...] = field(init=False)

    def __post_init__(self) -> None:
        values = self.grid.values
        n = len(values)
        # A float grid's parts are tuples, checked with math, min and max.
        floats = isinstance(values, tuple)
        if floats:
            finite, least, most = (lambda a: all(map(math.isfinite, a))), min, max
        else:
            import numpy as np

            # ndarray's all, min and max are these reductions behind a wrapper.
            every, least, most = np.logical_and.reduce, np.minimum.reduce, np.maximum.reduce
            finite = (lambda a: every(np.isfinite(a)))
        for name in ("quantum", "tech"):
            value = getattr(self, name)
            if floats:
                arr = tuple(map(float, value))
            elif _owned_read_only(value):
                arr = value
            else:
                arr = np.array(value, dtype=float)
                arr.setflags(write=False)
            shape = (len(arr),) if floats else arr.shape
            if shape != (n,):
                raise DomainError(f"{name} must have one entry per grid point ({shape} vs {n})")
            # Tested before any reduction, by isfinite, which sets no
            # floating-point flag: some numpy builds warn on a NaN in min.
            if not finite(arr):
                raise DomainError(f"{name} must be finite")
            object.__setattr__(self, name, arr)
        quantum, tech = self.quantum, self.tech
        if not (least(quantum) > 0.0 and least(tech) >= 0.0):
            raise DomainError("quantum must be positive and tech non-negative")
        big = max(most(quantum), most(tech)) >= _PART_MAX
        if floats:
            # abs(complex) is C's hypot, as numpy's loop is, not math.hypot: a
            # last-bit difference in the totals would show in an improvement
            # near 0 dB, 20*log10(off/on) of a ratio within 1e-8 of 1.
            try:
                total = tuple([abs(complex(q, t)) for q, t in zip(quantum, tech)])
            except OverflowError:  # an infinite total, rejected below
                total = (math.inf,)
        elif not big:
            total = np.hypot(quantum, tech)
        else:
            with np.errstate(over="ignore"):
                total = np.hypot(quantum, tech)
        if big and not finite(total):
            raise DomainError("total = hypot(quantum, tech) must be finite")
        if not floats:
            total.setflags(write=False)
        object.__setattr__(self, "total", total)


def _owned_read_only(value) -> bool:
    """True for a read-only float64 ndarray that owns its data: safe to share."""
    import numpy as np

    if type(value) is not np.ndarray or value.dtype != np.float64:
        return False
    flags = value.flags
    return flags.owndata and not flags.writeable


# The last unsqueezed spectrum and the memoised curves it was built from,
# held so that their identities stay theirs: a sweep's values share it. The
# curves belong to one instrument and one grid object, so they name both.
_unsqueezed: tuple | None = None


def total_noise(cfg: IfoConfig, grid: FrequencyGrid, sqz: float = 1.0) -> NoiseSpectrum:
    """Assemble the noise budget, optionally with squeezing applied.

    ``sqz`` multiplies the quantum-noise amplitude: 1 for squeezing off,
    the squeezing factor otherwise. Sources add in quadrature. The
    curves on the grid are memoised and read-only (see ``shot_noise_asd``),
    and so is the unsqueezed spectrum: ``sqz == 1`` returns the last one
    while both curves are the same objects, as they are for the same
    instrument and grid objects.
    """
    global _unsqueezed
    require(0.0 < sqz < math.inf, "squeezing factor", sqz, "must be > 0 and finite")
    shot = shot_noise_asd(cfg, grid)
    if sqz == 1.0:
        # 1.0 * x is x, bit for bit: the shot curve is the quantum part.
        tech = technical_noise_asd(cfg, grid)
        last = _unsqueezed
        if last is not None and last[0] is shot and last[1] is tech:
            return last[2]
        spectrum = NoiseSpectrum(grid, shot, tech)
        _unsqueezed = (shot, tech, spectrum)
        return spectrum
    if isinstance(shot, tuple):
        quantum = tuple([sqz * s for s in shot])
    else:
        quantum = sqz * shot
        quantum.setflags(write=False)  # a fresh array, kept as it is
    return NoiseSpectrum(grid, quantum, technical_noise_asd(cfg, grid))


def improvement_db(
    off: NoiseSpectrum,
    on: NoiseSpectrum,
    band: tuple[float, float],
) -> tuple[np.ndarray | tuple[float, ...], float]:
    """Per-frequency improvement in dB plus the band median.

    20*log10(off.total / on.total) bin by bin (power dB of the noise
    power ratio), and the median over grid points inside ``band``. Both
    spectra must live on the same grid; on a float grid the improvement
    is a tuple, taken with ``math.log10``.
    """
    if off.grid != on.grid:
        raise DomainError("spectra are on different frequency grids")
    f = off.grid.values
    bins = _band_bins(f, band)
    if isinstance(f, tuple):
        per_bin = tuple([20.0 * math.log10(a / b) for a, b in zip(off.total, on.total)])
    else:
        import numpy as np

        per_bin = 20.0 * np.log10(off.total / on.total)
    return per_bin, _median(per_bin[bins])


def _band_bins(f: np.ndarray | tuple[float, ...], band: tuple[float, float]) -> slice:
    """The grid points with lo <= f <= hi: one slice, as the grid is increasing."""
    lo, hi = band
    if not (math.isfinite(lo) and math.isfinite(hi)) or not 0.0 < lo < hi:
        raise DomainError(f"band must satisfy 0 < lo < hi, got {band!r}")
    if isinstance(f, tuple):
        start, stop = bisect_left(f, lo), bisect_right(f, hi)
    else:
        start, stop = f.searchsorted(lo, "left"), f.searchsorted(hi, "right")
    rule = f"band up to band_max_hz = {hi!r} must hold at least one of the {len(f)} grid points"
    require(start < stop, "band_min_hz", lo, rule, "band_max_hz", "grid_points")
    return slice(start, stop)


def _median(values: np.ndarray | tuple[float, ...]) -> float:
    """``np.median`` of a non-empty finite array, by one partition.

    ``np.median`` also checks for NaN, and that check loads ``numpy.ma``
    on its first call in a process. The band bins are finite, as both
    totals are. A tuple of floats is sorted: the same middle values.
    """
    if isinstance(values, tuple):
        n = len(values)
        k = n // 2
        middle = sorted(values)
        return float(middle[k] if n % 2 else (middle[k - 1] + middle[k]) / 2.0)
    return float(_row_medians(values.copy()))


def _row_medians(block: np.ndarray):
    """The median along the last axis of ``block``, partitioned in place.

    ndarray.partition is np.partition without its wrapper. An even count
    takes np.median's mean of the middle two.
    """
    n = block.shape[-1]
    k = n // 2
    block.partition(((n - 1) // 2, k))
    return block[..., k] if n % 2 else (block[..., k - 1] + block[..., k]) / 2.0


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
            f"{level.squeeze_db!r} dB; unreachable at any efficiency",
            "target_db",
            "squeeze_db",
        )
    return (1.0 - db_to_variance(target_db)) / (1.0 - v_in)


@dataclass(frozen=True)
class BudgetReport:
    """Everything one budget evaluation produced.

    ``eta_stage_product`` is the product of the named loss stages; when
    the configuration pins ``eta_total`` the budget itself uses that
    measured value, and ``eta_effective`` records which number was used.
    """

    run: RunConfig
    spectrum_off: NoiseSpectrum
    spectrum_on: NoiseSpectrum
    improvement_db: np.ndarray | tuple[float, ...]
    broadband_improvement_db: float
    shot_limited_improvement_db: float
    squeezing_factor: float
    rate_gain: float
    eta_effective: float
    eta_stage_product: float
    anchor_computed_asd: float

    @property
    def ledger(self) -> tuple[DegradationRow, ...]:
        """The named loss stages tabulated stage by stage.

        Built by ``degradation_report`` each time it is read, so a sweep,
        which never reads it, builds none. Its last ``eta_cumulative`` is
        ``eta_stage_product``, bit for bit.
        """
        return degradation_report(self.run.level, self.run.loss_stages)


def build_report(run: RunConfig, floats: bool = False) -> BudgetReport:
    """Evaluate the full noise budget for one run configuration (``floats``: on tuples)."""
    state = state_from_db(run.level, run.injection_angle_rad)
    chain = run.effective_chain()
    sqz = squeezing_factor(state, chain, run.sigma_jitter_rad)
    grid = run.grid(floats)
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
    if not floats:
        per_bin.setflags(write=False)
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
        eta_stage_product=chain_efficiency(run.loss_stages),
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


@dataclass
class SweepTable:
    """``SweepRow``'s fields as lists of floats: ``len`` counts values, ``table[i]`` is a row."""

    value: list[float]
    broadband_improvement_db: list[float]
    shot_limited_improvement_db: list[float]
    rate_gain: list[float]

    def __len__(self) -> int:
        return len(self.value)

    def __getitem__(self, i: int) -> SweepRow:
        return SweepRow(*[column[i] for column in vars(self).values()])


def _run_at(run: RunConfig, axis: str, value: float) -> RunConfig:
    if axis == "eta":
        change = {"eta_total": value}
    elif axis == "injected_db":
        change = {"level": SqueezeLevel(value, max(run.level.antisqueeze_db, value))}
    else:
        change = {"sigma_jitter_rad": value}
    # dataclasses.replace without its walk over the fields: every field is
    # an init field, so the instance dict holds them all.
    return type(run)(**{**vars(run), **change})


def sweep(run: RunConfig, axis: str, values, floats: bool = False) -> SweepTable:
    """Evaluate the budget along one parameter axis.

    ``axis`` is one of ``eta`` (overall efficiency), ``injected_db``
    (injected squeezing, anti-squeezing floored at the configured
    level), or ``sigma`` (phase jitter RMS). Values are evaluated in
    order; the first one whose RunConfig or budget is invalid aborts the
    whole sweep with an error naming the axis and its index.

    With ``floats`` each value gets its own ``build_report`` on a float
    grid. Otherwise the factors are one array pass (``squeezing_factors``),
    ``_band_medians`` finds the median bins once, and the other columns
    take the scalar functions' own operations, so each cell has its
    report's bits. A value that fails a check of the pass, whose squeezed
    spectrum might fail its checks, or whose median bins the pass cannot
    prove gets its report, in list order: it raises that check's own
    message, or fills its cells.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis '{axis}'; expected one of {SWEEP_AXES}")
    values = [float(v) for v in values]
    if len(values) == 0:
        raise ConfigError("sweep needs at least one value")
    if floats:
        cells = [_report_cells(run, axis, i, v, True) for i, v in enumerate(values)]
        return SweepTable(values, *map(list, zip(*cells)))
    import numpy as np

    x = np.array(values)
    sq, anti, sigma = run.level.squeeze_db, run.level.antisqueeze_db, run.sigma_jitter_rad
    eta = x if axis == "eta" else chain_efficiency(run.effective_chain())
    if axis == "injected_db":
        sq, anti = x, np.maximum(anti, x)
    elif axis == "sigma":
        sigma = x
    sqz, ok = squeezing_factors(sq, anti, run.injection_angle_rad, eta, sigma)
    medians = np.zeros(len(values))
    if ok.any():
        try:  # the same instrument, grid and band for every value
            off = total_noise(run.ifo, run.grid(), 1.0)
            bins = _band_bins(off.grid.values, (run.band_min_hz, run.band_max_hz))
        except DomainError:  # raised again by the first value's report
            ok[:] = False
        else:
            # Rounding is monotone, so sqz * shot lies between sqz * least and
            # sqz * most in every bin. Positive, and below _PART_MAX with the
            # technical part, it passes the squeezed NoiseSpectrum's checks and
            # build_report's peak rule.
            least, most = float(off.quantum.min()), float(off.quantum.max())
            with np.errstate(all="ignore"):
                ok &= (sqz * least > 0.0) & (sqz * most < _PART_MAX) & (off.tech.max() < _PART_MAX)
            proved, ok[ok] = _band_medians(off, bins, sqz[ok])  # narrowed to the proved
            medians[ok] = proved
    # The mask holds 0 < sqz < inf, the rule of the scalar functions whose
    # operations make these columns; a value off it reads 1 until its report's.
    factors = np.where(ok, sqz, 1.0).tolist()
    columns = (medians.tolist(), [-20.0 * math.log10(s) for s in factors],
               [(1.0 / s) ** 3 for s in factors])
    for i in np.flatnonzero(~ok).tolist():
        for column, cell in zip(columns, _report_cells(run, axis, i, values[i])):
            column[i] = cell
    return SweepTable(values, *columns)


def _report_cells(run: RunConfig, axis: str, i: int, value: float, floats: bool = False):
    """Value ``i``'s three metrics from its own report, or its error under the sweep's prefix."""
    try:
        report = build_report(_run_at(run, axis, value), floats)
    except DomainError as exc:
        raise DomainError(f"sweep {axis} value [{i}]: {exc}", *exc.keys) from None
    return report.broadband_improvement_db, report.shot_limited_improvement_db, report.rate_gain


# A quarter of the least key gap, and the least normal float; see _band_medians.
_KEY_GAP = 2.0**-30
_TINY = sys.float_info.min


def _band_medians(off: NoiseSpectrum, bins: slice, sqzs: np.ndarray) -> tuple:
    """``build_report``'s band median of each factor proved here, and their mask ``keyed``.

    A row's improvement on the band's bins, 20*log10(T / hypot(s*S, t))
    (S shot, t technical, T = ``off.total``, s the factor), is -10*log10(K),
    K = (s² + x)/(1 + x), x = (t/S)², up to rounding: monotone in x for
    s != 1. So the bins of x's middle ranks, sorted once, are every row's
    median bins (a reversed order keeps its middle). A row is evaluated at
    them alone, with ``build_report``'s ufuncs in its order, where each
    neighbouring pair x_i <= x_j from one rank below the middle to one above
    has |K_j/K_i - 1| = |1 - s²|(x_j - x_i)/((s² + x_i)(1 + x_j)) above
    4·``_KEY_GAP``. With u = 2**-53 and results normal, an improvement is
    within 1.6e3u dB of exact: T, the hypot (1 ulp each), s*S and the
    quotient put the ratio within 6u, log10 adds 4 ulp of at most 15 (s²
    within 1e±30, ``_MAX_DB``), the product by 20 half an ulp of 300. The
    roundings of x (3u), s² and the gap move ln(K_j/K_i) by under 16u, as
    |d ln K/d ln x| <= 1: a gap over 2**-28 parts improvements by over
    1.4e8u dB, 4e4 times twice the error, so the row gets its report's bits;
    equal x never pass. Results stay normal while each S/T, and t/T unless
    0, is at least 2**-511, and s²·min (S/T)² and s·min S at least ``_TINY``.
    Other rows are not evaluated: they are off ``keyed``.
    """
    import numpy as np

    shot, tech, total = off.quantum[bins], off.tech[bins], off.total[bins]
    n = len(shot)
    lo, hi = (n - 1) // 2, n // 2
    a, b, s2 = np.square(shot / total), np.square(tech / total), sqzs * sqzs
    medians, keyed = np.empty(0), np.zeros(len(sqzs), dtype=bool)
    if a.min() >= _TINY and ((b >= _TINY) | (tech == 0.0)).all():
        x = np.square(tech / shot)  # finite, as S/T >= 2**-511
        order = x.argsort()
        near = x[order[max(lo - 1, 0):hi + 2]]
        xi, xj = near[:-1], near[1:]
        gap = np.abs(1.0 - s2)[:, None] * ((xj - xi) / (1.0 + xj)) / (s2[:, None] + xi)
        keyed = (gap > 4.0 * _KEY_GAP).all(1) & (s2 * a.min() >= _TINY)
        keyed &= sqzs * shot.min() >= _TINY
        j = order[lo:hi + 1]
        on = np.hypot(sqzs[keyed, None] * shot[j], tech[j])
        medians = _row_medians(20.0 * np.log10(total[j] / on))
    return medians, keyed
