"""Interferometer strain-noise model.

Two analytic noise sources referred to strain:

* quantum (shot) noise, flat at low frequency and rising ~f above the
  signal-recycling cavity pole;
* a technical-noise envelope, flat in displacement up to a corner
  frequency and falling as 1/f^2 in displacement above it.

The shot-noise level is anchored: the flat level is calibrated once, at
construction, so the unsqueezed quadrature-sum total passes exactly
through a measured reference point (anchor_freq_hz, anchor_asd). The
calibration constant is stored, so scaling the optical power afterwards
via ``with_power`` follows the ideal 1/sqrt(P) law exactly.

The noise formulas take a Python number or an array. A number is
evaluated with ``math`` and never imports numpy, so building an
``IfoConfig`` (and with it the calibration) stays numpy-free; numpy is
imported only where a grid or array is handled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

from .errors import DomainError, require
from .losses import LossElement, chain_efficiency
from .quadrature import QuadratureState, apply_loss, dephase, readout_variance

if TYPE_CHECKING:
    import numpy as np

# Exact SI values (2019 redefinition).
PLANCK_H = 6.62607015e-34  # J s
SPEED_OF_LIGHT = 299792458.0  # m / s
HBAR = PLANCK_H / (2.0 * math.pi)


def _squared(name: str, value: float, *keys: str) -> float:
    """``value**2``, or a DomainError naming ``name`` if that overflows a float.

    ``keys`` are the config fields ``value`` is computed from.
    """
    try:
        return value**2
    except OverflowError:
        rule = "must square to a finite float"
        raise DomainError(f"{name} = {value!r} violates bound: {rule}", *keys) from None


@dataclass(frozen=True)
class IfoConfig:
    """Interferometer parameters for the two-source strain noise model.

    Defaults describe GEO 600: a dual-recycled Michelson with folded
    600 m arms (1200 m effective), about 2.7 kW circulating at the beam
    splitter from a 12 W-class laser at 1064 nm. The technical-noise
    envelope is ~1e-18 m/sqrt(Hz) in displacement below 700 Hz. The
    anchor pins the unsqueezed total to 1e-21 /sqrt(Hz) at 3 kHz; the
    signal-recycling pole is a fit parameter of this simplified response,
    not an instrument-quoted number.

    ``shot_scale`` is the internal calibration constant. Leave it None:
    it is derived from the anchor at construction and then carried along
    by ``dataclasses.replace`` so that power scaling stays exact.
    """

    arm_length_eff: float = 1200.0  # m, folded arm: 2 * 600 m
    power_bs: float = 2700.0  # W at the beam splitter
    wavelength: float = 1.064e-6  # m
    sr_pole_hz: float = 400.0
    anchor_freq_hz: float = 3000.0
    anchor_asd: float = 1.0e-21  # strain / sqrt(Hz), unsqueezed total
    tech_displacement_asd: float = 1.0e-18  # m / sqrt(Hz) below the corner
    tech_corner_hz: float = 700.0
    shot_scale: float | None = field(default=None)

    def __post_init__(self) -> None:
        positive = (
            "arm_length_eff",
            "power_bs",
            "wavelength",
            "sr_pole_hz",
            "anchor_freq_hz",
            "anchor_asd",
            "tech_corner_hz",
        )
        for name in positive:
            value = getattr(self, name)
            require(0.0 < value < math.inf, name, value, "must be > 0 and finite")
        tech = self.tech_displacement_asd
        require(0.0 <= tech < math.inf, "tech_displacement_asd", tech, "must be >= 0 and finite")
        # The flat shot level is shot_scale / (arm_length_eff * sqrt(power_bs)):
        # neither factor may underflow to zero or overflow.
        gain = self.arm_length_eff * math.sqrt(self.power_bs)
        rule = "must be > 0 and finite"
        name = "arm_length_eff * sqrt(power_bs)"
        require(0.0 < gain < math.inf, name, gain, rule, "arm_length_eff", "power_bs")
        if self.shot_scale is None:
            object.__setattr__(self, "shot_scale", self._calibrate_shot_scale())
            rule += ", calibrated from anchor_asd, arm_length_eff and power_bs"
        scale = self.shot_scale
        related = ("anchor_asd", "arm_length_eff", "power_bs")
        require(0.0 < scale < math.inf, "shot_scale", scale, rule, *related)

    def _calibrate_shot_scale(self) -> float:
        # Flat shot level such that sqrt(shot^2 + tech^2) at the anchor
        # frequency reproduces the anchor ASD exactly.
        tech = technical_noise_asd(self, self.anchor_freq_hz)
        tech_name = "tech_displacement_asd / arm_length_eff at anchor_freq_hz"
        tech_keys = ("tech_displacement_asd", "arm_length_eff", "anchor_freq_hz", "tech_corner_hz")
        tech_power = _squared(tech_name, tech, *tech_keys)
        shot_power = _squared("anchor_asd", self.anchor_asd, "anchor_asd") - tech_power
        rule = f"must exceed the technical-noise envelope ({tech!r}) at {self.anchor_freq_hz!r} Hz"
        related = ("anchor_freq_hz", "tech_displacement_asd", "tech_corner_hz", "arm_length_eff")
        require(shot_power > 0.0, "anchor_asd", self.anchor_asd, rule, *related)
        ratio = self.anchor_freq_hz / self.sr_pole_hz
        ratio_power = _squared("anchor_freq_hz / sr_pole_hz", ratio, "sr_pole_hz", "anchor_freq_hz")
        rise = math.sqrt(1.0 + ratio_power)
        flat = math.sqrt(shot_power) / rise
        return flat * self.arm_length_eff * math.sqrt(self.power_bs)

    def with_power(self, power_bs: float) -> "IfoConfig":
        """Same instrument at a different circulating power.

        Keeps the stored calibration constant, so the shot ASD scales as
        1/sqrt(power) exactly; the anchor point is not re-fit.
        """
        return replace(self, power_bs=power_bs)

    @classmethod
    def first_principles(cls, **kwargs) -> "IfoConfig":
        """Alternative calibration: flat shot level from photon counting.

        Ignores the anchor and sets the calibration constant to
        sqrt(hbar * c * lambda / (2 pi)), i.e. the bare phase-measurement
        shot limit. Sits well above the anchored level because the
        signal-recycling gain of the real readout chain is not modeled;
        useful as a sanity bound, not for matching measured spectra.
        """
        cfg = cls(**kwargs)
        scale = (
            first_principles_flat_level(cfg)
            * cfg.arm_length_eff
            * math.sqrt(cfg.power_bs)
        )
        return replace(cfg, shot_scale=scale)


@dataclass(frozen=True)
class FrequencyGrid:
    """Strictly increasing, positive analysis frequencies in hertz.

    A run's grid comes from ``RunConfig.grid()``, which owns the span,
    size and spacing; this class only checks the array it is given.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np

        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("frequency grid must be a non-empty 1-D array")
        if not np.all(np.isfinite(arr)):
            raise DomainError("frequency grid must be finite")
        if arr[0] <= 0.0:
            raise DomainError("frequency grid must be positive")
        if arr.size > 1 and not np.all(np.diff(arr) > 0.0):
            raise DomainError("frequency grid must be strictly increasing")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)

    def __eq__(self, other: object) -> bool:
        import numpy as np

        if not isinstance(other, FrequencyGrid):
            return NotImplemented
        if self.values is other.values:
            return True
        return np.array_equal(self.values, other.values)

    __hash__ = None  # type: ignore[assignment]


def _positive_freq(f):
    """``f`` checked positive and finite, with the ``sqrt`` and ``maximum`` for it.

    A Python number or 0-d array becomes a float and gets ``math.sqrt``
    and ``max``; anything else becomes a float array and gets numpy's.
    The operators applied to either are the same, so one formula gives
    the same bits for a float as for that float in an array. Squares are
    written ``x * x``: that is how numpy squares an array, while a float's
    ``x ** 2`` goes through ``pow``, which can differ in the last bit.
    """
    message = "frequency must be positive and finite"
    if not isinstance(f, (int, float)):
        import numpy as np

        arr = np.asarray(f, dtype=float)
        if arr.ndim:
            if not np.isfinite(arr).all() or not (arr > 0.0).all():
                raise DomainError(message)
            return arr, np.sqrt, np.maximum
    f = float(f)
    if not 0.0 < f < math.inf:
        raise DomainError(message)
    return f, math.sqrt, max


def shot_noise_asd(cfg: IfoConfig, f) -> np.ndarray | float:
    """Quantum-noise strain ASD at frequency ``f`` (scalar or array).

    Flat below the signal-recycling pole and rising as f above it:
    A * sqrt(1 + (f / sr_pole_hz)^2), with the flat level
    A = shot_scale / (arm_length_eff * sqrt(power_bs)) fixed by the
    anchor calibration. Units: strain / sqrt(Hz).
    """
    f, sqrt, _ = _positive_freq(f)
    ratio = f / cfg.sr_pole_hz
    return anchored_flat_level(cfg) * sqrt(1.0 + ratio * ratio)


def technical_noise_asd(cfg: IfoConfig, f) -> np.ndarray | float:
    """Technical-noise strain ASD at frequency ``f`` (scalar or array).

    Flat in displacement at tech_displacement_asd up to tech_corner_hz,
    rolling off as (corner/f)^2 in displacement above; referred to strain
    by the effective arm length. Continuous at the corner.
    """
    f, _, maximum = _positive_freq(f)
    # Clamped before the division: the ratio is <= 1, so no bin overflows.
    ratio = cfg.tech_corner_hz / maximum(f, cfg.tech_corner_hz)
    return cfg.tech_displacement_asd / cfg.arm_length_eff * (ratio * ratio)


# GEO 600 operating point used by the command line when no config is given.
GEO600 = IfoConfig()


def first_principles_flat_level(cfg: IfoConfig) -> float:
    """Shot-noise flat level from photon counting alone, no calibration.

    sqrt(hbar * c * lambda / (2 pi P)) / L for circulating power P and
    effective arm length L: the phase-measurement shot limit of a bare
    Michelson, with no readout-chain or signal-recycling gains. An upper
    sanity bound on the calibrated flat level, not a fit to it.
    """
    return (
        math.sqrt(
            HBAR * SPEED_OF_LIGHT * cfg.wavelength / (2.0 * math.pi * cfg.power_bs)
        )
        / cfg.arm_length_eff
    )


def anchored_flat_level(cfg: IfoConfig) -> float:
    """The calibrated shot-noise flat level in strain / sqrt(Hz)."""
    return cfg.shot_scale / (cfg.arm_length_eff * math.sqrt(cfg.power_bs))


def squeezing_factor(
    injected: QuadratureState,
    chain: Sequence[LossElement],
    sigma_jitter: float = 0.0,
) -> float:
    """Frequency-independent factor the quantum-noise ASD is multiplied by.

    The injected state is propagated through the loss chain, averaged
    over Gaussian phase jitter, and projected onto the readout
    quadrature; the factor is the square root of that variance. Below 1
    the readout is quantum-noise squeezed, above 1 (wrong quadrature or
    strong jitter) it is degraded.
    """
    eta = chain_efficiency(chain)
    degraded = dephase(apply_loss(injected, eta), sigma_jitter)
    return math.sqrt(readout_variance(degraded))
