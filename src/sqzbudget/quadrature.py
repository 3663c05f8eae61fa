"""Quadrature-variance algebra for squeezed vacuum states.

All variances are dimensionless and vacuum-normalized: the vacuum state has
unit variance in every quadrature. A state is described by its two
principal-axis variances together with the orientation of the squeezed axis
relative to the readout quadrature. Passive optical loss mixes in vacuum,
phase jitter averages the two axes; both operations preserve the Heisenberg
bound v_sq * v_anti >= 1.

Decibel conventions: variances (noise powers) convert with 10*log10, so
sqz_db = -10*log10(v_sq). Positive dB means below vacuum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, check_efficiency, require

# Constructor tolerance on the uncertainty product. Pure states built from
# matched dB levels can land at 1 - O(ulp) after rounding.
_HUR_SLACK = 1e-9
# Largest dB level, far above any squeezer. It keeps every derived number
# a float: the variance 10**(dB/10) and the rate gain, the cube of an
# amplitude ratio of up to 10**(dB/20).
_MAX_DB = 300.0


def _reduce_angle(angle: float) -> float:
    # Quadrature variances are pi-periodic in the readout angle.
    a = math.fmod(angle, math.pi)
    if a < 0.0:
        a += math.pi
    if a >= math.pi:
        a = 0.0
    return a


@dataclass(frozen=True)
class SqueezeLevel:
    """Injected squeezing strength in decibels.

    Attributes
    ----------
    squeeze_db : float
        Noise suppression of the squeezed quadrature below vacuum, in dB.
        Non-negative; 0 dB is an unsqueezed (vacuum) input.
    antisqueeze_db : float
        Noise excess of the conjugate quadrature above vacuum, in dB.
        Must be at least ``squeeze_db``: any impurity of the source shows
        up as anti-squeezing in excess of the minimum-uncertainty value.
    """

    squeeze_db: float
    antisqueeze_db: float

    def __post_init__(self) -> None:
        sqz, anti = self.squeeze_db, self.antisqueeze_db
        require(0.0 <= sqz < math.inf, "squeeze_db", sqz, "must be >= 0 and finite")
        require(sqz <= anti < math.inf, "antisqueeze_db", anti,
                f"must be finite and >= squeeze_db ({sqz!r})", "squeeze_db")
        require(anti <= _MAX_DB, "antisqueeze_db", anti, f"must be <= {_MAX_DB!r}")


@dataclass(frozen=True)
class QuadratureState:
    """Gaussian quadrature state: principal variances plus orientation.

    ``v_sq`` is the variance of the squeezed principal axis, ``v_anti`` of
    the anti-squeezed one, both vacuum-normalized. ``angle`` is the
    orientation of the squeezed axis relative to the readout quadrature,
    in radians, reduced to [0, pi).

    The constructor canonicalizes: if the given ``v_sq`` exceeds
    ``v_anti`` the two are swapped and the angle advances by pi/2, so
    ``v_sq <= v_anti`` always holds.
    """

    v_sq: float
    v_anti: float
    angle: float = 0.0

    def __post_init__(self) -> None:
        v_sq, v_anti, angle = self.v_sq, self.v_anti, self.angle
        for name, value in (("v_sq", v_sq), ("v_anti", v_anti), ("angle", angle)):
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
        if v_sq <= 0.0 or v_anti <= 0.0:
            raise DomainError(
                f"variances must be positive, got v_sq={v_sq!r}, v_anti={v_anti!r}"
            )
        swap = v_sq > v_anti
        if swap:
            v_sq, v_anti = v_anti, v_sq
            angle += math.pi / 2.0
        if v_sq * v_anti < 1.0 - _HUR_SLACK:
            raise DomainError(
                f"uncertainty product v_sq*v_anti = {v_sq * v_anti!r} violates "
                f"the Heisenberg bound (>= 1)"
            )
        if swap:
            object.__setattr__(self, "v_sq", v_sq)
            object.__setattr__(self, "v_anti", v_anti)
        object.__setattr__(self, "angle", _reduce_angle(angle))

    @property
    def uncertainty_product(self) -> float:
        return self.v_sq * self.v_anti


def vacuum() -> QuadratureState:
    """The vacuum state: unit variance in every quadrature."""
    return QuadratureState(1.0, 1.0, 0.0)


def db_to_variance(db: float) -> float:
    """Convert a squeezing level in dB to a vacuum-normalized variance.

    Positive dB means below vacuum: 10 dB -> 0.1. The inverse of
    :func:`variance_to_db`.
    """
    require(math.isfinite(db), "db", db, "must be finite")
    return 10.0 ** (-db / 10.0)


def variance_to_db(v: float) -> float:
    """Convert a vacuum-normalized variance to a squeezing level in dB.

    Positive for variances below vacuum: 0.44 -> 3.56 dB.
    """
    require(0.0 < v < math.inf, "variance", v, "must be > 0 and finite")
    return -10.0 * math.log10(v)


def state_from_db(level: SqueezeLevel, angle: float = 0.0) -> QuadratureState:
    """Build a quadrature state from dB levels.

    A (10, 15) level gives v_sq = 0.1 and v_anti ~ 31.6; a minimum-
    uncertainty (pure) state has antisqueeze_db == squeeze_db.
    """
    return QuadratureState(
        db_to_variance(level.squeeze_db),
        db_to_variance(-level.antisqueeze_db),
        angle,
    )


def rotate(state: QuadratureState, delta: float) -> QuadratureState:
    """Advance the squeezed-axis orientation by ``delta`` radians."""
    require(math.isfinite(delta), "rotation angle", delta, "must be finite")
    return QuadratureState(state.v_sq, state.v_anti, state.angle + delta)


def apply_loss(state: QuadratureState, efficiency: float) -> QuadratureState:
    """Propagate the state through passive loss with power efficiency eta.

    Each principal variance relaxes toward vacuum:
    v -> eta*v + (1 - eta)*1. Written as v + (1-eta)*(1-v) so that the
    vacuum fixed point is exact in floating point. The orientation is
    unchanged; the Heisenberg product can only grow.
    """
    check_efficiency("efficiency", efficiency)
    keep = 1.0 - efficiency
    return QuadratureState(
        state.v_sq + keep * (1.0 - state.v_sq),
        state.v_anti + keep * (1.0 - state.v_anti),
        state.angle,
    )


def readout_variance(state: QuadratureState, theta: float = 0.0) -> float:
    """Variance seen by a homodyne readout at angle ``theta``.

    The projection of the variance ellipse:
    v_sq*cos^2(theta - angle) + v_anti*sin^2(theta - angle), where the
    offset accounts for the state's own orientation. For an isotropic
    state the projection is the common variance, returned exactly.
    """
    require(math.isfinite(theta), "readout angle", theta, "must be finite")
    if state.v_sq == state.v_anti:
        return state.v_sq
    rel = theta - state.angle
    c = math.cos(rel)
    s = math.sin(rel)
    return state.v_sq * c * c + state.v_anti * s * s


def dephase(state: QuadratureState, sigma: float) -> QuadratureState:
    """Average the state over Gaussian phase jitter of RMS ``sigma`` radians.

    For jitter delta ~ N(0, sigma^2) the averaged second moments follow
    from E[cos 2*delta] = exp(-2*sigma^2) =: c, giving

        v_sq'   = v_sq*(1+c)/2 + v_anti*(1-c)/2
        v_anti' = v_anti*(1+c)/2 + v_sq*(1-c)/2

    The squeezed variance can only grow, the product can only grow, and
    an isotropic state is left untouched. sigma = 0 is the exact
    identity. Note the output is the effective Gaussian state whose
    readout variance at every angle equals the jitter average of the
    input's readout variance.
    """
    require(0.0 <= sigma < math.inf, "sigma", sigma, "must be >= 0 and finite")
    if sigma == 0.0 or state.v_sq == state.v_anti:
        return state
    c = math.exp(-2.0 * sigma * sigma)
    w_keep = (1.0 + c) / 2.0
    w_mix = (1.0 - c) / 2.0
    return QuadratureState(
        state.v_sq * w_keep + state.v_anti * w_mix,
        state.v_anti * w_keep + state.v_sq * w_mix,
        state.angle,
    )
