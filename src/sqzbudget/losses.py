"""Optical loss ledger: named loss stages and their cumulative effect.

Each stage is a passive element with a power efficiency in (0, 1].
Efficiencies compose multiplicatively and the order of stages does not
change the final state, but the ledger keeps the order so the cumulative
columns read as light propagates through the chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigError, check_efficiency
from .quadrature import SqueezeLevel, apply_loss, state_from_db, variance_to_db


@dataclass(frozen=True)
class LossElement:
    """One passive loss stage with a power efficiency in (0, 1]."""

    name: str
    efficiency: float

    def __post_init__(self) -> None:
        name = self.name
        if not name or not name.strip():
            raise ConfigError("loss element name must be non-empty")
        # The config text splits on these and strips each name, and
        # ledger.csv splits on ','; such a name would not survive either.
        split = "," in name or ":" in name or "#" in name
        if name != name.strip() or name.splitlines() != [name] or split:
            raise ConfigError(
                f"loss element name {name!r} must not hold ',', ':', '#' or a line break, "
                "nor start or end with whitespace"
            )
        check_efficiency("efficiency", self.efficiency)


def chain_efficiency(chain: Sequence[LossElement]) -> float:
    """Total power efficiency of a chain of loss elements.

    The product of the stage efficiencies. An empty chain is a
    configuration error, not a silent unit efficiency.
    """
    if len(chain) == 0:
        raise ConfigError("loss chain is empty; need at least one element")
    eta = 1.0
    for element in chain:
        eta *= element.efficiency
    return eta


@dataclass(frozen=True)
class DegradationRow:
    """Ledger row: state of the squeezed field after one more loss stage."""

    name: str
    efficiency: float
    eta_cumulative: float
    v_sq_cumulative: float
    squeeze_db_cumulative: float


def degradation_report(
    level: SqueezeLevel, chain: Sequence[LossElement]
) -> tuple[DegradationRow, ...]:
    """Stage-by-stage degradation of an injected squeezing level.

    Parameters
    ----------
    level : SqueezeLevel
        Injected squeezing, read out along the squeezed axis.
    chain : sequence of LossElement
        Ordered loss stages the field traverses.

    Returns
    -------
    tuple of DegradationRow
        One row per stage with the cumulative efficiency, the squeezed
        variance after that stage, and the same variance in dB. The final
        row agrees with applying the whole chain at once.
    """
    if len(chain) == 0:
        raise ConfigError("loss chain is empty; need at least one element")
    state = state_from_db(level)
    rows = []
    eta = 1.0
    for element in chain:
        eta *= element.efficiency
        state = apply_loss(state, element.efficiency)
        rows.append(
            DegradationRow(
                name=element.name,
                efficiency=element.efficiency,
                eta_cumulative=eta,
                v_sq_cumulative=state.v_sq,
                squeeze_db_cumulative=variance_to_db(state.v_sq),
            )
        )
    return tuple(rows)
