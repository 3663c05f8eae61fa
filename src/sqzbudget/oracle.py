"""Monte-Carlo oracle for the quadrature algebra.

Draws homodyne samples of a squeezed quadrature propagated through loss
(and optional phase jitter) and compares the sample variance against the
closed-form prediction. Sampling uses numpy's default PCG64 generator
seeded explicitly, so a given (inputs, seed) pair is bit-reproducible.
If sampling were ever sharded across workers, substreams would have to
come from ``SeedSequence.spawn`` on the same seed; the implementation
here is a single stream.

Loss is realized as a beam splitter: transmit the field amplitude with
sqrt(eta) and fill the open port with vacuum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import check_efficiency, require
from .quadrature import QuadratureState, apply_loss, dephase, readout_variance

# Acceptance window on the z-score of the variance estimate.
Z_MAX = 3.0

# Largest sample count per run; rejected before any array is allocated.
_MAX_SAMPLES = 10_000_000


@dataclass(frozen=True)
class SampleRun:
    """Outcome of one Monte-Carlo variance estimate.

    ``standard_error`` uses the Gaussian sampling distribution of the
    variance: estimated_variance * sqrt(2 / (n_samples - 1)).
    """

    n_samples: int
    seed: int
    estimated_variance: float
    standard_error: float


@dataclass(frozen=True)
class OracleVerdict:
    """Comparison of an analytic variance against a sampled one."""

    name: str
    analytic: float
    run: SampleRun
    z: float
    passed: bool


def sample_lossy_squeezed(
    v_sq: float,
    efficiency: float,
    *,
    n_samples: int,
    seed: int,
    v_anti: float | None = None,
    sigma_jitter: float = 0.0,
) -> SampleRun:
    """Sample the readout quadrature of a squeezed field after loss.

    Per sample: draw the quadrature angle (zero mean, RMS jitter
    ``sigma_jitter``), draw the field quadrature with the projected
    variance, then mix with vacuum on a beam splitter of power
    transmission ``efficiency``. Returns the unbiased sample variance
    and its standard error.

    ``v_anti`` defaults to the minimum-uncertainty partner of ``v_sq``;
    it only matters when the jitter is nonzero.
    """
    return _sample(v_sq, (efficiency,), n_samples, seed, v_anti, sigma_jitter)


def sample_two_stage(
    v_sq: float,
    efficiency_first: float,
    efficiency_second: float,
    *,
    n_samples: int,
    seed: int,
) -> SampleRun:
    """Sample loss applied as two consecutive beam splitters.

    In distribution this must match a single splitter with the product
    efficiency; used to check that losses compose multiplicatively.
    """
    return _sample(v_sq, (efficiency_first, efficiency_second), n_samples, seed)


def _sample(
    v_sq: float,
    efficiencies: tuple[float, ...],
    n_samples: int,
    seed: int,
    v_anti: float | None = None,
    sigma_jitter: float = 0.0,
) -> SampleRun:
    # One body for both samplers: jitter draws (if any), the field, then
    # one vacuum draw per beam splitter, in that order on one stream.
    import numpy as np

    require(0.0 < v_sq < math.inf, "v_sq", v_sq, "must be > 0 and finite")
    for i, efficiency in enumerate(efficiencies):
        check_efficiency(f"efficiencies[{i}]", efficiency)
    require(0.0 <= sigma_jitter < math.inf, "sigma_jitter", sigma_jitter, "must be >= 0 and finite")
    require(n_samples >= 2, "n_samples", n_samples, "must be >= 2")
    require(n_samples <= _MAX_SAMPLES, "n_samples", n_samples, f"must be <= {_MAX_SAMPLES}")
    require(seed >= 0, "seed", seed, "must be >= 0")
    if v_anti is None:
        v_anti = max(v_sq, 1.0 / v_sq)
    require(v_sq <= v_anti < math.inf, "v_anti", v_anti, f"must be finite and >= v_sq ({v_sq!r})")

    rng = np.random.default_rng(seed)
    if sigma_jitter > 0.0:
        theta = sigma_jitter * rng.standard_normal(n_samples)
        projected = v_sq * np.cos(theta) ** 2 + v_anti * np.sin(theta) ** 2
    else:
        projected = v_sq
    mixed = np.sqrt(projected) * rng.standard_normal(n_samples)
    for efficiency in efficiencies:
        # The vacuum draw stays unnamed so numpy reuses its buffer in place.
        keep, leak = math.sqrt(efficiency), math.sqrt(1.0 - efficiency)
        mixed = keep * mixed + leak * rng.standard_normal(n_samples)
    estimate = float(np.var(mixed, ddof=1))
    return SampleRun(
        n_samples=n_samples,
        seed=seed,
        estimated_variance=estimate,
        standard_error=estimate * math.sqrt(2.0 / (n_samples - 1)),
    )


def oracle_compare(name: str, analytic: float, run: SampleRun) -> OracleVerdict:
    """Judge a sample run against its closed-form prediction.

    Passes when the estimate lies within Z_MAX standard errors of the
    analytic value.
    """
    require(0.0 < analytic < math.inf, "analytic variance", analytic, "must be > 0 and finite")
    z = (run.estimated_variance - analytic) / run.standard_error
    return OracleVerdict(
        name=name,
        analytic=analytic,
        run=run,
        z=z,
        passed=abs(z) <= Z_MAX,
    )


def standard_suite(seed: int = 42, n_samples: int = 1_000_000) -> tuple[OracleVerdict, ...]:
    """The stock oracle checks the ``oracle`` subcommand runs.

    Three single-splitter variance checks, a two-splitter composition
    check, and a phase-jitter check against the Gaussian-average closed
    form. Seeds for the individual runs are derived from ``seed`` by
    fixed offsets, so the whole suite is reproducible from one number.
    """
    require(n_samples >= 10_000, "n_samples", n_samples, "oracle verdicts need >= 10000")

    def loss_variance(v: float, eta: float) -> float:
        # The package's own algebra, on the minimum-uncertainty state of v.
        return readout_variance(apply_loss(QuadratureState(v, max(v, 1.0 / v)), eta))

    checks = []

    trio = (
        ("squeezed_10db_eta_0.62", 0.1, 0.62),
        ("vacuum_eta_0.50", 1.0, 0.5),
        ("squeezed_9db_eta_0.833", 0.126, 0.833),
    )
    for i, (name, v, eta) in enumerate(trio):
        run = sample_lossy_squeezed(v, eta, n_samples=n_samples, seed=seed + i)
        checks.append(oracle_compare(name, loss_variance(v, eta), run))

    run = sample_two_stage(0.1, 0.9, 0.8, n_samples=n_samples, seed=seed + 3)
    checks.append(oracle_compare("two_stage_0.9x0.8", loss_variance(0.1, 0.72), run))

    state = QuadratureState(0.1, 10.0)
    sigma = 0.05
    eta = 0.62
    analytic = readout_variance(dephase(apply_loss(state, eta), sigma))
    run = sample_lossy_squeezed(
        0.1, eta, n_samples=n_samples, seed=seed + 4, v_anti=10.0, sigma_jitter=sigma
    )
    checks.append(oracle_compare("jitter_sigma_0.05_eta_0.62", analytic, run))

    return tuple(checks)
