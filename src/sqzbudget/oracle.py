"""Monte-Carlo oracle for the quadrature algebra.

Draws homodyne samples of a squeezed quadrature propagated through loss
(and optional phase jitter) and compares the sample variance against the
closed-form prediction. Sampling uses numpy's default PCG64 generator
seeded explicitly, so a given (inputs, seed) pair is bit-reproducible.
``standard_suite`` runs its checks on two threads, but each check draws
from its own ``default_rng(seed + k)`` stream and owns its buffers, so
which thread runs a check, and when, cannot change a bit.

Loss is realized as a beam splitter: transmit the field amplitude with
sqrt(eta) and fill the open port with vacuum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from ._threads import call_all
from .errors import check_efficiency, require
from .quadrature import QuadratureState, apply_loss, dephase, readout_variance

# Acceptance window on the z-score of the variance estimate.
Z_MAX = 3.0

# Largest sample count per run; rejected before any array is allocated.
_MAX_SAMPLES = 10_000_000

# Samples per block in the sampler's blocked stages (512 KB of float64).
_BLOCK = 1 << 16


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

    # One n-sample buffer, ``mixed``, and one ``block`` of at most _BLOCK
    # samples that takes every later normal draw, both allocated here
    # before any draw, and no other array: with an array allocated mid-run,
    # the two-thread suite's peak RSS differed between runs by up to one
    # array, as which freed block the allocator reused hung on the other
    # thread's timing. Every stage but an unjittered field draw runs block
    # by block over ``mixed``; consecutive fills of ``block`` take the same
    # normals as one n-sample fill and leave the stream in the same state.
    # The variance reduces the whole array, as blocking would change its
    # pairwise sums. Each in-place step is the ufunc of the expression form
    # (theta = sigma * z; v_sq * cos(theta) ** 2 + v_anti * sin(theta) ** 2;
    # sqrt(projected) * z; keep * mixed + leak * z), in the same order, so
    # the bits are the expression's.
    rng = np.random.default_rng(seed)
    mixed = np.empty(n_samples)
    block = np.empty(min(n_samples, _BLOCK))
    parts = [
        (mixed[lo : lo + _BLOCK], block[: min(_BLOCK, n_samples - lo)])
        for lo in range(0, n_samples, _BLOCK)
    ]
    if sigma_jitter > 0.0:
        for out, theta in parts:
            rng.standard_normal(out=theta)
            theta *= sigma_jitter
            np.cos(theta, out=out)
            np.square(out, out=out)
            out *= v_sq
            np.sin(theta, out=theta)
            np.square(theta, out=theta)
            theta *= v_anti
            out += theta
            np.sqrt(out, out=out)
        for out, z in parts:
            rng.standard_normal(out=z)
            out *= z
    else:
        rng.standard_normal(out=mixed)
        mixed *= math.sqrt(v_sq)
    for efficiency in efficiencies:
        keep, leak = math.sqrt(efficiency), math.sqrt(1.0 - efficiency)
        for out, z in parts:
            out *= keep
            rng.standard_normal(out=z)
            z *= leak
            out += z
    # np.var(mixed, ddof=1) in place: its reductions and ufuncs, in order.
    mean = np.add.reduce(mixed, axis=None, keepdims=True)
    mean /= n_samples
    mixed -= mean
    np.square(mixed, out=mixed)
    estimate = float(np.add.reduce(mixed, axis=None) / (n_samples - 1))
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


def standard_suite(seed: int, n_samples: int) -> tuple[OracleVerdict, ...]:
    """The stock oracle checks the ``oracle`` subcommand runs.

    Three single-splitter variance checks, a two-splitter composition
    check, and a phase-jitter check against the Gaussian-average closed
    form. Seeds for the individual runs are derived from ``seed`` by
    fixed offsets, so the whole suite is reproducible from one number.
    The samplers run on up to two threads; the verdicts are judged here,
    in the order above, and the first check whose sampler raised is the
    one reported.
    """
    require(n_samples >= 10_000, "n_samples", n_samples, "oracle verdicts need >= 10000")

    def loss_variance(v: float, eta: float) -> float:
        # The package's own algebra, on the minimum-uncertainty state of v.
        return readout_variance(apply_loss(QuadratureState(v, max(v, 1.0 / v)), eta))

    trio = (
        ("squeezed_10db_eta_0.62", 0.1, 0.62),
        ("vacuum_eta_0.50", 1.0, 0.5),
        ("squeezed_9db_eta_0.833", 0.126, 0.833),
    )
    n = n_samples
    sigma = 0.05
    eta = 0.62
    # (name, analytic variance, sampler call), in report order.
    checks = [
        (name, loss_variance(v, e), partial(sample_lossy_squeezed, v, e, n_samples=n, seed=seed + i))
        for i, (name, v, e) in enumerate(trio)
    ]
    checks.append((
        "two_stage_0.9x0.8",
        loss_variance(0.1, 0.72),
        partial(sample_two_stage, 0.1, 0.9, 0.8, n_samples=n, seed=seed + 3),
    ))
    checks.append((
        "jitter_sigma_0.05_eta_0.62",
        readout_variance(dephase(apply_loss(QuadratureState(0.1, 10.0), eta), sigma)),
        partial(
            sample_lossy_squeezed, 0.1, eta, n_samples=n, seed=seed + 4, v_anti=10.0, sigma_jitter=sigma
        ),
    ))

    # Heaviest first, so that a light check is the last to start: jitter
    # draws three arrays and takes cos and sin, two-stage draws three, the
    # trio two each.
    runs = call_all([sample for _, _, sample in checks], (4, 3, 0, 1, 2))
    verdicts = []
    for (name, analytic, _), run in zip(checks, runs):
        if isinstance(run, Exception):
            raise run
        verdicts.append(oracle_compare(name, analytic, run))
    return tuple(verdicts)

