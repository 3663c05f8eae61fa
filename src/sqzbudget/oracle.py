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
import os
import threading
from dataclasses import dataclass
from functools import partial

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

    # Two n-sample buffers at any stage count, both allocated here before
    # any draw, and no other n-sample array: ``mixed`` and one ``draw``
    # that takes every later normal draw. With arrays also allocated
    # mid-run (the cos result, np.var's temporary), the two-thread suite's
    # peak RSS differed between runs by up to one array, as which freed
    # block the allocator reused hung on the other thread's timing. Each
    # in-place step is the ufunc of the expression form (theta = sigma * z;
    # v_sq * cos(theta) ** 2 + v_anti * sin(theta) ** 2; sqrt(projected) *
    # z; keep * mixed + leak * z), in the same order, so the bits are the
    # expression's.
    rng = np.random.default_rng(seed)
    mixed = np.empty(n_samples)
    draw = np.empty(n_samples)
    if sigma_jitter > 0.0:
        rng.standard_normal(out=draw)
        draw *= sigma_jitter
        np.cos(draw, out=mixed)
        np.square(mixed, out=mixed)
        mixed *= v_sq
        np.sin(draw, out=draw)
        np.square(draw, out=draw)
        draw *= v_anti
        mixed += draw
        np.sqrt(mixed, out=mixed)
        rng.standard_normal(out=draw)
        mixed *= draw
    else:
        rng.standard_normal(out=mixed)
        mixed *= math.sqrt(v_sq)
    for efficiency in efficiencies:
        keep, leak = math.sqrt(efficiency), math.sqrt(1.0 - efficiency)
        mixed *= keep
        rng.standard_normal(out=draw)
        draw *= leak
        mixed += draw
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
    runs = _call_all([sample for _, _, sample in checks], (4, 3, 0, 1, 2))
    verdicts = []
    for (name, analytic, _), run in zip(checks, runs):
        if isinstance(run, Exception):
            raise run
        verdicts.append(oracle_compare(name, analytic, run))
    return tuple(verdicts)


def _call_all(calls, order) -> list:
    """Make every call in ``calls``, on up to two threads.

    The calling thread and at most one worker take the next index from
    ``order`` until none is left. Returns, in the order of ``calls``,
    each call's result or the exception it raised. The cap of two holds
    memory at two samplers' buffers at once; numpy leaves the GIL while
    it fills normals and runs ufuncs, so the two overlap.
    """
    results: list = [None] * len(calls)
    pending = list(order)

    def work() -> None:
        while True:
            try:
                i = pending.pop(0)  # one atomic list operation
            except IndexError:
                return
            try:
                results[i] = calls[i]()
            except Exception as exc:  # raised by the caller, in call order
                results[i] = exc

    workers = [threading.Thread(target=work) for _ in range(min(2, os.cpu_count() or 1) - 1)]
    for worker in workers:
        worker.start()
    try:
        work()
    finally:
        pending.clear()  # on an interrupt, a worker stops after its call
        for worker in workers:
            worker.join()
    return results
