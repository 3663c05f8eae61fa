"""Monte-Carlo oracle: determinism, agreement, failure detection."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqzbudget import oracle
from sqzbudget import (
    DomainError,
    QuadratureState,
    SampleRun,
    apply_loss,
    dephase,
    oracle_compare,
    readout_variance,
    sample_lossy_squeezed,
    sample_two_stage,
    standard_suite,
)

N = 200_000  # large enough for tight SE, small enough to keep the suite fast


def test_seed_determinism_is_bitwise():
    a = sample_lossy_squeezed(0.1, 0.62, n_samples=50_000, seed=7)
    b = sample_lossy_squeezed(0.1, 0.62, n_samples=50_000, seed=7)
    assert a == b
    c = sample_lossy_squeezed(0.1, 0.62, n_samples=50_000, seed=8)
    assert c.estimated_variance != a.estimated_variance


def test_standard_error_formula():
    run = sample_lossy_squeezed(0.1, 0.62, n_samples=N, seed=1)
    assert run.standard_error == pytest.approx(
        run.estimated_variance * math.sqrt(2.0 / (N - 1)), rel=1e-12
    )


def test_lossy_squeezed_agrees_with_closed_form():
    run = sample_lossy_squeezed(0.1, 0.62, n_samples=1_000_000, seed=42)
    assert abs(run.estimated_variance - 0.442) <= 3.0 * run.standard_error


def test_vacuum_is_loss_invariant():
    for eta in (0.3, 0.62, 1.0):
        run = sample_lossy_squeezed(1.0, eta, n_samples=N, seed=5)
        assert abs(run.estimated_variance - 1.0) <= 3.0 * run.standard_error


def test_lossless_passthrough_recovers_input():
    run = sample_lossy_squeezed(0.3, 1.0, n_samples=N, seed=11)
    assert abs(run.estimated_variance - 0.3) <= 3.0 * run.standard_error


def test_two_stage_matches_single_splitter_in_distribution():
    double = sample_two_stage(0.1, 0.9, 0.8, n_samples=N, seed=3)
    single = sample_lossy_squeezed(0.1, 0.72, n_samples=N, seed=4)
    diff = abs(double.estimated_variance - single.estimated_variance)
    combined_se = math.hypot(double.standard_error, single.standard_error)
    assert diff <= 3.0 * combined_se


def test_jitter_matches_dephase_closed_form():
    state = QuadratureState(0.1, 10.0)
    analytic = readout_variance(dephase(apply_loss(state, 0.62), 0.05))
    run = sample_lossy_squeezed(
        0.1, 0.62, n_samples=1_000_000, seed=42, v_anti=10.0, sigma_jitter=0.05
    )
    assert abs(run.estimated_variance - analytic) <= 3.0 * run.standard_error


class TestCompare:
    def test_half_sigma_passes(self):
        run = SampleRun(
            n_samples=1_000_000, seed=0, estimated_variance=0.4418, standard_error=4e-4
        )
        verdict = oracle_compare("x", 0.442, run)
        assert verdict.passed
        assert abs(verdict.z) == pytest.approx(0.5, rel=1e-9)

    def test_gross_mismatch_fails(self):
        run = SampleRun(
            n_samples=1_000_000, seed=0, estimated_variance=0.50, standard_error=4e-4
        )
        assert not oracle_compare("x", 0.442, run).passed

    def test_exact_agreement_is_z_zero(self):
        run = SampleRun(
            n_samples=1_000_000, seed=0, estimated_variance=0.442, standard_error=4e-4
        )
        verdict = oracle_compare("x", 0.442, run)
        assert verdict.passed and verdict.z == 0.0


class TestSuite:
    def test_all_pass_at_default_seed(self):
        verdicts = standard_suite(seed=42, n_samples=100_000)
        assert len(verdicts) == 5
        assert all(v.passed for v in verdicts)

    def test_analytic_values_come_from_apply_loss(self, monkeypatch):
        # A loss formula that fills the open port with twice the vacuum
        # noise: every check built on apply_loss must fail, the vacuum
        # check included.
        def wrong_loss(state, efficiency):
            return QuadratureState(
                efficiency * state.v_sq + 2.0 * (1.0 - efficiency),
                efficiency * state.v_anti + 2.0 * (1.0 - efficiency),
                state.angle,
            )

        monkeypatch.setattr("sqzbudget.oracle.apply_loss", wrong_loss)
        verdicts = {v.name: v for v in standard_suite(seed=42, n_samples=100_000)}
        for name in (
            "squeezed_10db_eta_0.62",
            "vacuum_eta_0.50",
            "squeezed_9db_eta_0.833",
            "two_stage_0.9x0.8",
        ):
            assert not verdicts[name].passed, name

    def test_statistical_fluctuations_are_caught(self):
        # seed 23 at n = 10^4 lands one check outside 3 SE; the suite
        # must report that honestly rather than smooth it over
        verdicts = standard_suite(seed=23, n_samples=10_000)
        assert not all(v.passed for v in verdicts)


def expression_sample(v_sq, efficiencies, n_samples, seed, v_anti=None, sigma_jitter=0.0):
    """The sampler written as whole-array expressions, one new array per
    step: the reference whose bits the in-place sampler must reproduce."""
    if v_anti is None:
        v_anti = max(v_sq, 1.0 / v_sq)
    rng = np.random.default_rng(seed)
    if sigma_jitter > 0.0:
        theta = sigma_jitter * rng.standard_normal(n_samples)
        projected = v_sq * np.cos(theta) ** 2 + v_anti * np.sin(theta) ** 2
    else:
        projected = v_sq
    mixed = np.sqrt(projected) * rng.standard_normal(n_samples)
    for efficiency in efficiencies:
        keep, leak = math.sqrt(efficiency), math.sqrt(1.0 - efficiency)
        mixed = keep * mixed + leak * rng.standard_normal(n_samples)
    estimate = float(np.var(mixed, ddof=1))
    return estimate, estimate * math.sqrt(2.0 / (n_samples - 1))


@given(
    v_sq=st.floats(1e-3, 1e3),
    anti_factor=st.one_of(st.none(), st.floats(1.0, 1e3)),
    efficiencies=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=2),
    sigma=st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
    seed=st.integers(0, 2**63),
    n=st.integers(2, 5000),
)
@settings(max_examples=200, deadline=None)
def test_in_place_sampler_is_bit_identical_to_expressions(
    v_sq, anti_factor, efficiencies, sigma, seed, n
):
    v_anti = None if anti_factor is None else v_sq * anti_factor
    if len(efficiencies) == 2:
        run = sample_two_stage(v_sq, *efficiencies, n_samples=n, seed=seed)
        want = expression_sample(v_sq, efficiencies, n, seed)
    else:
        run = sample_lossy_squeezed(
            v_sq, efficiencies[0], n_samples=n, seed=seed, v_anti=v_anti, sigma_jitter=sigma
        )
        want = expression_sample(v_sq, efficiencies, n, seed, v_anti, sigma)
    assert (run.estimated_variance, run.standard_error) == want


@pytest.mark.parametrize(
    "sample",
    [
        lambda n: sample_lossy_squeezed(0.1, 0.62, n_samples=n, seed=3, v_anti=10.0, sigma_jitter=0.05),
        lambda n: sample_two_stage(0.1, 0.9, 0.8, n_samples=n, seed=3),
    ],
    ids=["jitter", "two_stage"],
)
def test_sampler_holds_two_sample_arrays(sample):
    # The suite runs two samplers at once, so a third n-sample array in
    # one of them would raise its peak memory by up to two arrays.
    n, array = 200_000, 200_000 * 8
    sample(1_000)  # the first call pays one-off lazy set-up
    tracemalloc.start()
    try:
        sample(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 2 * array <= peak < 2 * array + array // 4


def serial_runs(seed, n):
    """The suite's five sampler calls, one after another in check order."""
    trio = ((0.1, 0.62), (1.0, 0.5), (0.126, 0.833))
    runs = [
        sample_lossy_squeezed(v, eta, n_samples=n, seed=seed + i)
        for i, (v, eta) in enumerate(trio)
    ]
    runs.append(sample_two_stage(0.1, 0.9, 0.8, n_samples=n, seed=seed + 3))
    runs.append(
        sample_lossy_squeezed(
            0.1, 0.62, n_samples=n, seed=seed + 4, v_anti=10.0, sigma_jitter=0.05
        )
    )
    return runs


class TestThreadedSuite:
    """The samplers run on two threads; nothing else may show it."""

    @pytest.mark.parametrize("seed", [0, 42, 2**40])
    def test_equals_the_serial_checks(self, seed):
        verdicts = standard_suite(seed, 10_000)
        assert [v.run for v in verdicts] == serial_runs(seed, 10_000)
        for v in verdicts:
            assert v == oracle_compare(v.name, v.analytic, v.run)

    @pytest.mark.parametrize("cpus", [1, None])
    def test_one_cpu_starts_no_thread(self, cpus, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a worker thread was started")

        monkeypatch.setattr(oracle.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(oracle.threading, "Thread", no_thread)
        verdicts = standard_suite(7, 10_000)
        assert [v.run for v in verdicts] == serial_runs(7, 10_000)

    def test_sampler_error_is_raised(self, monkeypatch):
        def broken(*args, **kwargs):
            raise DomainError("two-stage sampler failed")

        monkeypatch.setattr(oracle, "sample_two_stage", broken)
        with pytest.raises(DomainError, match="two-stage sampler failed"):
            standard_suite(42, 10_000)

    def test_earliest_failing_check_is_reported(self, monkeypatch):
        # The jitter check (seed + 4) starts first and fails at once; the
        # vacuum check (seed + 1) comes earlier in check order and wins.
        class VacuumError(Exception):
            pass

        class JitterError(Exception):
            pass

        real = oracle.sample_lossy_squeezed

        def failing(v_sq, efficiency, *, n_samples, seed, **kwargs):
            if seed == 43:
                raise VacuumError
            if seed == 46:
                raise JitterError
            return real(v_sq, efficiency, n_samples=n_samples, seed=seed, **kwargs)

        monkeypatch.setattr(oracle, "sample_lossy_squeezed", failing)
        with pytest.raises(VacuumError):
            standard_suite(42, 10_000)

    def test_threads_are_joined(self, monkeypatch):
        before = threading.active_count()
        standard_suite(42, 10_000)
        assert threading.active_count() == before

        def broken(*args, **kwargs):
            raise DomainError("two-stage sampler failed")

        monkeypatch.setattr(oracle, "sample_two_stage", broken)
        with pytest.raises(DomainError):
            standard_suite(42, 10_000)
        assert threading.active_count() == before

    def test_every_call_is_made_once_under_fast_switching(self):
        made = []

        def call(i):
            def f():
                made.append(i)
                return i * i

            return f

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = oracle._call_all([call(i) for i in range(500)], range(499, -1, -1))
        finally:
            sys.setswitchinterval(interval)
        assert sorted(made) == list(range(500))
        assert results == [i * i for i in range(500)]


def test_input_validation():
    with pytest.raises(DomainError):
        sample_lossy_squeezed(0.1, 0.62, n_samples=1, seed=0)
    with pytest.raises(DomainError):
        sample_lossy_squeezed(-0.1, 0.62, n_samples=100, seed=0)
    with pytest.raises(DomainError):
        sample_lossy_squeezed(0.1, 0.0, n_samples=100, seed=0)
    with pytest.raises(DomainError):
        sample_lossy_squeezed(0.1, 0.62, n_samples=100, seed=0, v_anti=0.05)
    with pytest.raises(DomainError):
        sample_two_stage(0.1, 0.9, 1.5, n_samples=100, seed=0)
    with pytest.raises(DomainError):
        standard_suite(seed=0, n_samples=100)
