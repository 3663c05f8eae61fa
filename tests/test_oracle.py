"""Monte-Carlo oracle: determinism, agreement, failure detection."""

import math

import pytest

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
