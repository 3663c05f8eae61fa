"""Strain noise model: anchoring, scaling laws, grids, squeezing factor."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqzbudget import (
    GEO600,
    DomainError,
    FrequencyGrid,
    IfoConfig,
    LossElement,
    QuadratureState,
    anchored_flat_level,
    first_principles_flat_level,
    shot_noise_asd,
    squeezing_factor,
    technical_noise_asd,
    vacuum,
)

# exact SI constants, restated here so the formula is checked end to end
HBAR = 6.62607015e-34 / (2.0 * math.pi)
C = 299792458.0


class TestAnchoring:
    def test_unsqueezed_total_passes_through_anchor(self):
        total = math.hypot(
            shot_noise_asd(GEO600, 3000.0), technical_noise_asd(GEO600, 3000.0)
        )
        assert total == pytest.approx(1.0e-21, rel=1e-12)

    def test_anchor_holds_for_any_pole_choice(self):
        for pole in (200.0, 400.0, 1000.0, 3000.0):
            cfg = IfoConfig(sr_pole_hz=pole)
            total = math.hypot(
                shot_noise_asd(cfg, cfg.anchor_freq_hz),
                technical_noise_asd(cfg, cfg.anchor_freq_hz),
            )
            assert total == pytest.approx(cfg.anchor_asd, rel=1e-12)

    def test_anchor_below_technical_floor_rejected(self):
        with pytest.raises(DomainError):
            IfoConfig(anchor_asd=4.0e-23)  # tech at 3 kHz is ~4.54e-23

    def test_validation_rejects_nonpositive_fields(self):
        with pytest.raises(DomainError):
            IfoConfig(arm_length_eff=0.0)
        with pytest.raises(DomainError):
            IfoConfig(power_bs=-1.0)
        with pytest.raises(DomainError):
            IfoConfig(tech_displacement_asd=-1e-20)


class TestShotNoise:
    def test_flat_below_pole(self):
        flat = anchored_flat_level(GEO600)
        assert shot_noise_asd(GEO600, 1e-3) == pytest.approx(flat, rel=1e-6)

    def test_sqrt_two_at_pole(self):
        flat = anchored_flat_level(GEO600)
        assert shot_noise_asd(GEO600, GEO600.sr_pole_hz) == pytest.approx(
            flat * math.sqrt(2.0), rel=1e-12
        )

    def test_strictly_increasing(self):
        f = np.geomspace(1.0, 1e5, 300)
        asd = shot_noise_asd(GEO600, f)
        assert np.all(np.diff(asd) > 0.0)

    def test_power_doubling_is_exact_inverse_sqrt_two(self):
        doubled = GEO600.with_power(2.0 * GEO600.power_bs)
        f = np.geomspace(10.0, 1e4, 10)
        ratio = shot_noise_asd(doubled, f) / shot_noise_asd(GEO600, f)
        assert np.max(np.abs(ratio - 1.0 / math.sqrt(2.0))) <= 1e-12

    @given(scale=st.floats(0.2, 5.0))
    @settings(max_examples=200, deadline=None)
    def test_power_scaling_law(self, scale):
        scaled = GEO600.with_power(scale * GEO600.power_bs)
        ratio = shot_noise_asd(scaled, 500.0) / shot_noise_asd(GEO600, 500.0)
        assert ratio == pytest.approx(1.0 / math.sqrt(scale), rel=1e-12)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(DomainError):
            shot_noise_asd(GEO600, 0.0)
        with pytest.raises(DomainError):
            shot_noise_asd(GEO600, np.array([10.0, -5.0]))


class TestTechnicalNoise:
    def test_displacement_floor_at_100_hz(self):
        assert technical_noise_asd(GEO600, 100.0) == pytest.approx(
            1.0e-18 / 1200.0, rel=1e-12
        )

    def test_continuous_at_corner(self):
        below = technical_noise_asd(GEO600, GEO600.tech_corner_hz - 1e-9)
        at = technical_noise_asd(GEO600, GEO600.tech_corner_hz)
        above = technical_noise_asd(GEO600, GEO600.tech_corner_hz + 1e-9)
        assert below == at
        assert above == pytest.approx(at, rel=1e-9)

    def test_rolloff_exponent(self):
        r = technical_noise_asd(GEO600, 4000.0) / technical_noise_asd(GEO600, 2000.0)
        assert r == pytest.approx(0.25, rel=1e-12)

    def test_zero_envelope(self):
        cfg = IfoConfig(tech_displacement_asd=0.0)
        f = np.geomspace(10.0, 1e4, 7)
        assert np.all(technical_noise_asd(cfg, f) == 0.0)

    def test_negligible_against_shot_in_khz_band(self):
        ratio = technical_noise_asd(GEO600, 3000.0) / shot_noise_asd(GEO600, 3000.0)
        assert ratio < 0.1


class TestScalarAndArrayAgree:
    """One formula per source: a float and a 1-element array give the same bits."""

    # corner / f and f / pole here square differently under pow than under x * x.
    @example(corner=82.6, pole=568.5, tech=1e-18, arm=1200.0, power=2700.0, f=58192.1, at=False)
    @settings(max_examples=300, deadline=None)
    @given(
        corner=st.floats(1e-3, 1e8),
        pole=st.floats(1e-2, 1e8),
        tech=st.floats(0.0, 1e-18),
        arm=st.floats(1200.0, 1e5),
        power=st.floats(1.0, 1e6),
        # Up to far above any corner, but low enough that the shot ASD,
        # rising as f / sr_pole_hz, stays a finite float.
        f=st.floats(1e-5, 1e140),
        at=st.booleans(),
    )
    def test_float_and_array_give_the_same_bits(self, corner, pole, tech, arm, power, f, at):
        cfg = IfoConfig(
            arm_length_eff=arm,
            power_bs=power,
            sr_pole_hz=pole,
            tech_displacement_asd=tech,
            tech_corner_hz=corner,
        )
        if at:
            f = corner
        for asd in (shot_noise_asd, technical_noise_asd):
            scalar = asd(cfg, f)
            array = asd(cfg, np.array([f]))
            assert type(scalar) is float
            assert array.shape == (1,)
            assert scalar.hex() == float(array[0]).hex()


class TestFirstPrinciples:
    def test_formula(self):
        expected = math.sqrt(
            HBAR * C * GEO600.wavelength / (2.0 * math.pi * GEO600.power_bs)
        ) / GEO600.arm_length_eff
        assert first_principles_flat_level(GEO600) == pytest.approx(expected, rel=1e-12)

    def test_mode_uses_that_level(self):
        cfg = IfoConfig.first_principles()
        assert anchored_flat_level(cfg) == pytest.approx(
            first_principles_flat_level(cfg), rel=1e-12
        )

    def test_scaling_in_power_and_length(self):
        base = first_principles_flat_level(GEO600)
        assert first_principles_flat_level(
            IfoConfig(power_bs=4.0 * GEO600.power_bs)
        ) == pytest.approx(base / 2.0, rel=1e-12)
        assert first_principles_flat_level(
            IfoConfig(arm_length_eff=2.0 * GEO600.arm_length_eff)
        ) == pytest.approx(base / 2.0, rel=1e-12)

    def test_sits_above_the_calibrated_level(self):
        # the bare phase-measurement bound has no recycling gain in it
        assert first_principles_flat_level(GEO600) > anchored_flat_level(GEO600)


class TestFrequencyGrid:
    def test_logspace_default_span(self):
        grid = FrequencyGrid.logspace(10.0, 10000.0, 1000)
        assert len(grid) == 1000
        assert grid.values[0] == pytest.approx(10.0, rel=1e-12)
        assert grid.values[-1] == pytest.approx(10000.0, rel=1e-12)
        assert np.all(np.diff(grid.values) > 0.0)

    def test_linspace(self):
        grid = FrequencyGrid.linspace(10.0, 20.0, 11)
        assert grid.values[1] - grid.values[0] == pytest.approx(1.0, rel=1e-12)

    def test_rejects_bad_spans(self):
        with pytest.raises(DomainError):
            FrequencyGrid.logspace(0.0, 100.0, 10)
        with pytest.raises(DomainError):
            FrequencyGrid.logspace(100.0, 10.0, 10)
        with pytest.raises(DomainError):
            FrequencyGrid.logspace(10.0, 100.0, 1)

    def test_rejects_unsorted_values(self):
        with pytest.raises(DomainError):
            FrequencyGrid(np.array([10.0, 5.0, 20.0]))
        with pytest.raises(DomainError):
            FrequencyGrid(np.array([-1.0, 5.0]))

    def test_values_are_read_only(self):
        grid = FrequencyGrid.logspace(10.0, 100.0, 5)
        with pytest.raises(ValueError):
            grid.values[0] = 1.0


class TestSqueezingFactor:
    CHAIN = (LossElement("total", 0.62),)

    def test_geo600_operating_point(self):
        s = QuadratureState(0.1, 10.0)
        assert squeezing_factor(s, self.CHAIN) == pytest.approx(
            math.sqrt(0.442), rel=1e-12
        )

    def test_vacuum_gives_exactly_one(self):
        assert squeezing_factor(vacuum(), self.CHAIN) == 1.0
        assert squeezing_factor(vacuum(), self.CHAIN, sigma_jitter=0.3) == 1.0

    def test_wrong_quadrature_penalty(self):
        s = QuadratureState(0.1, 31.622776601683793, math.pi / 2.0)
        factor = squeezing_factor(s, self.CHAIN)
        assert factor == pytest.approx(math.sqrt(0.62 * 31.622776601683793 + 0.38), rel=1e-12)
        assert factor == pytest.approx(4.47, abs=0.01)

    def test_jitter_degrades(self):
        s = QuadratureState(0.1, 10.0)
        clean = squeezing_factor(s, self.CHAIN)
        jittered = squeezing_factor(s, self.CHAIN, sigma_jitter=0.05)
        assert jittered > clean
