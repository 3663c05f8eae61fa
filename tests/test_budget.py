"""Budget assembly: spectra, improvement metrics, sweeps, inversion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqzbudget import budget, config
from sqzbudget import (
    GEO600,
    ConfigError,
    DomainError,
    FrequencyGrid,
    IfoConfig,
    LossElement,
    NoiseSpectrum,
    RunConfig,
    SqueezeLevel,
    build_report,
    default_run_config,
    degradation_report,
    detection_rate_gain,
    improvement_db,
    required_efficiency_for_improvement,
    shot_limited_improvement_db,
    shot_noise_asd,
    sweep,
    technical_noise_asd,
    total_noise,
)
from sqzbudget.report import summary_json

GRID = FrequencyGrid(np.geomspace(10.0, 10000.0, 400))
# The summary band of the default run.
BAND = (default_run_config().band_min_hz, default_run_config().band_max_hz)


def test_unsqueezed_total_hits_anchor():
    grid = FrequencyGrid(np.array([100.0, 3000.0]))
    spectrum = total_noise(GEO600, grid, 1.0)
    assert spectrum.total[1] == pytest.approx(1.0e-21, rel=1e-12)


def test_squeezed_total_at_anchor_matches_measurement():
    grid = FrequencyGrid(np.array([3000.0]))
    spectrum = total_noise(GEO600, grid, math.sqrt(0.442))
    assert spectrum.total[0] == pytest.approx(6.7e-22, rel=0.02)


def test_squeezing_is_neutral_where_technical_noise_dominates():
    grid = FrequencyGrid(np.array([100.0]))
    off = total_noise(GEO600, grid, 1.0)
    on = total_noise(GEO600, grid, math.sqrt(0.442))
    assert on.total[0] == pytest.approx(off.total[0], rel=0.01)


@given(sqz=st.floats(0.1, 3.0))
@settings(max_examples=200, deadline=None)
def test_quadrature_sum_consistency(sqz):
    spectrum = total_noise(GEO600, GRID, sqz)
    lhs = spectrum.total**2
    rhs = spectrum.quantum**2 + spectrum.tech**2
    assert np.max(np.abs(lhs - rhs) / rhs) <= 1e-12


def test_noise_spectrum_validation():
    n = len(GRID)
    q = np.full(n, 1e-21)
    t = np.full(n, 1e-22)
    NoiseSpectrum(GRID, q, t)
    with pytest.raises(DomainError):
        NoiseSpectrum(GRID, q[:-1], t[:-1])
    with pytest.raises(DomainError):
        NoiseSpectrum(GRID, -q, t)


@pytest.mark.parametrize(
    "quantum, tech, message",
    [
        ([1e-21, math.nan], [0.0, 0.0], "quantum must be finite"),
        ([1e-21, math.inf], [0.0, 0.0], "quantum must be finite"),
        ([1e-21, 1e-21], [0.0, math.inf], "tech must be finite"),
        ([1e-21, 0.0], [0.0, 0.0], "quantum must be positive and tech non-negative"),
        ([1e-21, -1e-21], [0.0, 0.0], "quantum must be positive and tech non-negative"),
        ([1e-21, 1e-21], [0.0, -1e-22], "quantum must be positive and tech non-negative"),
        ([1e-21], [0.0, 0.0], "quantum must have one entry per grid point ((1,) vs 2)"),
        ([1e-21, 1e-21], [0.0], "tech must have one entry per grid point ((1,) vs 2)"),
        # Finite parts whose quadrature sum overflows.
        ([1.5e308, 1.5e308], [1.5e308, 1.0], "total = hypot(quantum, tech) must be finite"),
        # Two faults: the first check in order names the first.
        ([1e-21, math.nan], [0.0], "quantum must be finite"),
        ([1e-21], [0.0, math.nan], "quantum must have one entry per grid point ((1,) vs 2)"),
        ([math.nan], [0.0, 0.0], "quantum must have one entry per grid point ((1,) vs 2)"),
        ([-1e-21, 1e-21], [0.0, math.inf], "tech must be finite"),
        ([0.0, 1e-21], [0.0], "tech must have one entry per grid point ((1,) vs 2)"),
        ([-1.5e308, 1.5e308], [1.5e308, 1.5e308], "quantum must be positive and tech non-negative"),
        ([1.5e308, 1.5e308], [math.nan, 1.5e308], "tech must be finite"),
        ([1e-21, math.nan], "not a number", "quantum must be finite"),
    ],
)
def test_noise_spectrum_rejects(quantum, tech, message):
    grid = FrequencyGrid(np.array([100.0, 1000.0]))
    with pytest.raises(DomainError) as info:
        NoiseSpectrum(grid, np.array(quantum), np.array(tech))
    assert str(info.value) == message


def test_noise_spectrum_keeps_large_parts_whose_total_is_finite():
    grid = FrequencyGrid(np.array([100.0, 1000.0]))
    spectrum = NoiseSpectrum(grid, [1.7e308, 1e-21], [1.0, 0.0])
    assert spectrum.total.tolist() == [1.7e308, 1e-21]
    assert not spectrum.total.flags.writeable


class TestImprovement:
    def test_identical_spectra_give_zero_everywhere(self):
        off = total_noise(GEO600, GRID, 1.0)
        per_bin, band = improvement_db(off, off, BAND)
        assert np.all(per_bin == 0.0)
        assert band == 0.0

    def test_grid_mismatch_rejected(self):
        off = total_noise(GEO600, GRID, 1.0)
        # a different size, and the same size with different values
        for values in (np.geomspace(10.0, 10000.0, 401), GRID.values * 1.001):
            other = total_noise(GEO600, FrequencyGrid(values), 0.7)
            with pytest.raises(DomainError) as info:
                improvement_db(off, other, BAND)
            assert str(info.value) == "spectra are on different frequency grids"

    def test_band_between_two_grid_points_rejected(self):
        off = total_noise(GEO600, GRID, 1.0)
        a, b = float(GRID.values[200]), float(GRID.values[201])
        band = (a + (b - a) / 3.0, a + 2.0 * (b - a) / 3.0)
        with pytest.raises(DomainError) as info:
            improvement_db(off, off, band)
        assert str(info.value) == (
            f"band_min_hz = {band[0]!r} violates bound: band up to band_max_hz = "
            f"{band[1]!r} must hold at least one of the {len(GRID)} grid points"
        )
        assert info.value.keys == ("band_min_hz", "band_max_hz", "grid_points")

    def test_pure_shot_band_reproduces_the_squeezing_factor(self):
        # with the technical envelope off the improvement is flat and
        # equals the shot-limited asymptote at every bin
        cfg = IfoConfig(tech_displacement_asd=0.0)
        sqz = math.sqrt(0.442)
        off = total_noise(cfg, GRID, 1.0)
        on = total_noise(cfg, GRID, sqz)
        per_bin, band = improvement_db(off, on, BAND)
        expected = shot_limited_improvement_db(sqz)
        assert band == pytest.approx(expected, rel=1e-12)
        assert np.max(np.abs(per_bin - expected)) <= 1e-9
        assert expected == pytest.approx(3.55, abs=0.005)

    def test_technical_dominated_bin_is_neutral(self):
        grid = FrequencyGrid(np.array([100.0, 2000.0]))
        off = total_noise(GEO600, grid, 1.0)
        on = total_noise(GEO600, grid, math.sqrt(0.442))
        per_bin, _ = improvement_db(off, on, band=(50.0, 5000.0))
        assert abs(per_bin[0]) < 0.1

    def test_invariant_under_common_rescale(self):
        scale = 3.7
        scaled_cfg = IfoConfig(
            anchor_asd=GEO600.anchor_asd * scale,
            tech_displacement_asd=GEO600.tech_displacement_asd * scale,
        )
        sqz = math.sqrt(0.442)
        base, base_band = improvement_db(
            total_noise(GEO600, GRID, 1.0), total_noise(GEO600, GRID, sqz), BAND
        )
        scaled, scaled_band = improvement_db(
            total_noise(scaled_cfg, GRID, 1.0), total_noise(scaled_cfg, GRID, sqz), BAND
        )
        assert np.max(np.abs(scaled - base)) <= 1e-12
        assert scaled_band == pytest.approx(base_band, abs=1e-12)

    def test_band_median_recomputed_independently(self):
        report = build_report(default_run_config())
        f = report.spectrum_off.grid.values
        shot = np.asarray(shot_noise_asd(GEO600, f))
        tech = np.asarray(technical_noise_asd(GEO600, f))
        off = np.hypot(shot, tech)
        on = np.hypot(report.squeezing_factor * shot, tech)
        per_bin = 20.0 * np.log10(off / on)
        mask = (f >= 1000.0) & (f <= 5000.0)
        assert report.broadband_improvement_db == pytest.approx(
            float(np.median(per_bin[mask])), rel=1e-12
        )

    def test_nonnegative_and_fading_into_technical_floor(self):
        report = build_report(default_run_config())
        assert np.all(report.improvement_db >= 0.0)
        f = report.spectrum_off.grid.values
        assert report.improvement_db[f <= 100.0].max() < 0.1



@st.composite
def grids_and_bands(draw):
    """A log or linear grid, and a band whose edges sit on grid points,
    one ulp off them, between them, or beyond the grid."""
    points = draw(st.integers(2, 2000))
    f_min = draw(st.floats(1.0, 1e3))
    f_max = f_min * draw(st.floats(1.001, 1e4))
    spacing = draw(st.sampled_from([np.geomspace, np.linspace]))
    grid = FrequencyGrid(spacing(f_min, f_max, points))
    f = grid.values

    def edge():
        i = draw(st.integers(0, points - 1))
        kind = draw(st.sampled_from(["on", "ulp below", "ulp above", "between", "beyond"]))
        if kind == "on":
            return float(f[i])
        if kind == "ulp below":
            return float(np.nextafter(f[i], 0.0))
        if kind == "ulp above":
            return float(np.nextafter(f[i], np.inf))
        if kind == "between":
            j = min(i + 1, points - 1)
            return float(f[i] + (f[j] - f[i]) * draw(st.floats(0.0, 1.0)))
        if draw(st.booleans()):
            return float(f[0] * draw(st.floats(1e-3, 1.0, exclude_max=True)))
        return float(f[-1] * draw(st.floats(1.0, 1e3, exclude_min=True)))

    lo, hi = sorted((edge(), edge()))
    return grid, (lo, hi)


@given(case=grids_and_bands(), sqz=st.floats(0.1, 3.0))
@settings(max_examples=300, deadline=None)
def test_band_median_equals_the_masked_median_bit_for_bit(case, sqz):
    grid, (lo, hi) = case
    off = total_noise(GEO600, grid, 1.0)
    on = total_noise(GEO600, grid, sqz)
    f = grid.values
    mask = (f >= lo) & (f <= hi)
    if lo < hi and mask.any():
        per_bin, median = improvement_db(off, on, (lo, hi))
        assert median == float(np.median(per_bin[mask]))
    else:
        with pytest.raises(DomainError):
            improvement_db(off, on, (lo, hi))



# Few distinct values, so that duplicates, +0.0 and -0.0 turn up often.
# Bounded so that the sum of the middle two cannot overflow.
_MEDIAN_INPUTS = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 3.5]), st.floats(-1e300, 1e300)),
    min_size=1,
    max_size=60,
)


@given(values=_MEDIAN_INPUTS)
@settings(max_examples=500, deadline=None)
def test_partition_median_equals_np_median(values):
    array = np.array(values)
    assert budget._median(array) == float(np.median(array))


def test_partition_median_takes_the_mean_of_the_middle_two():
    assert budget._median(np.array([4.0, 1.0, 3.0, 2.0])) == 2.5
    assert budget._median(np.array([-0.0, 0.0])) == 0.0
    assert budget._median(np.array([7.0])) == 7.0

class TestGridMemo:
    """Runs with equal grid fields share one validated FrequencyGrid."""

    def test_runs_differing_outside_the_grid_share_one_grid(self):
        a = RunConfig().grid()
        b = RunConfig(eta_total=0.3, sigma_jitter_rad=0.1, band_min_hz=500.0).grid()
        assert a is b

    @pytest.mark.parametrize(
        "change",
        [
            {"grid_spacing": "linear"},
            {"f_min_hz": 20.0},
            {"f_max_hz": 20000.0},
            {"grid_points": 999},
        ],
    )
    def test_changing_a_grid_field_gives_a_new_grid(self, change):
        base = RunConfig().grid()
        changed = RunConfig(**change).grid()
        assert changed is not base
        assert changed != base
        assert RunConfig().grid() == base

    def test_shared_values_stay_read_only(self):
        grid = RunConfig().grid()
        assert not grid.values.flags.writeable
        with pytest.raises(ValueError):
            grid.values[0] = 1.0
        assert RunConfig().grid().values[0] == 10.0

    @pytest.mark.parametrize(
        "axis, values",
        [("eta", [0.3, 0.62, 0.9]), ("injected_db", [3.0, 10.0, 20.0]), ("sigma", [0.0, 0.05, 0.3])],
    )
    def test_sweep_shares_one_grid_and_matches_fresh_reports(self, axis, values, monkeypatch):
        from sqzbudget import budget

        run = default_run_config()
        config._grid.cache_clear()
        spectra = []
        spectrum_init = budget.NoiseSpectrum.__post_init__

        def recording_init(self):
            spectra.append(self)
            spectrum_init(self)

        monkeypatch.setattr(budget.NoiseSpectrum, "__post_init__", recording_init)
        rows = sweep(run, axis, values)
        # One grid built and one unsqueezed spectrum on it serve every value.
        assert config._grid.cache_info().misses == 1
        assert len(spectra) == 1 and spectra[0].grid is run.grid()
        monkeypatch.undo()

        for row, value in zip(rows, values):
            config._grid.cache_clear()
            report = build_report(budget._run_at(run, axis, value))
            assert row.value == value
            for name in ("broadband_improvement_db", "shot_limited_improvement_db", "rate_gain"):
                assert getattr(row, name).hex() == getattr(report, name).hex()


class TestRateGain:
    def test_closed_form(self):
        assert abs(detection_rate_gain(1.5) - 3.375) <= 1e-12
        assert detection_rate_gain(1.0) == 1.0

    def test_operating_point(self):
        gain = detection_rate_gain(1.0 / math.sqrt(0.442))
        assert gain == pytest.approx(3.40, abs=0.005)

    @given(r1=st.floats(0.2, 3.0), r2=st.floats(0.2, 3.0))
    @settings(max_examples=200, deadline=None)
    def test_multiplicative(self, r1, r2):
        assert detection_rate_gain(r1 * r2) == pytest.approx(
            detection_rate_gain(r1) * detection_rate_gain(r2), rel=1e-12
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            detection_rate_gain(0.0)


class TestReport:
    def test_default_operating_point(self):
        report = build_report(default_run_config())
        assert report.squeezing_factor == pytest.approx(math.sqrt(0.442), rel=1e-12)
        assert report.shot_limited_improvement_db == pytest.approx(
            -10.0 * math.log10(0.442), rel=1e-12
        )
        assert 3.3 <= report.rate_gain <= 3.5
        assert report.eta_effective == 0.62
        assert report.eta_stage_product == pytest.approx(0.648, rel=1e-12)
        assert report.anchor_computed_asd == pytest.approx(1.0e-21, rel=1e-12)
        assert len(report.ledger) == 3

    def test_stage_product_used_when_no_override(self):
        from dataclasses import replace

        run = replace(default_run_config(), eta_total=None)
        report = build_report(run)
        assert report.eta_effective == pytest.approx(0.648, rel=1e-12)

    def test_wrong_quadrature_injection_degrades(self):
        from dataclasses import replace

        run = replace(default_run_config(), injection_angle_rad=math.pi / 2.0)
        report = build_report(run)
        assert report.squeezing_factor > 1.0
        assert report.shot_limited_improvement_db < 0.0


_STAGES = st.lists(
    st.tuples(st.sampled_from(["sr", "omc", "pd", "faraday"]), st.floats(1e-3, 1.0)),
    min_size=1,
    max_size=6,
)


class TestLedgerOnDemand:
    @given(stages=_STAGES, eta_total=st.one_of(st.none(), st.floats(0.05, 1.0)))
    @settings(max_examples=100, deadline=None)
    def test_stage_product_and_ledger_match_the_degradation_report(self, stages, eta_total):
        from dataclasses import replace

        chain = tuple(LossElement(name, eff) for name, eff in stages)
        run = replace(default_run_config(), loss_stages=chain, eta_total=eta_total)
        report = build_report(run)
        rows = degradation_report(run.level, chain)
        assert report.eta_stage_product.hex() == rows[-1].eta_cumulative.hex()
        assert report.ledger == rows

    def test_sweep_builds_no_ledger_and_a_summary_builds_one(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return degradation_report(*args)

        monkeypatch.setattr(budget, "degradation_report", counting)
        run = default_run_config()
        sweep(run, "eta", [0.5, 0.6, 0.7])
        assert calls == []
        summary_json(build_report(run))
        assert calls == [(run.level, run.loss_stages)]


class TestSweep:
    def test_monotone_in_eta(self):
        run = default_run_config()
        values = [0.1, 0.3, 0.5, 0.62, 0.8, 0.95, 1.0]
        rows = sweep(run, "eta", values)
        broadband = [r.broadband_improvement_db for r in rows]
        shot_limited = [r.shot_limited_improvement_db for r in rows]
        assert all(a < b for a, b in zip(broadband, broadband[1:]))
        assert all(a < b for a, b in zip(shot_limited, shot_limited[1:]))

    def test_monotone_in_injected_db(self):
        rows = sweep(default_run_config(), "injected_db", [0.0, 3.0, 6.0, 10.0, 15.0])
        shot_limited = [r.shot_limited_improvement_db for r in rows]
        assert all(a < b for a, b in zip(shot_limited, shot_limited[1:]))

    def test_improvement_vanishes_as_eta_vanishes(self):
        rows = sweep(default_run_config(), "eta", [1e-6])
        assert abs(rows[0].shot_limited_improvement_db) < 1e-4
        assert abs(rows[0].broadband_improvement_db) < 1e-4

    def test_operating_point_row(self):
        rows = sweep(default_run_config(), "eta", [0.62])
        assert rows[0].shot_limited_improvement_db == pytest.approx(3.55, abs=0.005)
        assert rows[0].rate_gain == pytest.approx(3.40, abs=0.005)

    def test_saturates_at_the_loss_ceiling(self):
        rows = sweep(default_run_config(), "injected_db", [10.0, 20.0, 30.0, 60.0])
        ceiling = -10.0 * math.log10(1.0 - 0.62)
        values = [r.shot_limited_improvement_db for r in rows]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < ceiling for v in values)
        assert values[-1] == pytest.approx(ceiling, abs=1e-3)

    def test_jitter_axis_degrades(self):
        rows = sweep(default_run_config(), "sigma", [0.0, 0.05, 0.2, 0.5])
        values = [r.shot_limited_improvement_db for r in rows]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_invalid_value_names_its_index(self):
        with pytest.raises(DomainError, match=r"\[2\]"):
            sweep(default_run_config(), "eta", [0.5, 0.7, 1.3])

    @pytest.mark.parametrize(
        "axis, bad, field",
        [
            ("eta", 0.0, "eta_total"),
            ("injected_db", -1.0, "squeeze_db"),
            ("sigma", math.nan, "sigma_jitter_rad"),
        ],
    )
    def test_invalid_value_names_index_and_field(self, axis, bad, field):
        with pytest.raises(DomainError, match=rf"{axis} value \[1\]: {field} = {bad!r} violates"):
            sweep(default_run_config(), axis, [0.5, bad, 0.6])

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError):
            sweep(default_run_config(), "wavelength", [1e-6])

    def test_empty_values_rejected(self):
        with pytest.raises(ConfigError):
            sweep(default_run_config(), "eta", [])


class TestRequiredEfficiency:
    def test_six_db_goal(self):
        eta = required_efficiency_for_improvement(6.0, SqueezeLevel(10.0, 15.0))
        expected = (1.0 - 10.0 ** (-0.6)) / (1.0 - 0.1)
        assert eta == pytest.approx(expected, rel=1e-12)
        assert eta == pytest.approx(0.833, abs=1e-3)

    def test_round_trip_through_the_loss_formula(self):
        level = SqueezeLevel(10.0, 15.0)
        eta = required_efficiency_for_improvement(6.0, level)
        v_out = eta * 0.1 + (1.0 - eta)
        assert -10.0 * math.log10(v_out) == pytest.approx(6.0, abs=1e-12)

    def test_target_equal_to_injection_needs_unit_efficiency(self):
        assert required_efficiency_for_improvement(
            10.0, SqueezeLevel(10.0, 15.0)
        ) == pytest.approx(1.0, rel=1e-12)

    def test_unreachable_target_rejected(self):
        with pytest.raises(DomainError):
            required_efficiency_for_improvement(10.5, SqueezeLevel(10.0, 15.0))
        with pytest.raises(DomainError):
            required_efficiency_for_improvement(3.0, SqueezeLevel(0.0, 0.0))
        with pytest.raises(DomainError):
            required_efficiency_for_improvement(0.0, SqueezeLevel(10.0, 15.0))


def test_antisqueezed_quantum_overflow_names_the_keys():
    # 300 dB of anti-squeezing read out at 90 degrees: the unsqueezed shot
    # ASD at f_max_hz is finite (RunConfig checks that), its product with
    # the squeezing factor is not.
    run = config.parse_config(
        "anchor_asd = 1e150\nsr_pole_hz = 1\nanchor_freq_hz = 10\n"
        "f_max_hz = 1e153\nsqueeze_db = 0\nantisqueeze_db = 300\n"
        "injection_angle_rad = 1.5707963\neta_total = 1\n"
    )
    with pytest.raises(DomainError, match="antisqueeze_db = 300.0 violates bound") as exc:
        build_report(run)
    assert exc.value.keys == ("antisqueeze_db", "injection_angle_rad", "f_max_hz")
