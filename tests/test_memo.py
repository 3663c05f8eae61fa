"""Memoised instrument curves and unsqueezed spectrum: shared, read-only, never stale.

``shot_noise_asd`` and ``technical_noise_asd`` keep their last curve on a
``FrequencyGrid``, and ``total_noise`` its last unsqueezed spectrum, so a
sweep evaluates them once. A hit must give the bits a fresh evaluation
gives; the undecorated formula (``__wrapped__``) is that evaluation.
"""

import itertools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqzbudget import budget, config, ifo
from sqzbudget.budget import NoiseSpectrum, build_report, sweep, total_noise
from sqzbudget.config import RunConfig
from sqzbudget.ifo import FrequencyGrid, IfoConfig, shot_noise_asd, technical_noise_asd
from sqzbudget.losses import LossElement
from sqzbudget.quadrature import SqueezeLevel

FORMULAS = (shot_noise_asd, technical_noise_asd)


def bits(curve) -> bytes:
    """The exact bits of a curve, the sign of a zero included."""
    return np.asarray(curve, dtype=float).tobytes()


def grids():
    values = np.geomspace(10.0, 10000.0, 50)
    return (
        FrequencyGrid(values),
        FrequencyGrid(np.linspace(100.0, 5000.0, 30)),
        FrequencyGrid(tuple(values.tolist())),
        FrequencyGrid(values.copy()),  # equal values, another object
    )


INSTRUMENTS = (
    IfoConfig(),
    IfoConfig(sr_pole_hz=300.0, tech_corner_hz=500.0, power_bs=1000.0),
    IfoConfig(tech_displacement_asd=0.0),
    # Equal to the one before, but its technical curve is -0.0 throughout.
    IfoConfig(tech_displacement_asd=-0.0),
)


@pytest.mark.parametrize("asd", FORMULAS)
def test_alternating_instruments_and_grids_match_a_fresh_evaluation(asd):
    pairs = list(itertools.product(INSTRUMENTS, grids()))
    # Every pair after every other one, each twice in a row: hits and misses.
    for (cfg_a, grid_a), (cfg_b, grid_b) in itertools.product(pairs, repeat=2):
        for cfg, grid in ((cfg_a, grid_a), (cfg_b, grid_b), (cfg_b, grid_b)):
            curve = asd(cfg, grid)
            assert bits(curve) == bits(asd.__wrapped__(cfg, grid))
            assert isinstance(curve, tuple) == isinstance(grid.values, tuple)


def test_the_unsqueezed_spectrum_follows_the_instrument_and_the_grid():
    pairs = list(itertools.product(INSTRUMENTS, grids()))
    for cfg, grid in pairs + pairs[::-1]:
        spectrum = total_noise(cfg, grid, 1.0)
        shot, tech = (asd.__wrapped__(cfg, grid) for asd in FORMULAS)
        for part, fresh in ((spectrum.quantum, shot), (spectrum.tech, tech)):
            assert bits(part) == bits(fresh)
        assert bits(spectrum.total) == bits(NoiseSpectrum(grid, shot, tech).total)


def test_a_zero_of_the_other_sign_is_not_a_hit():
    plus, minus = INSTRUMENTS[2], INSTRUMENTS[3]
    assert plus == minus
    grid = grids()[0]
    assert math.copysign(1.0, technical_noise_asd(plus, grid)[0]) == 1.0
    assert math.copysign(1.0, technical_noise_asd(minus, grid)[0]) == -1.0


@pytest.mark.parametrize("asd", FORMULAS)
@pytest.mark.parametrize("kind", [0, 2], ids=["array", "floats"])
def test_an_equal_but_distinct_instrument_hits(asd, kind):
    grid = grids()[kind]
    first, second = IfoConfig(), IfoConfig()
    assert first is not second and first == second
    assert asd(second, grid) is asd(first, grid)


@pytest.mark.parametrize("asd", FORMULAS)
def test_array_curves_are_read_only(asd):
    curve = asd(IfoConfig(), grids()[0])
    assert not curve.flags.writeable
    with pytest.raises(ValueError):
        curve[0] = 1.0
    assert bits(asd(IfoConfig(), grids()[0])) == bits(asd.__wrapped__(IfoConfig(), grids()[0]))


def test_threads_sharing_the_memo_never_see_a_mixed_entry():
    # Each entry is one (instrument, grid, curve) tuple, read and replaced
    # whole; threads that alternate keys may recompute but never mismatch.
    pairs = list(itertools.product(INSTRUMENTS[:3], grids()[:3]))
    expected = [[bits(asd.__wrapped__(cfg, grid)) for asd in FORMULAS] for cfg, grid in pairs]
    failures = []

    def work(offset):
        for step in range(300):
            i = (step + offset) % len(pairs)
            cfg, grid = pairs[i]
            if [bits(asd(cfg, grid)) for asd in FORMULAS] != expected[i]:
                failures.append(i)

    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(saved)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def test_a_number_or_an_array_is_evaluated_afresh():
    values = np.geomspace(10.0, 10000.0, 50)
    first = shot_noise_asd(IfoConfig(), values)
    assert first.flags.writeable
    assert shot_noise_asd(IfoConfig(), values) is not first


def test_spectra_share_the_memoised_curves_without_a_copy():
    run = RunConfig(grid_points=1003)
    report = build_report(run)
    grid, off = run.grid(), report.spectrum_off
    assert off.quantum is shot_noise_asd(run.ifo, grid)
    assert off.tech is technical_noise_asd(run.ifo, grid)
    assert report.spectrum_on.tech is off.tech
    assert total_noise(run.ifo, grid, 1.0) is off
    for part in (off.total, report.spectrum_on.quantum, report.spectrum_on.total):
        assert not part.flags.writeable


def test_a_part_that_could_still_change_is_copied():
    grid = grids()[0]
    quantum, base = np.full(len(grid), 2.0), np.ones(len(grid))
    tech = base[:]  # read-only, but a view of a writeable array
    tech.setflags(write=False)
    spectrum = NoiseSpectrum(grid, quantum, tech)
    quantum[0] = base[0] = 5.0
    assert spectrum.quantum[0] == 2.0 and spectrum.tech[0] == 1.0
    assert not spectrum.quantum.flags.writeable


@pytest.mark.parametrize("floats", [False, True], ids=["arrays", "floats"])
def test_a_sweep_evaluates_each_grid_formula_once(floats, monkeypatch):
    # A new grid object, so that the memo starts cold.
    config._grid.cache_clear()
    run = RunConfig(grid_points=1009)
    on_grid, spectra, reports = [], [], []
    per_freq, spectrum_init, report = ifo._per_freq, NoiseSpectrum.__post_init__, build_report

    def counting_per_freq(f, formula):
        if isinstance(f, FrequencyGrid):
            on_grid.append(f)
        return per_freq(f, formula)

    def counting_init(self):
        spectra.append(self)
        spectrum_init(self)

    def recording_build_report(run_v, *args):
        reports.append(report(run_v, *args))
        return reports[-1]

    monkeypatch.setattr(ifo, "_per_freq", counting_per_freq)
    monkeypatch.setattr(NoiseSpectrum, "__post_init__", counting_init)
    monkeypatch.setattr(budget, "build_report", recording_build_report)
    values = [0.3, 0.62, 0.9]
    rows = sweep(run, "eta", values, floats)
    assert len(on_grid) == 2, "the shot and technical curves, once each"
    if floats:
        assert len(rows) == len(reports) == 3
        assert len(spectra) == 1 + 3, "one unsqueezed spectrum, one squeezed per value"
        assert all(r.spectrum_off is reports[0].spectrum_off for r in reports)
        return
    # On arrays the band medians are one block: no squeezed spectrum is
    # built, and every row has the bits of a fresh report for its value.
    assert len(spectra) == 1, "one unsqueezed spectrum"
    monkeypatch.undo()
    assert_rows_equal_fresh_reports(run, "eta", values, rows, floats)


def assert_rows_equal_fresh_reports(run, axis, values, rows, floats=False):
    assert len(rows) == len(values)
    for row, value in zip(rows, values):
        # A new grid object: every memo misses, so the report is built afresh.
        config._grid.cache_clear()
        report = build_report(budget._run_at(run, axis, value), floats)
        assert row.value == value
        for name in ("broadband_improvement_db", "shot_limited_improvement_db", "rate_gain"):
            assert getattr(row, name).hex() == getattr(report, name).hex()


AXES = {"eta": (0.05, 1.0), "injected_db": (0.0, 30.0), "sigma": (0.0, 0.5)}


@st.composite
def sweeps(draw):
    """A run, an axis and its values, with jitter and with eta_total = none chains."""
    squeeze = draw(st.floats(0.0, 15.0))
    stages = draw(st.lists(st.floats(0.3, 1.0), min_size=1, max_size=4))
    run = RunConfig(
        ifo=IfoConfig(sr_pole_hz=draw(st.floats(100.0, 1000.0))),
        level=SqueezeLevel(squeeze, squeeze + draw(st.floats(0.0, 6.0))),
        injection_angle_rad=draw(st.sampled_from([0.0, 0.1, draw(st.floats(-0.5, 0.5))])),
        sigma_jitter_rad=draw(st.sampled_from([0.0, draw(st.floats(0.0, 0.3))])),
        loss_stages=tuple(LossElement(f"stage{k}", eta) for k, eta in enumerate(stages)),
        eta_total=draw(st.sampled_from([None, draw(st.floats(0.05, 1.0))])),
        grid_points=draw(st.integers(2, 400)),
        grid_spacing=draw(st.sampled_from(["log", "linear"])),
        band_min_hz=draw(st.floats(10.0, 5000.0)),
        band_max_hz=10000.0,
    )
    axis = draw(st.sampled_from(sorted(AXES)))
    values = draw(st.lists(st.floats(*AXES[axis]), min_size=1, max_size=4))
    return run, axis, values


@given(case=sweeps(), floats=st.booleans())
@settings(max_examples=150, deadline=None)
def test_sweep_rows_equal_fresh_reports(case, floats):
    run, axis, values = case
    assert_rows_equal_fresh_reports(run, axis, values, sweep(run, axis, values, floats), floats)


B = budget._BLOCK_ROWS


@st.composite
def block_sweeps(draw):
    """An array sweep of 1, B-1, B, B+1 or 3B+5 values over a band of 1, 2 or more bins."""
    squeeze = draw(st.floats(0.0, 15.0))
    stages = draw(st.lists(st.floats(0.3, 1.0), min_size=1, max_size=4))
    run = RunConfig(
        level=SqueezeLevel(squeeze, squeeze + draw(st.floats(0.0, 6.0))),
        injection_angle_rad=draw(st.sampled_from([0.0, 0.1, draw(st.floats(-0.5, 0.5))])),
        sigma_jitter_rad=draw(st.sampled_from([0.0, draw(st.floats(0.0, 0.3))])),
        loss_stages=tuple(LossElement(f"stage{k}", eta) for k, eta in enumerate(stages)),
        eta_total=draw(st.sampled_from([None, draw(st.floats(0.05, 1.0))])),
        grid_points=draw(st.integers(3, 400)),
        grid_spacing=draw(st.sampled_from(["log", "linear"])),
    )
    f = run.grid().values.tolist()
    # A band of exactly `bins` grid points: one, an even or an odd count.
    bins = draw(st.sampled_from([1, 2, 3, draw(st.integers(1, len(f)))]))
    first = draw(st.integers(0, len(f) - bins))
    last = f[first + bins - 1] if bins > 1 else math.nextafter(f[first], math.inf)
    run = RunConfig(**{**vars(run), "band_min_hz": f[first], "band_max_hz": last})
    axis = draw(st.sampled_from(sorted(AXES)))
    count = draw(st.sampled_from([1, B - 1, B, B + 1, 3 * B + 5]))
    values = draw(st.lists(st.floats(*AXES[axis]), min_size=count, max_size=count))
    return run, axis, values, bins


@given(case=block_sweeps())
@settings(max_examples=60, deadline=None)
def test_array_rows_equal_fresh_reports_across_block_edges(case):
    run, axis, values, bins = case
    band = budget._band_bins(run.grid().values, (run.band_min_hz, run.band_max_hz))
    assert band.stop - band.start == bins
    assert_rows_equal_fresh_reports(run, axis, values, sweep(run, axis, values))


@pytest.mark.parametrize(
    "text, axis, values, reported",
    [
        # At 120 dB read out at 90 degrees the squeezed quantum ASD passes
        # _PART_MAX at f_max_hz.
        ("anchor_asd = 1e150\nsr_pole_hz = 1\nanchor_freq_hz = 10\nf_max_hz = 1e153\n"
         "squeeze_db = 0\nantisqueeze_db = 0\ninjection_angle_rad = 1.5707963\neta_total = 1\n",
         "injected_db", [0.0, 120.0, 3.0], [1]),
        # The technical ASD is 1e308 below its corner, for every value.
        ("arm_length_eff = 1\ntech_displacement_asd = 1e308\ntech_corner_hz = 1e-90\n"
         "f_min_hz = 1e-95\nanchor_asd = 1e150\n",
         "eta", [0.3, 0.62, 0.9], [0, 1, 2]),
    ],
    ids=["quantum", "tech"],
)
def test_a_value_with_a_part_near_the_float_range_gets_its_report(
    monkeypatch, text, axis, values, reported
):
    # NoiseSpectrum checks the total of a part at or above _PART_MAX: such a
    # value gets its report, and its row is that report's.
    run = config.parse_config(text)
    reports, report = [], build_report
    monkeypatch.setattr(budget, "build_report", lambda *a: reports.append(report(*a)) or reports[-1])
    rows = sweep(run, axis, values)
    assert [r.run for r in reports] == [budget._run_at(run, axis, values[i]) for i in reported]
    for r in reports:
        on = r.spectrum_on
        assert max(on.quantum.max(), on.tech.max()) >= budget._PART_MAX
    monkeypatch.undo()
    assert_rows_equal_fresh_reports(run, axis, values, rows)
