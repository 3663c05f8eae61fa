"""Memoised instrument curves and unsqueezed spectrum: shared, read-only, never stale.

``shot_noise_asd`` and ``technical_noise_asd`` keep their last curve on a
``FrequencyGrid``, and ``total_noise`` its last unsqueezed spectrum, so a
report's two spectra and a sweep's values evaluate them once. A hit needs
the same instrument and grid objects, which is what one command passes;
an equal instrument built again is a miss. A hit must give the bits a
fresh evaluation gives; the undecorated formula (``__wrapped__``) is that
evaluation.
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
from sqzbudget.config import RunConfig, default_run_config
from sqzbudget.errors import DomainError
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
def test_an_equal_but_distinct_instrument_misses(asd, kind):
    grid = grids()[kind]
    first, second = IfoConfig(), IfoConfig()
    assert first is not second and first == second
    curve = asd(first, grid)
    again = asd(second, grid)
    assert again is not curve
    assert bits(again) == bits(asd.__wrapped__(second, grid))


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


def assert_sweep_equals_fresh_reports(run, axis, values, floats=False):
    """The rows of fresh reports, or the error of the first value whose report raises."""
    try:
        rows = sweep(run, axis, values, floats)
    except DomainError as exc:
        for i, value in enumerate(values):
            config._grid.cache_clear()
            try:
                build_report(budget._run_at(run, axis, value), floats)
            except DomainError as fresh:
                assert str(exc) == f"sweep {axis} value [{i}]: {fresh}"
                assert exc.keys == fresh.keys
                return
        raise
    assert_rows_equal_fresh_reports(run, axis, values, rows, floats)


AXES = {"eta": (0.05, 1.0), "injected_db": (0.0, 30.0), "sigma": (0.0, 0.5)}
OUT_OF_DOMAIN = {
    "eta": [math.nan, math.inf, -math.inf, 0.0, -0.5, 1.5, math.nextafter(1.0, 2.0)],
    "injected_db": [math.nan, math.inf, -math.inf, -1.0, 300.5, 1e6],
    "sigma": [math.nan, math.inf, -math.inf, -0.1],
}


def axis_values(draw, axis, size):
    """``size`` values in the axis's domain; in a third of the draws some are out of it."""
    values = draw(st.lists(st.floats(*AXES[axis]), min_size=size, max_size=size))
    if draw(st.integers(0, 2)) == 0:
        for _ in range(draw(st.integers(1, 3))):
            values[draw(st.integers(0, size - 1))] = draw(st.sampled_from(OUT_OF_DOMAIN[axis]))
    return values


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
    return run, axis, axis_values(draw, axis, draw(st.integers(1, 4)))


@given(case=sweeps(), floats=st.booleans())
@settings(max_examples=150, deadline=None)
def test_sweep_rows_equal_fresh_reports(case, floats):
    assert_sweep_equals_fresh_reports(*case, floats)


@st.composite
def block_sweeps(draw):
    """An array sweep of 1, 63, 64, 65 or 197 values over a band of 1, 2 or more bins."""
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
    run, bins = with_exact_band(draw, run)
    axis = draw(st.sampled_from(sorted(AXES)))
    count = draw(st.sampled_from([1, 63, 64, 65, 197]))
    return run, axis, axis_values(draw, axis, count), bins


def with_exact_band(draw, run):
    """The run with a band of exactly `bins` grid points: one, an even or an odd count."""
    f = run.grid().values.tolist()
    bins = draw(st.sampled_from([1, 2, 3, draw(st.integers(1, len(f)))]))
    first = draw(st.integers(0, len(f) - bins))
    last = f[first + bins - 1] if bins > 1 else math.nextafter(f[first], math.inf)
    return RunConfig(**{**vars(run), "band_min_hz": f[first], "band_max_hz": last}), bins


@given(case=block_sweeps())
@settings(max_examples=60, deadline=None)
def test_array_rows_equal_fresh_reports_across_block_edges(case):
    run, axis, values, bins = case
    band = budget._band_bins(run.grid().values, (run.band_min_hz, run.band_max_hz))
    assert band.stop - band.start == bins
    assert_sweep_equals_fresh_reports(run, axis, values)


# log10 of the relative width of each kind's grid, whose band is all of it.
WIDTHS = {"tie": (-6.0, -2.0), "near": (-12.0, -8.0), "unity": (-6.0, -2.0),
          "subnormal": (-4.0, -2.0)}


@st.composite
def keyed_sweeps(draw, kind):
    """An array sweep whose band keys tie, nearly tie or stand apart, at any scale.

    ``_band_medians`` ranks a value's band bins by a key and evaluates the
    improvement at its median bins only, unless the keys there tie or sit
    within its gap of their neighbours, or a part may leave the normal
    range; such a value gets its own report. Each ``kind`` aims at one
    way that can go wrong:

    * ``tie``: a technical curve of 0 makes every key tie;
    * ``near``: a grid 1e-12 to 1e-8 wide (relatively) puts neighbouring
      keys a few ulps apart, closer than their rounding, so that the keys
      and the improvements may be ordered differently;
    * ``unity``: on a grid 1e-6 to 1e-2 wide, squeezing factors near 1 (a
      level or an efficiency near 0) bring every key near 1, where the
      technical term sets the keys' gaps;
    * ``subnormal``: on a grid 1e-4 to 1e-2 wide, a flat level from 1e-318
      to 1e-315 puts the parts below the normal range, where a part is off
      by more than the gap;
    * ``edges``: the preset's span with a band of 1, 2, 3 or any number of
      grid points, and 1 to 131 values.

    The technical curve is flat (its corner above the grid) in ``unity``,
    and every band but ``edges``' is its whole grid.
    """
    level = 10.0 ** draw(st.floats(-318.0, -315.0)) if kind == "subnormal" else 1e-21
    if kind == "edges":
        grid = {"grid_points": draw(st.sampled_from([draw(st.integers(3, 400)),
                                                     draw(st.integers(600, 1500))]))}
        anchor, corner = 3000.0, 700.0
    else:  # the band is the whole grid
        anchor, corner = draw(st.floats(100.0, 10000.0)), 1e6 if kind == "unity" else 700.0
        top = anchor * (1.0 + 10.0 ** draw(st.floats(*WIDTHS[kind])))
        grid = {"f_min_hz": anchor, "f_max_hz": top, "grid_points": draw(st.integers(3, 100)),
                "band_min_hz": anchor, "band_max_hz": top}
    tech = 0.0 if kind == "tie" else draw(st.floats(0.1, 2.0))
    # shot_scale fixes the flat shot level at `level`, whatever the anchor.
    ifo = IfoConfig(
        sr_pole_hz=draw(st.floats(100.0, 1000.0)),
        anchor_freq_hz=anchor,
        tech_corner_hz=corner,
        tech_displacement_asd=tech * level * 1200.0,
        shot_scale=level * 1200.0 * math.sqrt(2700.0),
    )
    squeeze = 10.0 ** draw(st.floats(-12.0, -3.0)) if kind == "unity" else draw(st.floats(0.0, 30.0))
    anti = squeeze + draw(st.sampled_from([0.0, draw(st.floats(0.0, 6.0))]))
    run = RunConfig(
        ifo=ifo,
        level=SqueezeLevel(squeeze, anti),
        injection_angle_rad=draw(st.sampled_from([0.0, draw(st.floats(-0.5, 0.5))])),
        sigma_jitter_rad=draw(st.sampled_from([0.0, draw(st.floats(0.0, 0.3))])),
        eta_total=draw(st.floats(0.05, 1.0)),
        grid_spacing=draw(st.sampled_from(["log", "linear"])),
        **grid,
    )
    if kind == "edges":
        run, _ = with_exact_band(draw, run)
    axis = draw(st.sampled_from(sorted(AXES)))
    counts = [1, 2, 63, 65, 131] if kind == "edges" else [65, 131]
    count = draw(st.sampled_from(counts))
    value = st.floats(*AXES[axis])
    if kind == "unity" and axis != "sigma":
        value = st.floats(-12.0, -3.0).map(lambda e: 10.0 ** e)
    return run, axis, draw(st.lists(value, min_size=count, max_size=count))


@pytest.mark.parametrize("kind", [*WIDTHS, "edges"])
@given(data=st.data())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_array_rows_equal_fresh_reports_where_band_keys_tie_or_nearly_tie(kind, data):
    assert_sweep_equals_fresh_reports(*data.draw(keyed_sweeps(kind)))


@st.composite
def band_spectra(draw):
    """An unsqueezed spectrum, a band of it and squeezing factors.

    The band's x = (t/S)² stand apart, tie (a technical part that is the
    same multiple of the shot part, or 0) or lie a few ulps apart, on a
    shot curve that is not flat, so that x's order is not t's. The factors
    reach 1e±15 (s² within 1e±30) and come within 1e-16 of 1, where every
    key is near 1 and the gaps vanish.
    """
    n = draw(st.integers(1, 40))
    scale = 10.0 ** draw(st.floats(-30.0, 30.0))
    shot = [scale * 10.0 ** draw(st.floats(-2.0, 2.0)) for _ in range(n)]
    base = 10.0 ** draw(st.floats(-3.0, 3.0))
    kind = draw(st.sampled_from(["apart", "tie", "near"]))
    if kind == "apart":
        ratio = [10.0 ** draw(st.floats(-3.0, 3.0)) for _ in range(n)]
    elif kind == "tie":
        ratio = draw(st.lists(st.sampled_from([0.0, base, 2.0 * base]), min_size=n, max_size=n))
    else:
        ratio = [base * (1.0 + draw(st.integers(-4, 4)) * 2.0**-52) for _ in range(n)]
    grid = FrequencyGrid(np.arange(1.0, n + 1.0))
    off = NoiseSpectrum(grid, np.array(shot), np.array([r * v for r, v in zip(ratio, shot)]))
    start = draw(st.integers(0, n - 1))
    bins = slice(start, draw(st.integers(start + 1, n)))
    near_one = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-16.0, -1.0))
    factor = st.one_of(
        st.floats(-15.0, 15.0).map(lambda e: 10.0**e),
        near_one.map(lambda p: 1.0 + p[0] * 10.0 ** p[1]),
        st.just(1.0),
    )
    return off, bins, draw(st.lists(factor, min_size=1, max_size=8))


@given(case=band_spectra())
@settings(max_examples=300, deadline=None)
def test_a_row_that_passes_the_gap_check_has_the_full_evaluations_median_bits(case):
    off, bins, factors = case
    shot, tech, total, f = off.quantum[bins], off.tech[bins], off.total[bins], off.grid.values
    n = len(shot)
    lo, hi = (n - 1) // 2, n // 2
    x = np.square(tech / shot)
    order = np.argsort(x, kind="stable")
    near = x[order[max(lo - 1, 0):hi + 2]]
    a, b, tiny = np.square(shot / total), np.square(tech / total), sys.float_info.min
    normal = a.min() >= tiny and bool(((b >= tiny) | (tech == 0.0)).all())
    medians, keyed = budget._band_medians(off, bins, np.array(factors))
    band = (f[bins.start], math.nextafter(f[bins.stop - 1], math.inf))
    proved = iter(medians.tolist())
    for s, row_keyed in zip(factors, keyed.tolist(), strict=True):
        s2 = s * s
        gap = abs(1.0 - s2) * ((near[1:] - near[:-1]) / (1.0 + near[1:])) / (s2 + near[:-1])
        rule = bool((gap > 4.0 * budget._KEY_GAP).all())
        assert row_keyed == (normal and rule and s2 * a.min() >= tiny and s * shot.min() >= tiny)
        if row_keyed:  # its median is the mean of the improvements at x's middle ranks
            on = NoiseSpectrum(off.grid, s * off.quantum, off.tech)
            per_bin, full = budget.improvement_db(off, on, band)
            assert next(proved).hex() == full.hex()
            middle = per_bin[bins][order[lo:hi + 1]]
            assert full.hex() == (middle[0] if n % 2 else (middle[0] + middle[1]) / 2.0).hex()
    assert next(proved, None) is None


def test_no_row_of_a_preset_sweep_falls_back(monkeypatch):
    # At the preset the band's middle x ranks are percents apart, so every
    # factor's row is evaluated at its median bins alone: one block.
    run = default_run_config()
    shapes, row_medians = [], budget._row_medians
    monkeypatch.setattr(budget, "_row_medians", lambda b: shapes.append(b.shape) or row_medians(b))
    values = np.linspace(0.05, 1.0, 1000).tolist()
    rows = sweep(run, "eta", values)
    assert [shape[0] for shape in shapes] == [1000]
    monkeypatch.undo()
    assert_rows_equal_fresh_reports(run, "eta", values[::50], [rows[i] for i in range(0, 1000, 50)])


@pytest.mark.parametrize(
    "text, axis, values, reported, near",
    [
        # At 120 dB read out at 90 degrees the squeezed quantum ASD passes
        # _PART_MAX at f_max_hz.
        ("anchor_asd = 1e150\nsr_pole_hz = 1\nanchor_freq_hz = 10\nf_max_hz = 1e153\n"
         "squeeze_db = 0\nantisqueeze_db = 0\ninjection_angle_rad = 1.5707963\neta_total = 1\n",
         "injected_db", [0.0, 120.0, 3.0], [0, 1, 2], [1]),
        # The technical ASD is 1e308 below its corner, for every value.
        ("arm_length_eff = 1\ntech_displacement_asd = 1e308\ntech_corner_hz = 1e-90\n"
         "f_min_hz = 1e-95\nanchor_asd = 1e150\n",
         "eta", [0.3, 0.62, 0.9], [0, 1, 2], [0, 1, 2]),
    ],
    ids=["quantum", "tech"],
)
def test_a_value_with_a_part_near_the_float_range_gets_its_report(
    monkeypatch, text, axis, values, reported, near
):
    # NoiseSpectrum checks the total of a part at or above _PART_MAX: such a
    # value gets its report, and its row is that report's. In "quantum" so
    # do the others, whose median bins are not proved: (t/T)² underflows in
    # the band, where the shot part is ~1e152 and the technical one ~1e-23.
    run = config.parse_config(text)
    reports, report = [], build_report
    monkeypatch.setattr(budget, "build_report", lambda *a: reports.append(report(*a)) or reports[-1])
    rows = sweep(run, axis, values)
    assert [r.run for r in reports] == [budget._run_at(run, axis, values[i]) for i in reported]
    for i, r in zip(reported, reports):
        on = r.spectrum_on
        assert (max(on.quantum.max(), on.tech.max()) >= budget._PART_MAX) == (i in near)
    monkeypatch.undo()
    assert_rows_equal_fresh_reports(run, axis, values, rows)
