"""``budget``'s and ``sweep``'s files against a closed form of their own, on random configs.

Each drawn config runs as ``budget``, and as a 3- or 50-value ``sweep`` on
a drawn axis, through ``cli.main`` on both paths, arrays and floats, in
one process. ``summary.json``'s figures, every ``budget.csv`` column and
every row of ``sweep.csv`` and ``sweep.json`` are compared with numbers
computed here from the config alone:

* the readout variance is ``v_sq cos² + v_anti sin²`` of the injected
  ellipse after loss, averaged over the jitter by ``oracles``'
  Gauss-Hermite quadrature, at any injection angle;
* the shot curve is the anchored flat level times ``sqrt(1 + (f/pole)²)``,
  the technical curve ``tech_displacement_asd / arm_length_eff`` rolling
  off as ``(corner/f)²``, and each total their hypot;
* a sweep value is the config with that value on its axis: ``eta_total``,
  ``sigma_jitter_rad``, or ``squeeze_db`` with ``antisqueeze_db`` at least
  as high.

Every tolerance comes from the nine-digit format, never from a
difference seen between the program and this model.
"""

import io
import json
import math
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dephased_readout_variance
from sqzbudget import cli

# Four half-units in the ninth significant digit: a printed value, or one
# recomputed from a few printed values.
REL9 = 2e-8
# A dB value of a ratio known to REL9: 20/ln(10) * REL9 = 1.74e-7, rounded up.
DB_ABS = 2e-7

# The work limit that forces each path: none is at most 0, and every
# command's work is at most sys.maxsize.
FLOAT_WORK = {"arrays": 0, "floats": sys.maxsize}

HEADER = "f_hz,asd_off,asd_on,improvement_db,shot_off,tech,disp_off,disp_on"
SWEEP_COLUMNS = ("value", "broadband_improvement_db", "shot_limited_improvement_db", "rate_gain")
# Each axis's values: any efficiency, injected level or jitter a config may hold.
AXES = {"eta": (0.05, 1.0), "injected_db": (0.0, 15.0), "sigma": (0.0, 0.5)}


@st.composite
def configs(draw):
    """A valid config as its keys; the anchor (3 kHz, 1e-21) stays on every grid."""
    squeeze = draw(st.floats(0.0, 15.0))
    stages = draw(st.lists(st.floats(0.3, 1.0), min_size=1, max_size=4))
    f_min = draw(st.floats(1.0, 100.0))
    f_max = draw(st.floats(5000.0, 20000.0))
    spacing = draw(st.sampled_from(["log", "linear"]))
    # The band as two fractions of the span, at least a tenth of it apart.
    lo = draw(st.floats(0.0, 0.9))
    hi = draw(st.floats(lo + 0.1, 1.0))
    if spacing == "log":
        band = [f_min * (f_max / f_min) ** u for u in (lo, hi)]
    else:
        band = [f_min + (f_max - f_min) * u for u in (lo, hi)]
    return {
        "arm_length_eff": draw(st.floats(800.0, 4000.0)),
        "sr_pole_hz": draw(st.floats(100.0, 1000.0)),
        "tech_displacement_asd": draw(st.sampled_from([0.0, 1e-18, draw(st.floats(1e-20, 1.5e-18))])),
        "tech_corner_hz": draw(st.floats(300.0, 1500.0)),
        "squeeze_db": squeeze,
        "antisqueeze_db": squeeze + draw(st.floats(0.0, 10.0)),
        "injection_angle_rad": draw(st.floats(-math.pi, math.pi)),
        "sigma_jitter_rad": draw(st.floats(0.0, 0.5)),
        "loss_stages": tuple((f"stage{k}", eta) for k, eta in enumerate(stages)),
        "eta_total": draw(st.sampled_from([None, draw(st.floats(0.05, 1.0))])),
        "f_min_hz": f_min,
        "f_max_hz": f_max,
        "grid_points": draw(st.integers(200, 3000)),
        "grid_spacing": spacing,
        "band_min_hz": min(max(band[0], f_min), f_max),
        "band_max_hz": min(max(band[1], f_min), f_max),
    }


def config_text(keys: dict) -> str:
    lines = []
    for key, value in keys.items():
        if value is None:
            value = "none"
        elif key == "loss_stages":
            value = ",".join(f"{name}:{eta!r}" for name, eta in value)
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}\n")
    return "".join(lines)


def readout_variance(keys: dict) -> float:
    """The injected ellipse after loss, averaged over the jitter, read out at 0."""
    eta = keys["eta_total"]
    if eta is None:
        eta = math.prod(e for _, e in keys["loss_stages"])
    v_sq = eta * 10.0 ** (-keys["squeeze_db"] / 10.0) + (1.0 - eta)
    v_anti = eta * 10.0 ** (keys["antisqueeze_db"] / 10.0) + (1.0 - eta)
    angle, sigma = keys["injection_angle_rad"], keys["sigma_jitter_rad"]
    return dephased_readout_variance(v_sq, v_anti, angle, sigma, 0.0)


def grid(keys: dict) -> np.ndarray:
    n, lo, hi = keys["grid_points"], keys["f_min_hz"], keys["f_max_hz"]
    u = np.arange(n) / (n - 1)
    if keys["grid_spacing"] == "log":
        f = 10.0 ** (math.log10(lo) + (math.log10(hi) - math.log10(lo)) * u)
    else:
        f = lo + (hi - lo) * u
    f[0], f[-1] = lo, hi
    return f


def curves(keys: dict, f):
    """The shot and technical strain ASDs, the shot level fixed by the preset anchor."""
    arm, pole, corner = keys["arm_length_eff"], keys["sr_pole_hz"], keys["tech_corner_hz"]
    level = keys["tech_displacement_asd"] / arm

    def tech(f):
        return level * np.minimum(1.0, (corner / f) ** 2)

    anchor_f, anchor_asd = 3000.0, 1e-21
    flat = math.sqrt(anchor_asd**2 - tech(anchor_f) ** 2) / math.sqrt(1.0 + (anchor_f / pole) ** 2)
    return flat * np.sqrt(1.0 + (f / pole) ** 2), tech(f)


def assert_near(what, got, want, abs_=0.0):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    bad = ~(np.abs(got - want) <= np.maximum(REL9 * np.abs(want), abs_))
    assert not bad.any(), f"{what}: got {got[bad][:3]}, expected {want[bad][:3]}"


@st.composite
def sweeps(draw):
    """An axis and 3 or 50 values in its domain."""
    axis = draw(st.sampled_from(sorted(AXES)))
    count = draw(st.sampled_from([3, 50]))
    return axis, draw(st.lists(st.floats(*AXES[axis]), min_size=count, max_size=count))


def at_value(keys: dict, axis: str, value: float) -> dict:
    """The config a sweep evaluates at ``value`` on ``axis``."""
    if axis == "eta":
        return {**keys, "eta_total": value}
    if axis == "sigma":
        return {**keys, "sigma_jitter_rad": value}
    return {**keys, "squeeze_db": value, "antisqueeze_db": max(keys["antisqueeze_db"], value)}


def run_budget(keys: dict, *sweep) -> dict:
    """``summary.json`` and ``budget.csv`` of the config on each path, by path.

    Given an axis and its values, the same config's ``sweep.csv`` and
    ``sweep.json`` too.
    """
    results = {}
    saved = cli._FLOAT_WORK
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(config_text(keys))
            for name, work in FLOAT_WORK.items():
                cli._FLOAT_WORK = work
                out = os.path.join(tmp, name)
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
                    code = cli.main(["budget", "--config", path, "--out", out])
                assert code == 0, err.getvalue()
                texts = {}
                for file in ("summary.json", "budget.csv"):
                    with open(os.path.join(out, file), encoding="utf-8") as fh:
                        texts[file] = fh.read()
                if sweep:
                    axis, values = sweep
                    argv = ["sweep", "--config", path, "--out", out, "--axis", axis,
                            "--values", ",".join(map(repr, values))]
                    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
                        code = cli.main(argv)
                    assert code == 0, err.getvalue()
                    for file in ("sweep.csv", "sweep.json"):
                        with open(os.path.join(out, file), encoding="utf-8") as fh:
                            texts[file] = fh.read()
                results[name] = texts
    finally:
        cli._FLOAT_WORK = saved
    return results


def band_medians(keys: dict, f, improvement):
    """The median over the band, for each way a point within rounding of an edge may fall."""
    edges = (keys["band_min_hz"], keys["band_max_hz"])
    near = np.zeros(len(f), dtype=bool)
    for edge in edges:
        near |= np.abs(f - edge) <= 1e-9 * edge
    # f_min_hz and f_max_hz are the end points of every grid, exactly.
    near[0] = near[-1] = False
    sure = improvement[(edges[0] <= f) & (f <= edges[1]) & ~near]
    edge = improvement[near]
    for mask in range(1 << len(edge)):
        chosen = np.concatenate([sure, [x for k, x in enumerate(edge) if mask >> k & 1]])
        if len(chosen):
            yield float(np.median(chosen))


def check_budget(keys: dict, summary: dict, csv_text: str) -> None:
    var = readout_variance(keys)
    sqz = math.sqrt(var)
    assert_near("squeezing_factor", summary["squeezing_factor"], sqz)
    assert_near("shot_limited_improvement_db", summary["shot_limited_improvement_db"],
                -10.0 * math.log10(var), DB_ABS)
    assert_near("rate_gain", summary["rate_gain"], var**-1.5)

    lines = csv_text.split("\n")
    rows = [line for line in lines if line and not line.startswith("#")]
    assert rows[0] == HEADER
    table = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
    assert table.shape == (keys["grid_points"], 8)
    f = grid(keys)
    shot, tech = curves(keys, f)
    off, on = np.hypot(shot, tech), np.hypot(sqz * shot, tech)
    improvement = 20.0 * np.log10(off / on)
    arm = keys["arm_length_eff"]
    want = {
        "f_hz": f,
        "asd_off": off,
        "asd_on": on,
        "improvement_db": improvement,
        "shot_off": shot,
        "tech": tech,
        "disp_off": off * arm,
        "disp_on": on * arm,
    }
    for column, name in enumerate(HEADER.split(",")):
        abs_ = DB_ABS if name == "improvement_db" else 0.0
        assert_near(f"budget.csv {name}", table[:, column], want[name], abs_)

    reported = summary["broadband_improvement_db"]
    medians = list(band_medians(keys, f, improvement))
    assert medians, "no grid point in the band"
    near = [abs(m - reported) <= max(REL9 * abs(m), DB_ABS) for m in medians]
    assert any(near), f"broadband_improvement_db {reported!r}, band medians {medians}"


def check_sweep(keys: dict, axis: str, values: list, csv_text: str, json_text: str) -> None:
    lines = [line for line in csv_text.split("\n") if line]
    assert lines[:2] == [f"# sweep axis: {axis}", ",".join(SWEEP_COLUMNS)]
    csv_rows = [[float(x) for x in line.split(",")] for line in lines[2:]]
    payload = json.loads(json_text)
    assert payload["axis"] == axis
    json_rows = [[row[name] for name in SWEEP_COLUMNS] for row in payload["rows"]]
    assert len(csv_rows) == len(json_rows) == len(values)
    f = grid(keys)
    shot, tech = curves(keys, f)
    off = np.hypot(shot, tech)
    for i, value in enumerate(values):
        var = readout_variance(at_value(keys, axis, value))
        improvement = 20.0 * np.log10(off / np.hypot(math.sqrt(var) * shot, tech))
        medians = list(band_medians(keys, f, improvement))
        assert medians, "no grid point in the band"
        for rows in (csv_rows, json_rows):
            got, broadband, shot_limited, gain = rows[i]
            assert_near(f"{axis} value [{i}]", got, value)
            assert_near(f"{axis} [{i}] shot_limited_improvement_db", shot_limited,
                        -10.0 * math.log10(var), DB_ABS)
            assert_near(f"{axis} [{i}] rate_gain", gain, var**-1.5)
            near = [abs(m - broadband) <= max(REL9 * abs(m), DB_ABS) for m in medians]
            assert any(near), f"{axis} [{i}] broadband {broadband!r}, band medians {medians}"


@given(keys=configs(), sweep=sweeps())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_budget_and_sweep_files_match_the_closed_form_on_both_paths(keys, sweep):
    for texts in run_budget(keys, *sweep).values():
        check_budget(keys, json.loads(texts["summary.json"]), texts["budget.csv"])
        check_sweep(keys, *sweep, texts["sweep.csv"], texts["sweep.json"])
