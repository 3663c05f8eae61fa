"""Both evaluation paths write the same bytes.

``budget`` and ``sweep`` run on numpy arrays, or on Python floats when
their work is small. The two paths build the same grid floats and the
same totals, but ``math.log10`` may differ from numpy's loop in the
last bit, so the contract is the text. These properties draw configs that the
goldens do not hold, with band edges on a grid value and on its
neighbouring floats, where a grid point can fall on either side of the
band, and require the same exit code, output and files from each path.
"""

import io
import math
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sqzbudget import cli, config
from sqzbudget.config import RunConfig
from sqzbudget.errors import DomainError
from sqzbudget.ifo import IfoConfig
from sqzbudget.losses import LossElement
from sqzbudget.quadrature import SqueezeLevel

# The work limit that forces each path: none is at most 0, and every
# command's work is at most sys.maxsize.
FLOAT_WORK = {"arrays": 0, "floats": sys.maxsize}


@st.composite
def runs(draw):
    """A valid RunConfig whose band edges sit on, beside or between grid points."""
    f_min = draw(st.floats(1.0, 500.0))
    f_max = f_min * 10.0 ** draw(st.floats(0.5, 4.0))
    stages = draw(st.lists(st.floats(0.3, 1.0), min_size=1, max_size=4))
    squeeze = draw(st.floats(0.0, 15.0))
    angle = draw(st.sampled_from([0.0, 0.01, 0.1, draw(st.floats(-0.5, 0.5))]))
    # The anchor lies on the grid's span, as RunConfig requires.
    anchor = draw(st.sampled_from([f_min, f_max, draw(st.floats(f_min, f_max))]))
    run = RunConfig(
        ifo=IfoConfig(anchor_freq_hz=anchor),
        level=SqueezeLevel(squeeze, squeeze + draw(st.floats(0.0, 6.0))),
        injection_angle_rad=angle,
        sigma_jitter_rad=draw(st.sampled_from([0.0, draw(st.floats(0.0, 0.3))])),
        loss_stages=tuple(LossElement(f"stage{k}", eta) for k, eta in enumerate(stages)),
        eta_total=draw(st.sampled_from([None, draw(st.floats(0.05, 1.0))])),
        f_min_hz=f_min,
        f_max_hz=f_max,
        grid_points=draw(st.integers(2, 5000)),
        grid_spacing=draw(st.sampled_from(["log", "linear"])),
        band_min_hz=f_min,
        band_max_hz=f_max,
    )
    f = run.grid(floats=True).values

    def edge():
        i = draw(st.integers(0, len(f) - 1))
        kind = draw(st.sampled_from(["on", "float below", "float above", "between"]))
        if kind == "on":
            return f[i]
        if kind == "float below":
            return math.nextafter(f[i], 0.0)
        if kind == "float above":
            return math.nextafter(f[i], math.inf)
        j = min(i + 1, len(f) - 1)
        return f[i] + (f[j] - f[i]) * draw(st.floats(0.0, 1.0))

    lo, hi = sorted((edge(), edge()))
    if not lo < hi:
        hi = math.nextafter(hi, math.inf)
    try:
        return replace(run, band_min_hz=lo, band_max_hz=hi)
    except DomainError:  # a band that starts above the grid
        assume(False)


def run_on_each_path(run: RunConfig, argv: list) -> dict:
    """Exit code, stdout, stderr and files of ``argv`` on each path, by path."""
    results = {}
    saved = cli._FLOAT_WORK
    try:
        with tempfile.TemporaryDirectory() as tmp:
            config = os.path.join(tmp, "run.cfg")
            with open(config, "w", encoding="utf-8") as fh:
                fh.write(run.to_text())
            for path, work in FLOAT_WORK.items():
                cli._FLOAT_WORK = work
                out = os.path.join(tmp, path)
                stdout, stderr = io.StringIO(), io.StringIO()
                with redirect_stdout(stdout), redirect_stderr(stderr):
                    code = cli.main([*argv, "--config", config, "--out", out])
                files = {}
                for name in sorted(os.listdir(out)) if os.path.isdir(out) else ():
                    with open(os.path.join(out, name), "rb") as fh:
                        files[name] = fh.read()
                # The "wrote <path>" lines name each path's own directory.
                err = stderr.getvalue().replace(out, "<out>")
                results[path] = (code, stdout.getvalue(), err, files)
    finally:
        cli._FLOAT_WORK = saved
    return results


@given(
    spacing=st.sampled_from(["log", "linear"]),
    f_min=st.floats(1e-3, 1e3),
    decades=st.floats(1e-6, 12.0),
    points=st.integers(2, 100_000),
)
@settings(max_examples=50, deadline=None)
def test_both_kinds_of_grid_hold_the_same_floats(spacing, f_min, decades, points):
    config._grid.cache_clear()
    f_max = f_min * 10.0**decades
    assume(f_max > f_min)
    grids = []
    for floats in (False, True):
        try:
            grids.append(list(config._grid(spacing, f_min, f_max, points, floats).values))
        except DomainError as exc:  # a span too narrow for its points
            grids.append(str(exc))
    assert grids[0] == grids[1]


@given(run=runs())
@settings(max_examples=100, deadline=None)
def test_budget_writes_the_same_bytes_on_both_paths(run):
    results = run_on_each_path(run, ["budget", "--format", "all"])
    assert results["floats"] == results["arrays"]


@given(
    run=runs(),
    axis=st.sampled_from(["eta", "injected_db", "sigma"]),
    solve=st.sampled_from([None, 1.0, 3.0, 6.0]),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_sweep_writes_the_same_bytes_on_both_paths(run, axis, solve, data):
    value = {"eta": st.floats(0.05, 1.0), "injected_db": st.floats(0.0, 20.0),
             "sigma": st.floats(0.0, 0.3)}[axis]
    values = data.draw(st.lists(value, min_size=1, max_size=4))
    argv = ["sweep", "--axis", axis, "--values", ",".join(map(repr, values))]
    if solve is not None:
        argv += ["--solve-improvement-db", repr(solve)]
    results = run_on_each_path(run, argv)
    assert results["floats"] == results["arrays"]
