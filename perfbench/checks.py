"""Output checks for the sqzbudget benchmark.

Every expected number is computed here from the closed forms in PAPER.md
and README.md, never by calling the package, so the program does not grade
itself. Each check raises CheckError at the first mismatch.

Numbers in the program's files carry nine significant digits, so values
recomputed from other printed values agree only to about 1e-8 relative;
the tolerances below are set from that, not from observed differences.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET


class CheckError(Exception):
    """An output of the program is wrong."""


# The GEO 600 preset as README.md documents it, in file order.
PRESET = {
    "arm_length_eff": 1200.0,
    "power_bs": 2700.0,
    "wavelength": 1.064e-06,
    "sr_pole_hz": 400.0,
    "anchor_freq_hz": 3000.0,
    "anchor_asd": 1e-21,
    "tech_displacement_asd": 1e-18,
    "tech_corner_hz": 700.0,
    "squeeze_db": 10.0,
    "antisqueeze_db": 15.0,
    "injection_angle_rad": 0.0,
    "sigma_jitter_rad": 0.0,
    "loss_stages": (("sr_cavity", 0.9), ("output_mode_cleaner", 0.9), ("detection", 0.8)),
    "eta_total": 0.62,
    "f_min_hz": 10.0,
    "f_max_hz": 10000.0,
    "grid_points": 1000,
    "grid_spacing": "log",
    "band_min_hz": 1000.0,
    "band_max_hz": 5000.0,
}

# The ledger table README.md prints for the preset.
README_LEDGER = (
    "stage,efficiency,eta_cumulative,v_sq_cumulative,squeeze_db_cumulative\n"
    "sr_cavity,0.9,0.9,0.19,7.21246399\n"
    "output_mode_cleaner,0.9,0.81,0.271,5.67030709\n"
    "detection,0.8,0.648,0.4168,3.8007229\n"
    "# budget uses measured eta_total = 0.62 (stage product 0.648)\n"
)

BUDGET_HEADER = "f_hz,asd_off,asd_on,improvement_db,shot_off,tech,disp_off,disp_on"
SWEEP_HEADER = "value,broadband_improvement_db,shot_limited_improvement_db,rate_gain"
SVG_NS = "{http://www.w3.org/2000/svg}"

# Printed nine-digit value recomputed from other nine-digit values.
REL9 = 2e-8
# An improvement in dB recomputed from two nine-digit ASDs:
# 20/ln(10) * 2e-8 plus the rounding of the printed dB value.
DB_ABS = 2e-7


def fmt9(value: float) -> str:
    return f"{float(value):.9g}"


def config_text(**overrides) -> str:
    """The preset in the program's config format, with keys overridden."""
    unknown = set(overrides) - set(PRESET)
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)}")
    run = {**PRESET, **overrides}
    return "".join(f"{key} = {_format_value(value)}\n" for key, value in run.items())


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, tuple):
        return ",".join(f"{name}:{eff!r}" for name, eff in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines into values typed like PRESET."""
    values = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if not sep or key not in PRESET or key in values:
            raise CheckError(f"config line {line!r}: unknown, duplicate or malformed key")
        kind = PRESET[key]
        try:
            if key == "eta_total" and raw.lower() == "none":
                values[key] = None
            elif isinstance(kind, tuple):
                stages = [part.split(":") for part in raw.split(",")]
                values[key] = tuple((name.strip(), float(eff)) for name, eff in stages)
            elif isinstance(kind, str):
                values[key] = raw
            else:
                values[key] = type(kind)(raw)
        except ValueError:
            raise CheckError(f"config line {line!r}: bad value") from None
    return values


def readout_variance(eta: float, v_sq: float, v_anti: float, sigma: float) -> float:
    """Readout variance after loss and Gaussian phase jitter (PAPER.md).

    eta*(w*v_sq + (1-w)*v_anti) + (1-eta) with w = (1+exp(-2*sigma^2))/2,
    for an ellipse injected and read out along its squeezed axis.
    """
    w = (1.0 + math.exp(-2.0 * sigma * sigma)) / 2.0
    return eta * (w * v_sq + (1.0 - w) * v_anti) + (1.0 - eta)


def run_variance(run: dict) -> float:
    """Readout variance of a run config (injection angle 0)."""
    if run["injection_angle_rad"] != 0.0:
        raise ValueError("the closed form here assumes injection_angle_rad = 0")
    eta = run["eta_total"]
    if eta is None:
        eta = math.prod(eff for _, eff in run["loss_stages"])
    return readout_variance(
        eta,
        10.0 ** (-run["squeeze_db"] / 10.0),
        10.0 ** (run["antisqueeze_db"] / 10.0),
        run["sigma_jitter_rad"],
    )


def _near(what: str, got: float, want: float, rel: float = REL9, abs_: float = 0.0) -> None:
    if not (math.isfinite(got) and abs(got - want) <= max(rel * abs(want), abs_)):
        raise CheckError(f"{what}: got {got!r}, expected {want!r}")


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _files(files: dict, names: set) -> None:
    _expect(set(files) == names, f"wrote {sorted(files)}, expected {sorted(names)}")


def check_op(command: str, expect: dict, rc, stdout: str, files: dict) -> None:
    """Check one CLI call: its exit code, standard output and files."""
    if rc is None:
        raise CheckError(f"{command}: the call raised instead of returning an exit code")
    if command == "budget":
        check_budget(expect, rc, stdout, files)
    elif command == "ledger":
        check_ledger(rc, stdout, files)
    elif command == "sweep":
        check_sweep(expect, rc, stdout, files)
    elif command == "preset":
        check_preset(rc, stdout, files)
    elif command == "oracle":
        check_oracle(expect, rc, stdout, files)
    else:
        raise ValueError(f"no check for subcommand {command!r}")


def check_budget(expect: dict, rc, stdout: str, files: dict) -> None:
    run = expect["run"]
    _expect(rc == 0, f"budget exited {rc}")
    _files(files, {"budget.csv", "summary.json", "spectrum.svg"})
    _expect(stdout == files["summary.json"], "budget stdout differs from summary.json")
    summary = json.loads(files["summary.json"])

    var = run_variance(run)
    sqz = math.sqrt(var)
    _near("squeezing_factor", summary["squeezing_factor"], sqz)
    _near("shot_limited_improvement_db", summary["shot_limited_improvement_db"],
          -10.0 * math.log10(var), abs_=1e-9)
    _near("rate_gain", summary["rate_gain"], var ** -1.5)
    _expect(summary["grid"]["points"] == run["grid_points"], "summary grid points")
    if expect.get("anchors"):
        # PAPER.md's anchors, to the digits it prints them with.
        for key, digits, want in (
            ("squeezing_factor", 3, "0.665"),
            ("shot_limited_improvement_db", 2, "3.55"),
            ("broadband_improvement_db", 2, "3.48"),
            ("rate_gain", 2, "3.40"),
        ):
            got = f"{summary[key]:.{digits}f}"
            _expect(got == want, f"{key} reads {got}, PAPER.md says {want}")

    band = _check_budget_csv(files["budget.csv"], run, sqz)
    _check_band_median(band, run, summary["broadband_improvement_db"])
    _check_spectrum_svg(files["spectrum.svg"], traces=4 if run["tech_displacement_asd"] > 0 else 3)


def _check_budget_csv(text: str, run: dict, sqz: float) -> list:
    """Check every row; return (f, improvement) pairs near or in the band."""
    rows = [line for line in text.split("\n") if line and not line.startswith("#")]
    _expect(rows and rows[0] == BUDGET_HEADER, "budget.csv header")
    n = run["grid_points"]
    _expect(len(rows) - 1 == n, f"budget.csv has {len(rows) - 1} rows for {n} grid points")
    if run["grid_spacing"] != "log":
        raise ValueError("the grid check here assumes log spacing")
    lo, hi = math.log10(run["f_min_hz"]), math.log10(run["f_max_hz"])
    arm = run["arm_length_eff"]
    band_lo, band_hi = run["band_min_hz"] * (1 - 1e-9), run["band_max_hz"] * (1 + 1e-9)
    band = []
    for i, line in enumerate(rows[1:]):
        parts = line.split(",")
        _expect(len(parts) == 8, f"budget.csv row {i} has {len(parts)} fields")
        try:
            f, off, on, imp, shot, tech, disp_off, disp_on = map(float, parts)
        except ValueError:
            raise CheckError(f"budget.csv row {i}: not a number in {line!r}") from None
        where = f"budget.csv row {i}"
        _near(f"{where} f_hz", f, 10.0 ** (lo + (hi - lo) * i / (n - 1)))
        _near(f"{where} asd_off", off, math.hypot(shot, tech))
        _near(f"{where} asd_on", on, math.hypot(sqz * shot, tech))
        _near(f"{where} improvement_db", imp, 20.0 * math.log10(off / on), abs_=DB_ABS)
        _near(f"{where} disp_off", disp_off, off * arm)
        _near(f"{where} disp_on", disp_on, on * arm)
        if band_lo <= f <= band_hi:
            band.append((f, imp))
    return band


def _check_band_median(band: list, run: dict, reported: float) -> None:
    """The summary's broadband figure is the median of the band rows.

    A grid point within rounding of a band edge may fall on either side
    in the program, so each such point is tried both in and out.
    """
    edges = (run["band_min_hz"], run["band_max_hz"])
    sure = [imp for f, imp in band if all(abs(f - e) > 1e-8 * e for e in edges)]
    edge = [imp for f, imp in band if any(abs(f - e) <= 1e-8 * e for e in edges)]
    _expect(sure or edge, "no budget.csv rows inside the summary band")
    for mask in range(1 << len(edge)):
        chosen = sure + [imp for k, imp in enumerate(edge) if mask >> k & 1]
        if chosen and abs(_median(chosen) - reported) <= DB_ABS:
            return
    raise CheckError(f"broadband_improvement_db {reported!r} is not the band median of budget.csv")


def _median(values: list) -> float:
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2.0


def _check_spectrum_svg(text: str, traces: int) -> None:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise CheckError(f"spectrum.svg is not XML: {exc}") from None
    _expect(root.tag == SVG_NS + "svg", "spectrum.svg root is not <svg>")
    width, height = float(root.get("width")), float(root.get("height"))
    lines = root.findall(SVG_NS + "polyline")
    _expect(len(lines) == traces, f"spectrum.svg holds {len(lines)} traces, expected {traces}")
    _expect(len({pl.get("stroke") for pl in lines}) == traces, "spectrum.svg traces share a colour")
    for k, pl in enumerate(lines):
        points = pl.get("points", "").split()
        _expect(len(points) >= 2, f"spectrum.svg trace {k} has fewer than two points")
        for point in points:
            try:
                x, y = map(float, point.split(","))
            except ValueError:
                raise CheckError(f"spectrum.svg trace {k}: bad point {point!r}") from None
            _expect(0.0 <= x <= width and 0.0 <= y <= height,
                    f"spectrum.svg trace {k}: point {point} is off the canvas")


def check_ledger(rc, stdout: str, files: dict) -> None:
    _expect(rc == 0, f"ledger exited {rc}")
    _files(files, {"ledger.csv"})
    _expect(files["ledger.csv"] == README_LEDGER, "ledger.csv differs from the README.md table")
    _expect(stdout == README_LEDGER, "ledger stdout differs from the README.md table")


def check_preset(rc, stdout: str, files: dict) -> None:
    _expect(rc == 0, f"preset exited {rc}")
    _files(files, set())
    values = parse_config_text(stdout)
    for key, want in PRESET.items():
        _expect(key in values, f"preset does not print {key}")
        _expect(values[key] == want, f"preset {key} = {values[key]!r}, expected {want!r}")


def sweep_variance(axis: str, value: float, run: dict) -> float:
    """Readout variance with one axis of the run replaced by ``value``."""
    if axis == "eta":
        run = {**run, "eta_total": value}
    elif axis == "injected_db":
        run = {**run, "squeeze_db": value, "antisqueeze_db": max(run["antisqueeze_db"], value)}
    elif axis == "sigma":
        run = {**run, "sigma_jitter_rad": value}
    else:
        raise ValueError(f"unknown sweep axis {axis!r}")
    return run_variance(run)


def required_eta(target_db: float, squeeze_db: float) -> float:
    """Efficiency that turns squeeze_db injected into target_db read out."""
    return (1.0 - 10.0 ** (-target_db / 10.0)) / (1.0 - 10.0 ** (-squeeze_db / 10.0))


def check_sweep(expect: dict, rc, stdout: str, files: dict) -> None:
    run, axis, values = expect["run"], expect["axis"], expect["values"]
    solve_db = expect.get("solve_db")
    _expect(rc == 0, f"sweep exited {rc}")
    _files(files, {"sweep.csv", "sweep.json"})
    text = files["sweep.csv"]
    _expect(stdout == text, "sweep stdout differs from sweep.csv")
    lines = text.rstrip("\n").split("\n")
    _expect(lines[:2] == [f"# sweep axis: {axis}", SWEEP_HEADER], "sweep.csv header")
    rows = lines[2:]
    _expect(len(rows) == len(values), f"sweep.csv has {len(rows)} rows for {len(values)} values")
    parsed = []
    for i, (value, line) in enumerate(zip(values, rows)):
        parts = line.split(",")
        _expect(len(parts) == 4 and parts[0] == fmt9(value), f"sweep.csv row {i} is not value {value!r}")
        try:
            _, broadband, shot_limited, rate = map(float, parts)
        except ValueError:
            raise CheckError(f"sweep.csv row {i}: not a number in {line!r}") from None
        var = sweep_variance(axis, value, run)
        _near(f"sweep row {i} shot_limited_improvement_db", shot_limited,
              -10.0 * math.log10(var), abs_=1e-9)
        _near(f"sweep row {i} rate_gain", rate, var ** -1.5)
        # Technical noise dilutes the band median toward 0 dB, never past it.
        _expect(broadband * shot_limited >= 0.0 and abs(broadband) <= abs(shot_limited) + DB_ABS,
                f"sweep row {i}: broadband {broadband!r} vs shot-limited {shot_limited!r}")
        parsed.append([float(parts[0]), broadband, shot_limited, rate])

    payload = json.loads(files["sweep.json"])
    _expect(payload["axis"] == axis, "sweep.json axis")
    json_rows = [
        [r["value"], r["broadband_improvement_db"], r["shot_limited_improvement_db"], r["rate_gain"]]
        for r in payload["rows"]
    ]
    _expect(json_rows == parsed, "sweep.json rows differ from sweep.csv")
    if solve_db is None:
        _expect("required_eta" not in payload, "sweep.json reports an efficiency nobody asked for")
        return
    req = payload["required_eta"]
    _expect(req["target_improvement_db"] == solve_db and req["squeeze_db"] == run["squeeze_db"],
            "sweep.json required_eta inputs")
    _near("required_eta", req["eta"], required_eta(solve_db, run["squeeze_db"]))
    if expect.get("anchors"):
        _expect(f"{req['eta']:.3f}" == "0.832", f"required eta for 6 dB reads {req['eta']!r}, PAPER.md says 0.832")


def oracle_analytic(seed: int) -> list:
    """(name, analytic variance, seed) of each check the oracle suite runs."""
    def lossy(v, eta):
        return readout_variance(eta, v, v, 0.0)

    return [
        ("squeezed_10db_eta_0.62", lossy(0.1, 0.62), seed),
        ("vacuum_eta_0.50", lossy(1.0, 0.5), seed + 1),
        ("squeezed_9db_eta_0.833", lossy(0.126, 0.833), seed + 2),
        ("two_stage_0.9x0.8", lossy(0.1, 0.9 * 0.8), seed + 3),
        ("jitter_sigma_0.05_eta_0.62", readout_variance(0.62, 0.1, 10.0, 0.05), seed + 4),
    ]


def check_oracle(expect: dict, rc, stdout: str, files: dict) -> None:
    _files(files, {"oracle.json"})
    _expect(stdout == files["oracle.json"], "oracle stdout differs from oracle.json")
    payload = json.loads(files["oracle.json"])
    _expect(payload["z_max"] == 3.0, f"oracle z_max is {payload['z_max']!r}")
    checks = payload["checks"]
    want = oracle_analytic(expect["seed"])
    _expect([c["name"] for c in checks] == [w[0] for w in want], "oracle check names")
    for c, (name, analytic, seed) in zip(checks, want):
        _near(f"{name} analytic_variance", c["analytic_variance"], analytic)
        _expect(c["n_samples"] == expect["samples"] and c["seed"] == seed, f"{name} samples or seed")
        est, se = c["estimated_variance"], c["standard_error"]
        _expect(est > 0.0 and se > 0.0, f"{name}: non-positive estimate or standard error")
        _near(f"{name} z", c["z"], (est - c["analytic_variance"]) / se, rel=1e-6, abs_=5e-5)
        _expect(c["passed"] == (abs(c["z"]) <= payload["z_max"]), f"{name}: passed disagrees with z")
    all_passed = all(c["passed"] for c in checks)
    _expect(payload["all_passed"] == all_passed, "oracle all_passed disagrees with its checks")
    # Exit 3 is the suite's verdict, not a failed call.
    _expect(rc == (0 if all_passed else 3), f"oracle exited {rc} with all_passed = {all_passed}")
