"""Run configuration: flat key = value text format and validation.

The format is deliberately small: one ``key = value`` pair per line,
``#`` starts a comment (whole-line or trailing), blank lines ignored.
Every key has a default, so the empty document is the GEO 600 preset.
Unknown and duplicate keys are rejected, not ignored; error messages
carry the line number, the key, and the violated bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from numbers import Integral
from typing import Callable

from .errors import ConfigError, DomainError, check_efficiency, require
from .ifo import FrequencyGrid, IfoConfig, shot_noise_asd
from .losses import LossElement
from .quadrature import SqueezeLevel

_GRID_SPACINGS = ("log", "linear")
# Largest frequency grid; rejected before any array is allocated.
_MAX_GRID_POINTS = 1_000_000


@dataclass(frozen=True)
class RunConfig:
    """One complete budget run: instrument, source, losses, grid, band.

    Checks its own fields and their cross-field rules on construction;
    ``ifo``, ``level`` and each loss stage check theirs.
    """

    ifo: IfoConfig = field(default_factory=IfoConfig)
    level: SqueezeLevel = SqueezeLevel(10.0, 15.0)
    injection_angle_rad: float = 0.0
    sigma_jitter_rad: float = 0.0
    loss_stages: tuple[LossElement, ...] = (
        LossElement("sr_cavity", 0.90),
        LossElement("output_mode_cleaner", 0.90),
        LossElement("detection", 0.80),
    )
    eta_total: float | None = 0.62
    f_min_hz: float = 10.0
    f_max_hz: float = 10000.0
    grid_points: int = 1000
    grid_spacing: str = "log"
    band_min_hz: float = 1000.0
    band_max_hz: float = 5000.0

    def __post_init__(self) -> None:
        angle, sigma, eta = self.injection_angle_rad, self.sigma_jitter_rad, self.eta_total
        require(math.isfinite(angle), "injection_angle_rad", angle, "must be finite")
        require(0.0 <= sigma < math.inf, "sigma_jitter_rad", sigma, "must be >= 0 and finite")
        stages = self.loss_stages
        require(len(stages) > 0, "loss_stages", stages, "must name at least one stage")
        if eta is not None:
            check_efficiency("eta_total", eta)

        lo, hi = self.f_min_hz, self.f_max_hz
        require(0.0 < lo < math.inf, "f_min_hz", lo, "must be > 0 and finite")
        require(lo < hi < math.inf, "f_max_hz", hi, f"must be finite and > f_min_hz ({lo!r})",
                "f_min_hz")
        points = self.grid_points
        ok = isinstance(points, Integral) and points >= 2
        require(ok, "grid_points", points, "must be an integer >= 2")
        require(points <= _MAX_GRID_POINTS, "grid_points", points, f"must be <= {_MAX_GRID_POINTS}")
        spacing = self.grid_spacing
        rule = f"must be one of {_GRID_SPACINGS}"
        require(spacing in _GRID_SPACINGS, "grid_spacing", spacing, rule)
        # The shot ASD rises with f, so it is largest at f_max_hz. On the
        # float path an overflow gives inf, not a warning.
        shot = shot_noise_asd(self.ifo, hi)
        pole = self.ifo.sr_pole_hz
        require(shot < math.inf, "f_max_hz", hi,
                f"must keep the unsqueezed shot ASD finite (sr_pole_hz = {pole!r})", "sr_pole_hz")

        # The band must be ordered and overlap the grid; the anchor must lie on it.
        b_lo, b_hi = self.band_min_hz, self.band_max_hz
        require(0.0 < b_lo < math.inf, "band_min_hz", b_lo, "must be > 0 and finite")
        require(b_lo < b_hi < math.inf, "band_max_hz", b_hi,
                f"must be finite and > band_min_hz ({b_lo!r})", "band_min_hz")
        require(b_lo <= hi, "band_min_hz", b_lo, f"must be <= f_max_hz ({hi!r})", "f_max_hz")
        require(b_hi >= lo, "band_max_hz", b_hi, f"must be >= f_min_hz ({lo!r})", "f_min_hz")
        anchor = self.ifo.anchor_freq_hz
        require(lo <= anchor <= hi, "anchor_freq_hz", anchor,
                f"must lie inside the grid [{lo!r}, {hi!r}]", "f_min_hz", "f_max_hz")

    def grid(self, floats: bool = False) -> FrequencyGrid:
        """The analysis grid, memoised: runs with equal grid fields share one object.

        Its values are a read-only float array, or with ``floats`` the
        same floats as a tuple, for a run too small to pay for numpy.
        """
        return _grid(self.grid_spacing, self.f_min_hz, self.f_max_hz, self.grid_points, floats)

    def effective_chain(self) -> tuple[LossElement, ...]:
        """Loss chain the budget actually uses.

        A measured overall efficiency, when present, overrides the
        product of the named stages (stage values are nominal and their
        product need not match the measured total).
        """
        if self.eta_total is not None:
            return (LossElement("total", self.eta_total),)
        return self.loss_stages

    def to_text(self) -> str:
        """Serialize to the flat config format; parses back equal."""
        lines = []
        section = None
        for key, key_section, owner, _ in _KEYS:
            if key_section != section:
                if section is not None:
                    lines.append("")
                lines.append(_SECTIONS[key_section])
                section = key_section
            value = getattr(_part(self, owner), key)
            lines.append(f"{key} = {_format(value)}")
        return "\n".join(lines) + "\n"


# One entry: a sweep's runs all ask for the same grid. FrequencyGrid is
# frozen and its values read-only, so sharing it is safe. Both kinds hold
# the same floats: np.geomspace's and np.linspace's steps, with C's log10
# and pow (np.float_power calls it; np.power's AVX-512 loop differs from
# it in the last bit of ~5% of values). An array and a float run must let
# the same grid points into the band; the text written is the contract.
@lru_cache(maxsize=1)
def _grid(spacing: str, f_min: float, f_max: float, points: int, floats: bool) -> FrequencyGrid:
    log = spacing == "log"
    start, stop = (math.log10(f_min), math.log10(f_max)) if log else (f_min, f_max)
    step = (stop - start) / (points - 1)
    try:
        if floats:
            interior = (i * step + start for i in range(1, points - 1))
            values = map(partial(pow, 10.0), interior) if log else interior
            return FrequencyGrid((f_min, *values, f_max))
        import numpy as np

        interior = np.arange(1, points - 1) * step + start
        with np.errstate(over="ignore"):  # an infinite value is rejected as not finite
            interior = np.float_power(10.0, interior) if log else interior
        return FrequencyGrid(np.concatenate(([f_min], interior, [f_max])))
    except (DomainError, OverflowError) as exc:
        # A span narrower than its point count repeats a float.
        reason = "frequency grid must be finite" if isinstance(exc, OverflowError) else exc
        rule = f"must fit between f_min_hz ({f_min!r}) and f_max_hz ({f_max!r}): {reason}"
        message = f"grid_points = {points!r} violates bound: {rule}"
        raise DomainError(message, "grid_points", "f_min_hz", "f_max_hz") from None


def default_run_config() -> RunConfig:
    """The GEO 600 preset: every key at its default."""
    return RunConfig()


def default_config_text() -> str:
    """The GEO 600 preset in config-file form (what ``preset`` prints)."""
    return default_run_config().to_text()


def _cast_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key} = {raw!r} is not a number") from None


def _cast_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key} = {raw!r} is not an integer") from None


def _cast_str(key: str, raw: str) -> str:
    return raw


def _cast_eta(key: str, raw: str) -> float | None:
    if raw.lower() == "none":
        return None
    return _cast_float(key, raw)


def _cast_stages(key: str, raw: str) -> tuple[LossElement, ...]:
    stages = []
    for part in raw.split(","):
        name, sep, eff_raw = (s.strip() for s in part.partition(":"))
        if not sep or not name:
            raise ConfigError(
                f"{key}: stage {part.strip()!r} in {raw!r} must have the form name:efficiency"
            )
        try:
            stages.append(LossElement(name, _cast_float(f"{key}[{name}]", eff_raw)))
        except DomainError as exc:
            raise ConfigError(f"{key}[{name}]: {exc}") from None
    return tuple(stages)


def _format(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return ",".join(f"{e.name}:{e.efficiency!r}" for e in value)
    return repr(value)


_SECTIONS = {
    "instrument": "# instrument",
    "source": "# squeezed source",
    "losses": "# losses: named stages, and the measured total that overrides\n"
    "# their product when not 'none'",
    "grid": "# analysis grid and summary band",
}

# Every key exactly once: (key, section, owning dataclass, cast). The
# order is the order ``to_text`` writes. Casts only turn text into the
# field's type; the owning dataclass checks the value.
_KEYS: tuple[tuple[str, str, type, Callable[[str, str], object]], ...] = (
    ("arm_length_eff", "instrument", IfoConfig, _cast_float),
    ("power_bs", "instrument", IfoConfig, _cast_float),
    ("wavelength", "instrument", IfoConfig, _cast_float),
    ("sr_pole_hz", "instrument", IfoConfig, _cast_float),
    ("anchor_freq_hz", "instrument", IfoConfig, _cast_float),
    ("anchor_asd", "instrument", IfoConfig, _cast_float),
    ("tech_displacement_asd", "instrument", IfoConfig, _cast_float),
    ("tech_corner_hz", "instrument", IfoConfig, _cast_float),
    ("squeeze_db", "source", SqueezeLevel, _cast_float),
    ("antisqueeze_db", "source", SqueezeLevel, _cast_float),
    ("injection_angle_rad", "source", RunConfig, _cast_float),
    ("sigma_jitter_rad", "source", RunConfig, _cast_float),
    ("loss_stages", "losses", RunConfig, _cast_stages),
    ("eta_total", "losses", RunConfig, _cast_eta),
    ("f_min_hz", "grid", RunConfig, _cast_float),
    ("f_max_hz", "grid", RunConfig, _cast_float),
    ("grid_points", "grid", RunConfig, _cast_int),
    ("grid_spacing", "grid", RunConfig, _cast_str),
    ("band_min_hz", "grid", RunConfig, _cast_float),
    ("band_max_hz", "grid", RunConfig, _cast_float),
)
_CASTS = {key: cast for key, _, _, cast in _KEYS}


def _part(run: RunConfig, owner: type):
    """The object inside ``run`` whose fields ``owner`` declares."""
    return {IfoConfig: run.ifo, SqueezeLevel: run.level}.get(owner, run)


def _strip_comment(line: str) -> str:
    return line.split("#", 1)[0].strip()


def parse_config(text: str) -> RunConfig:
    """Parse config text into a validated RunConfig.

    Unset keys take their GEO 600 defaults. Raises ConfigError on
    unknown keys, duplicates, malformed lines, out-of-bound values, and
    cross-field inconsistencies; a bound error names the line that set
    the offending key.
    """
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw_line)
        if not line:
            continue
        key, sep, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if not sep or not key:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        if key not in _CASTS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        if not raw_value:
            raise ConfigError(f"line {lineno}: {key} has no value")
        try:
            values[key] = _CASTS[key](key, raw_value)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
        lines[key] = lineno
    try:
        return _build(values)
    except DomainError as exc:
        lineno = next((lines[k] for k in exc.keys if k in lines), None)
        message = str(exc) if lineno is None else f"line {lineno}: {exc}"
        raise ConfigError(message) from None


def load_config(path: str) -> RunConfig:
    """Read and parse a config file; errors carry the file name."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    try:
        return parse_config(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _build(values: dict[str, object]) -> RunConfig:
    """Construct each owner from the parsed values, defaults elsewhere.

    IfoConfig is built afresh rather than replaced, so its shot-noise
    calibration follows the parsed anchor.
    """
    defaults = default_run_config()
    fields: dict[type, dict[str, object]] = {IfoConfig: {}, SqueezeLevel: {}, RunConfig: {}}
    for key, _, owner, _ in _KEYS:
        fields[owner][key] = values.get(key, getattr(_part(defaults, owner), key))
    return RunConfig(
        ifo=IfoConfig(**fields[IfoConfig]),
        level=SqueezeLevel(**fields[SqueezeLevel]),
        **fields[RunConfig],
    )
