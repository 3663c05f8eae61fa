"""Config parsing: defaults, overrides, strict rejection, round trips."""

import math

import pytest

from sqzbudget import (
    ConfigError,
    DomainError,
    IfoConfig,
    LossElement,
    RunConfig,
    build_report,
    default_config_text,
    default_run_config,
    load_config,
    parse_config,
)
from sqzbudget.cli import EXIT_CONFIG, main


def test_empty_text_gives_the_preset():
    assert parse_config("") == default_run_config()


def test_comments_and_blank_lines_ignored():
    text = "\n# a comment\n   \nsqueeze_db = 9.0  # inline note\n"
    cfg = parse_config(text)
    assert cfg.level.squeeze_db == 9.0
    assert cfg.level.antisqueeze_db == 15.0  # untouched default


def test_round_trip_defaults():
    assert parse_config(default_config_text()) == default_run_config()


def test_round_trip_overridden():
    text = "\n".join(
        [
            "eta_total = none",
            "squeeze_db = 9.0",
            "antisqueeze_db = 16.5",
            "sigma_jitter_rad = 0.02",
            "loss_stages = a:0.95,b:0.72",
            "grid_points = 64",
            "grid_spacing = linear",
            "f_min_hz = 100.0",
            "f_max_hz = 6000.0",
            "band_min_hz = 2000.0",
            "band_max_hz = 4000.0",
        ]
    )
    cfg = parse_config(text)
    assert cfg == parse_config(cfg.to_text())
    assert cfg.eta_total is None
    assert cfg.loss_stages == (LossElement("a", 0.95), LossElement("b", 0.72))


def test_eta_override_reaches_the_budget():
    report = build_report(parse_config("eta_total = 0.62"))
    assert report.shot_limited_improvement_db == pytest.approx(3.55, abs=0.005)


def test_eta_none_falls_back_to_stage_product():
    cfg = parse_config("eta_total = none")
    assert cfg.effective_chain() == cfg.loss_stages
    assert build_report(cfg).eta_effective == pytest.approx(0.648, rel=1e-12)


class TestRejection:
    def test_unknown_key_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"line 2.*sr_pole_khz"):
            parse_config("squeeze_db = 10\nsr_pole_khz = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate key 'squeeze_db'"):
            parse_config("squeeze_db = 10\nsqueeze_db = 9\n")

    def test_eta_out_of_bound_names_field_and_bound(self):
        with pytest.raises(ConfigError, match=r"eta_total.*\(0, 1\]"):
            parse_config("eta_total = 1.3")

    def test_malformed_number_has_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("power_bs = lots")

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just words")

    def test_missing_value(self):
        with pytest.raises(ConfigError, match="squeeze_db has no value"):
            parse_config("squeeze_db =")

    def test_grid_points_bound(self):
        with pytest.raises(ConfigError, match=r"grid_points.*>= 2"):
            parse_config("grid_points = 1")

    def test_grid_spacing_enum(self):
        with pytest.raises(ConfigError, match="grid_spacing"):
            parse_config("grid_spacing = cubic")

    def test_antisqueeze_below_squeeze(self):
        with pytest.raises(ConfigError, match="antisqueeze_db"):
            parse_config("squeeze_db = 12\nantisqueeze_db = 11\n")

    def test_inverted_grid_span(self):
        with pytest.raises(ConfigError, match="f_max_hz"):
            parse_config("f_min_hz = 5000\nf_max_hz = 500\n")

    def test_band_outside_grid(self):
        with pytest.raises(ConfigError, match="band"):
            parse_config("f_min_hz = 10\nf_max_hz = 100\n")

    def test_anchor_outside_grid(self):
        with pytest.raises(ConfigError, match="anchor_freq_hz"):
            parse_config("f_max_hz = 2000\nband_min_hz = 100\nband_max_hz = 1000\n")

    def test_malformed_stage_entry(self):
        with pytest.raises(ConfigError, match="loss_stages"):
            parse_config("loss_stages = srm-0.9")
        with pytest.raises(ConfigError, match=r"loss_stages\[srm\]"):
            parse_config("loss_stages = srm:1.4")

    def test_anchor_below_technical_floor(self):
        with pytest.raises(ConfigError, match="anchor_asd"):
            parse_config("anchor_asd = 4.0e-23")

    def test_negative_sigma(self):
        with pytest.raises(ConfigError, match="sigma_jitter_rad"):
            parse_config("sigma_jitter_rad = -0.1")

    # (config text, key named, bound, offending value, line that set it):
    # one case per key bound, then one per cross-field rule.
    BOUND_CASES = [
        ("arm_length_eff = 0", "arm_length_eff", "> 0 and finite", "0.0", 1),
        ("power_bs = -1", "power_bs", "> 0 and finite", "-1.0", 1),
        ("wavelength = inf", "wavelength", "> 0 and finite", "inf", 1),
        ("sr_pole_hz = 0", "sr_pole_hz", "> 0 and finite", "0.0", 1),
        ("anchor_freq_hz = -3", "anchor_freq_hz", "> 0 and finite", "-3.0", 1),
        ("anchor_asd = 0", "anchor_asd", "> 0 and finite", "0.0", 1),
        ("tech_displacement_asd = -1e-20", "tech_displacement_asd", ">= 0", "-1e-20", 1),
        ("tech_corner_hz = nan", "tech_corner_hz", "> 0 and finite", "nan", 1),
        ("squeeze_db = -1", "squeeze_db", ">= 0 and finite", "-1.0", 1),
        ("antisqueeze_db = nan", "antisqueeze_db", "finite", "nan", 1),
        ("injection_angle_rad = inf", "injection_angle_rad", "finite", "inf", 1),
        ("sigma_jitter_rad = -0.1", "sigma_jitter_rad", ">= 0 and finite", "-0.1", 1),
        ("loss_stages = a:0.9,srm:1.4", "loss_stages[srm]", "(0, 1]", "1.4", 1),
        ("eta_total = 1.3", "eta_total", "(0, 1]", "1.3", 1),
        ("eta_total = 0", "eta_total", "(0, 1]", "0.0", 1),
        ("f_min_hz = 0", "f_min_hz", "> 0 and finite", "0.0", 1),
        ("f_max_hz = inf", "f_max_hz", "finite", "inf", 1),
        ("grid_points = 1", "grid_points", ">= 2", "1", 1),
        ("grid_points = 1000001", "grid_points", "<= 1000000", "1000001", 1),
        ("grid_spacing = cubic", "grid_spacing", "one of ('log', 'linear')", "'cubic'", 1),
        ("band_min_hz = -1", "band_min_hz", "> 0 and finite", "-1.0", 1),
        ("band_max_hz = inf", "band_max_hz", "finite", "inf", 1),
        # cross-field rules
        ("squeeze_db = 12\nantisqueeze_db = 11", "antisqueeze_db", "squeeze_db (12.0)", "11.0", 2),
        ("antisqueeze_db = 11\nsqueeze_db = 12", "antisqueeze_db", "squeeze_db (12.0)", "11.0", 1),
        ("squeeze_db = 16", "antisqueeze_db", ">= squeeze_db (16.0)", "15.0", 1),
        ("f_min_hz = 5000\nf_max_hz = 500", "f_max_hz", "> f_min_hz (5000.0)", "500.0", 2),
        ("band_max_hz = 500", "band_max_hz", "> band_min_hz (1000.0)", "500.0", 1),
        ("f_max_hz = 100", "band_min_hz", "<= f_max_hz (100.0)", "1000.0", 1),
        ("band_min_hz = 1\nband_max_hz = 5", "band_max_hz", ">= f_min_hz (10.0)", "5.0", 2),
        ("f_max_hz = 8000\nanchor_freq_hz = 9000", "anchor_freq_hz", "[10.0, 8000.0]", "9000.0", 2),
        ("anchor_asd = 4.0e-23", "anchor_asd", "exceed the technical-noise", "4e-23", 1),
        ("# noisier\ntech_displacement_asd = 1e-16", "anchor_asd", "noise envelope", "1e-21", 2),
        # finite values whose derived quantities leave the float range
        ("sr_pole_hz = 1e-200", "anchor_freq_hz / sr_pole_hz", "square to a finite", "3e+203", 1),
        ("anchor_freq_hz = 1e300", "sr_pole_hz", "square to a finite", "2.5000000000000002e+297", 1),
        ("tech_displacement_asd = 1e300", "arm_length_eff at anchor_freq_hz", "square to a finite",
         "4.537037037037037e+295", 1),
        ("arm_length_eff = 1e-300", "arm_length_eff at anchor_freq_hz", "square to a finite",
         "5.444444444444445e+280", 1),
        ("anchor_asd = 1e300", "anchor_asd", "square to a finite", "1e+300", 1),
        ("antisqueeze_db = 301", "antisqueeze_db", "<= 300.0", "301.0", 1),
        ("arm_length_eff = 1e-300\npower_bs = 1e-300", "arm_length_eff * sqrt(power_bs)",
         "> 0 and finite", "0.0", 1),
        ("tech_displacement_asd = 0\narm_length_eff = 1e-300\npower_bs = 1e-10", "shot_scale",
         "calibrated from anchor_asd, arm_length_eff and power_bs", "0.0", 2),
    ]

    @pytest.mark.parametrize(
        "text, key, bound, value, line", BOUND_CASES, ids=[c[0] for c in BOUND_CASES]
    )
    def test_bound_message_names_key_bound_value_and_line(
        self, text, key, bound, value, line, tmp_path, capsys
    ):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        message = str(info.value)
        assert message.startswith(f"line {line}: ")
        assert f"{key}: efficiency = {value}" in message or f"{key} = {value}" in message
        assert bound in message
        path = tmp_path / "bad.cfg"
        path.write_text(text + "\n", encoding="utf-8")
        assert main(["budget", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_rules_are_checked_on_the_whole_file_not_per_line(self):
        # 16 dB alone breaks antisqueeze_db >= squeeze_db against the
        # default 15 dB; the next line repairs it.
        cfg = parse_config("squeeze_db = 16\nantisqueeze_db = 20\n")
        assert (cfg.level.squeeze_db, cfg.level.antisqueeze_db) == (16.0, 20.0)


# field -> (overrides, offending value): each violates one RunConfig rule.
BAD_RUN_FIELDS = {
    "grid_spacing": ({"grid_spacing": "cubic"}, "cubic"),
    "sigma_jitter_rad": ({"sigma_jitter_rad": -0.1}, -0.1),
    "injection_angle_rad": ({"injection_angle_rad": math.inf}, math.inf),
    "eta_total": ({"eta_total": 1.3}, 1.3),
    "loss_stages": ({"loss_stages": ()}, ()),
    "f_min_hz": ({"f_min_hz": 0.0}, 0.0),
    "f_max_hz": ({"f_max_hz": 5.0}, 5.0),
    "grid_points": ({"grid_points": 1}, 1),
    "band_min_hz": ({"band_min_hz": 20000.0, "band_max_hz": 30000.0}, 20000.0),
    "band_max_hz": ({"band_min_hz": 1.0, "band_max_hz": 5.0}, 5.0),
    "anchor_freq_hz": ({"ifo": IfoConfig(anchor_freq_hz=12000.0)}, 12000.0),
}


@pytest.mark.parametrize("field", sorted(BAD_RUN_FIELDS))
def test_run_config_rejects_bad_field_at_construction(field):
    overrides, value = BAD_RUN_FIELDS[field]
    with pytest.raises(DomainError) as info:
        RunConfig(**overrides)
    assert info.value.keys[0] == field
    assert str(info.value).startswith(f"{field} = {value!r} violates bound")


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("squeeze_db = 8\nantisqueeze_db = 12\n", encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg.level.squeeze_db == 8.0


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "nope.cfg"))


def test_load_config_error_names_the_file(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("eta_total = 1.3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="bad.cfg"):
        load_config(str(path))
