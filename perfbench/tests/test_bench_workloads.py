"""The workload generator and the metric names of BENCHMARK.json."""

import json

import pytest

import run
import spans
import workloads
from sqzbudget.cli import build_parser
from sqzbudget.config import parse_config

NAMES = sorted(workloads.GENERATORS)
SEEDS = (0, 1, 2**31 - 1)


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_inputs(name):
    assert workloads.generate(name, 5, "/w") == workloads.generate(name, 5, "/w")


@pytest.mark.parametrize("name", [n for n in NAMES if n != "cli_preset"])
def test_seed_changes_inputs(name):
    a = workloads.generate(name, 5, "/w")
    b = workloads.generate(name, 6, "/w")
    assert a.files != b.files or [op.argv for op in a.ops] != [op.argv for op in b.ops]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", NAMES)
def test_inputs_inside_accepted_domains(name, seed):
    wl = workloads.generate(name, seed, "/w")
    for text in wl.files.values():
        parse_config(text)  # raises ConfigError outside a domain
    parser = build_parser()
    keys = {}
    for op in wl.ops:
        args = parser.parse_args(list(op.argv))
        assert keys.setdefault(op.key, op.argv) == op.argv, "one key, one input"
        if op.command == "sweep":
            values = [float(v) for v in args.values.split(",")]
            assert values == op.expect["values"]
            if args.axis == "eta":
                assert all(0.0 < v <= 1.0 for v in values)
            else:
                assert all(v >= 0.0 for v in values)
            if args.solve_improvement_db is not None:
                assert 0.0 < args.solve_improvement_db < op.expect["run"]["squeeze_db"]
        if op.command == "oracle":
            assert args.samples >= 10_000
        if op.command == "budget":
            run_cfg = parse_config(wl.files[args.config])
            want = op.expect["run"]
            assert run_cfg.grid_points == want["grid_points"]
            assert run_cfg.eta_total == want["eta_total"]
            assert run_cfg.level.squeeze_db == want["squeeze_db"] <= want["antisqueeze_db"]


def test_sweep_solve_visits_every_axis():
    wl = workloads.generate("sweep_scan", 3, "/w")
    solved = {op.expect["axis"] for op in wl.ops if op.expect["solve_db"] is not None}
    assert solved == set(workloads.SWEEP_AXES)


def spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_what_run_measures():
    s = spec()
    assert [w["name"] for w in s["workloads"]] == list(workloads.GENERATORS)
    assert {m["name"] for m in s["per_layer"]} <= run.known_layer_metrics()
    assert {m["name"] for m in s["end_to_end"]} == {
        "op_p50_ms", "op_tail_ms", "work_per_s", "setup_s", "peak_rss_mb", "ok_ratio"}
    for layer in spans.LAYERS:
        assert f"share.{layer}" in {m["name"] for m in s["per_layer"]}


def test_tail_keeps_ten_samples_above():
    values = list(range(30))
    value, pct, above = run.tail(values)
    assert (value, above) == (19, 10)
    assert pct == pytest.approx(100 * 20 / 30)
