"""Workloads of the sqzbudget benchmark.

A workload turns a seed into what the program is given: config files and a
cycle of CLI argument lists. The same seed and work directory give the same
inputs. Ops that share a key have identical inputs, so their outputs must
be byte-identical.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

import checks

SWEEP_AXES = ("eta", "injected_db", "sigma")


@dataclass(frozen=True)
class Op:
    """One CLI call: ``argv`` without the program name."""

    key: str
    argv: tuple
    out_dir: str | None
    units: float
    expect: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    # True: every op is a fresh interpreter; False: cli.main in one process.
    fresh_process: bool
    files: dict
    ops: tuple

    def op(self, i: int) -> Op:
        """The i-th op of the closed loop; op 0 is the set-up op."""
        return self.ops[i % len(self.ops)]


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _values(values) -> str:
    return ",".join(repr(v) for v in values)


def cli_preset(rng: random.Random, work: str) -> Workload:
    cfg = os.path.join(work, "preset.cfg")
    out = os.path.join(work, "out")
    run = dict(checks.PRESET)
    etas = [_draw(rng, 0.3, 1.0) for _ in range(10)]
    oracle_seed = rng.randrange(2**31)
    ops = (
        Op("budget", ("budget", "--config", cfg, "--out", f"{out}/budget"), f"{out}/budget", 1,
           {"run": run, "anchors": True}),
        Op("ledger", ("ledger", "--config", cfg, "--out", f"{out}/ledger"), f"{out}/ledger", 1),
        Op("sweep", ("sweep", "--config", cfg, "--axis", "eta", "--values", _values(etas),
                     "--solve-improvement-db", "6", "--out", f"{out}/sweep"), f"{out}/sweep", 1,
           {"run": run, "axis": "eta", "values": etas, "solve_db": 6.0, "anchors": True}),
        Op("preset", ("preset",), None, 1),
        Op("oracle", ("oracle", "--samples", "10000", "--seed", str(oracle_seed),
                      "--out", f"{out}/oracle"), f"{out}/oracle", 1,
           {"seed": oracle_seed, "samples": 10000}),
    )
    return Workload("cli_preset", True, {cfg: checks.config_text()}, ops)


DENSE_POINTS = 100_000
DENSE_CONFIGS = 3


def dense_grid(rng: random.Random, work: str) -> Workload:
    files, ops = {}, []
    for k in range(DENSE_CONFIGS):
        overrides = {
            "grid_points": DENSE_POINTS,
            "eta_total": _draw(rng, 0.3, 0.99),
            # At most the preset's 15 dB antisqueezing, as the config requires.
            "squeeze_db": _draw(rng, 3.0, 14.0),
        }
        cfg = os.path.join(work, f"dense{k}.cfg")
        out = os.path.join(work, "out", f"dense{k}")
        files[cfg] = checks.config_text(**overrides)
        ops.append(Op(f"dense{k}", ("budget", "--config", cfg, "--out", out, "--format", "all"),
                      out, DENSE_POINTS, {"run": {**checks.PRESET, **overrides}}))
    return Workload("dense_grid", False, files, tuple(ops))


SWEEP_VALUES = 1000
# Domains the sweep accepts, kept inside the config's own bounds.
SWEEP_RANGES = {"eta": (0.05, 1.0), "injected_db": (0.0, 30.0), "sigma": (0.0, 0.5)}


def sweep_scan(rng: random.Random, work: str) -> Workload:
    cfg = os.path.join(work, "preset.cfg")
    run = dict(checks.PRESET)
    values = {axis: [_draw(rng, *SWEEP_RANGES[axis]) for _ in range(SWEEP_VALUES)]
              for axis in SWEEP_AXES}
    solve_db = round(rng.uniform(1.0, 9.5), 3)
    ops = []
    # Nine ops: the axis rotates and every third op also solves for the
    # efficiency, so the solve lands on each axis in turn.
    for r in range(3):
        for j in range(3):
            axis = SWEEP_AXES[(j + r) % 3]
            solve = j == 2
            key = axis + ("_solve" if solve else "")
            out = os.path.join(work, "out", key)
            argv = ["sweep", "--config", cfg, "--axis", axis, "--values", _values(values[axis]),
                    "--out", out]
            if solve:
                argv[-2:-2] = ["--solve-improvement-db", repr(solve_db)]
            ops.append(Op(key, tuple(argv), out, SWEEP_VALUES,
                          {"run": run, "axis": axis, "values": values[axis],
                           "solve_db": solve_db if solve else None}))
    return Workload("sweep_scan", False, {cfg: checks.config_text()}, tuple(ops))


ORACLE_SAMPLES = 1_000_000
ORACLE_CHECKS = 5
# Odd, so that a traced run's alternate ops see every seed.
ORACLE_SEEDS = 3


def oracle_gate(rng: random.Random, work: str) -> Workload:
    ops = []
    for k in range(ORACLE_SEEDS):
        seed = rng.randrange(2**31)
        out = os.path.join(work, "out", f"oracle{k}")
        ops.append(Op(f"oracle{k}", ("oracle", "--samples", str(ORACLE_SAMPLES), "--seed", str(seed),
                                     "--out", out),
                      out, ORACLE_SAMPLES * ORACLE_CHECKS, {"seed": seed, "samples": ORACLE_SAMPLES}))
    return Workload("oracle_gate", False, {}, tuple(ops))


GENERATORS = {
    "cli_preset": cli_preset,
    "dense_grid": dense_grid,
    "sweep_scan": sweep_scan,
    "oracle_gate": oracle_gate,
}


def generate(name: str, seed: int, work: str) -> Workload:
    """Inputs of workload ``name`` for ``seed``, with paths under ``work``."""
    return GENERATORS[name](random.Random(f"{name}:{seed}"), work)
