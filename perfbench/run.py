#!/usr/bin/env python3
"""sqzbudget benchmark: one workload, one client in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Imports the package from the src directory of the checkout this file sits
in. The workload's inputs are generated from the seed; every op's exit
code, standard output and files are checked (see checks.py), and ops with
identical inputs must give byte-identical outputs. Set-up is timed in
fresh interpreters, then ops run back to back for S seconds (and at least
MIN_OPS ops).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics named in
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
A traced run alternates untraced and traced ops, so the difference of
their medians is the tracing overhead. Notes go to standard error. Exits 2
without a result when the checkout holds no package.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_RUNS = 3
# The tail is the highest percentile with TAIL_BEYOND samples above it.
TAIL_BEYOND = 10
MIN_OPS = TAIL_BEYOND + 1
CHILD_TIMEOUT_S = 60.0

# Per-layer metrics run.py adds to the span totals of spans.py.
RUN_LAYER_METRICS = (
    "startup.import_numpy_ms",
    "startup.import_sqzbudget_ms",
    "trace.overhead_ms",
    "trace.traced_p50_ms",
    "trace.untraced_p50_ms",
    "trace.spans_per_op",
    "trace.traced_ops",
)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def run_child(cmd: list, env: dict, stdout_path: Path) -> tuple:
    """Run ``cmd`` to completion: (exit code, stdout, seconds, peak RSS in KiB)."""
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=subprocess.DEVNULL)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        reaped = False
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
        finally:
            watchdog.cancel()
            if not reaped:
                proc.kill()
                proc.wait()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout_path.read_text(encoding="utf-8", errors="replace"), seconds, usage.ru_maxrss


def read_outputs(out_dir) -> dict:
    if out_dir is None or not os.path.isdir(out_dir):
        return {}
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
            files[name] = fh.read()
    return files


def clear_outputs(out_dir) -> None:
    if out_dir is not None and os.path.isdir(out_dir):
        for name in os.listdir(out_dir):
            os.remove(os.path.join(out_dir, name))


class Verifier:
    """Checks each op's outputs and counts attempted and failed ops."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._digests: dict = {}

    def verify(self, op, rc, stdout: str) -> None:
        self.attempted += 1
        try:
            files = read_outputs(op.out_dir)
            digest = hashlib.sha256(repr(rc).encode())
            for part in [stdout, *(x for item in files.items() for x in item)]:
                digest.update(part.encode())
                digest.update(b"\0")
            seen = self._digests.get(op.key)
            if seen is None:
                checks.check_op(op.command, op.expect, rc, stdout, files)
                self._digests[op.key] = digest.digest()
            elif seen != digest.digest():
                raise checks.CheckError("outputs differ from an earlier call with the same inputs")
        except Exception as exc:  # any fault in an output fails the op, not the run
            self.failed += 1
            if self.failed <= 5:
                detail = str(exc) if isinstance(exc, checks.CheckError) else traceback.format_exc()
                log(f"op {op.key} failed: {detail}")


class InProcess:
    """Calls ``sqzbudget.cli.main`` in this interpreter."""

    def __init__(self, trace: bool) -> None:
        sys.path.insert(0, str(SRC))
        from sqzbudget import cli

        self.main = cli.main
        self.tracer = spans.Tracer() if trace else None

    def run(self, op, traced: bool = False) -> tuple:
        """(exit code or None, stdout, seconds, span totals or None)."""
        tracer = self.tracer if traced else None
        gc.collect()
        if tracer is not None:
            tracer.install()
        out, err, rc, error = io.StringIO(), io.StringIO(), None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    rc = self.main(list(op.argv))
                else:
                    rc = tracer.call("cli.main", "cli", self.main, list(op.argv))
            except Exception:  # reported as a failed op by the checker
                error = traceback.format_exc()
            seconds = time.perf_counter() - t0
        totals = None
        if tracer is not None:
            tracer.uninstall()
            totals = tracer.collect()
        if error:
            log(error)
        return rc, out.getvalue(), seconds, totals


class FreshProcess:
    """Starts a new interpreter per op, as a user of the CLI does."""

    def __init__(self, env: dict, work: Path) -> None:
        self.env = env
        self.stdout_path = work / "stdout.txt"
        self.report_path = work / "probe.json"
        self.imports: list = []

    def probe(self, op, traced: bool = False) -> tuple:
        """Run ``op`` through probe.py: (rc, stdout, seconds, peak RSS KiB, report or None)."""
        self.report_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "probe.py"), str(self.report_path)]
        cmd += ["--trace"] if traced else []
        rc, stdout, seconds, rss = run_child([*cmd, "--", *op.argv], self.env, self.stdout_path)
        report = None
        if self.report_path.exists():
            report = json.loads(self.report_path.read_text(encoding="utf-8"))
            self.imports.append(report)
        return rc, stdout, seconds, rss, report

    def run(self, op, traced: bool = False) -> tuple:
        """(exit code, stdout, seconds, span totals or None)."""
        if not traced:
            cmd = [sys.executable, "-m", "sqzbudget.cli", *op.argv]
            rc, stdout, seconds, _ = run_child(cmd, self.env, self.stdout_path)
            return rc, stdout, seconds, None
        rc, stdout, seconds, _, report = self.probe(op, traced=True)
        totals = None
        if report is not None:
            totals = dict(report["totals"])
            # Interpreter start, imports and exit: everything outside main.
            totals["startup.self_ms"] = seconds * 1e3 - report["main_ms"]
            totals["startup.calls"] = 1
        return rc, stdout, seconds, totals


def tail(values_ms: list) -> tuple:
    """(value, percentile, samples above) of the highest order statistic
    with TAIL_BEYOND samples above it."""
    s = sorted(values_ms)
    k = max(len(s) - TAIL_BEYOND - 1, 0)
    return s[k], 100.0 * (k + 1) / len(s), len(s) - k - 1


def known_layer_metrics() -> set:
    shares = {f"share.{layer}" for layer in spans.LAYERS}
    return spans.metric_names() | shares | set(RUN_LAYER_METRICS)


def layer_metrics(traced: list, traced_ms: list, untraced_ms: list, imports: list) -> dict:
    """Per-layer metrics: span totals per traced op, layer shares, overhead."""
    total: dict = defaultdict(float)
    for totals in traced:
        for key, value in totals.items():
            total[key] += value
    n = len(traced)
    wall_ms = sum(traced_ms)
    metrics = {name: total.get(name, 0.0) / n for name in spans.metric_names()}
    for layer in spans.LAYERS:
        metrics[f"share.{layer}"] = total.get(f"{layer}.self_ms", 0.0) / wall_ms
    metrics["trace.spans_per_op"] = total.get("trace.spans", 0.0) / n
    for key in ("import_numpy_ms", "import_sqzbudget_ms"):
        metrics[f"startup.{key}"] = statistics.median(r[key] for r in imports)
    metrics["trace.traced_p50_ms"] = statistics.median(traced_ms)
    metrics["trace.untraced_p50_ms"] = statistics.median(untraced_ms)
    metrics["trace.overhead_ms"] = metrics["trace.traced_p50_ms"] - metrics["trace.untraced_p50_ms"]
    metrics["trace.traced_ops"] = n
    return metrics


def bench(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple:
    """Run the workload; returns (verifier, metrics by name)."""
    wl = workloads.generate(workload, seed, str(work))
    for path, text in wl.files.items():
        Path(path).write_text(text, encoding="utf-8")
    pythonpath = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    verifier = Verifier()
    fresh = FreshProcess(env, work)

    # Set-up: a fresh interpreter imports the package and runs op 0.
    setup_s, rss_mb = [], []
    first = wl.op(0)
    for _ in range(SETUP_RUNS):
        clear_outputs(first.out_dir)
        rc, stdout, secs, rss, _ = fresh.probe(first)
        verifier.verify(first, rc, stdout)
        setup_s.append(secs)
        rss_mb.append(rss / 1024.0)
    log(f"{workload}: set-up {statistics.median(setup_s):.3f} s (median of {SETUP_RUNS})")

    runner = fresh if wl.fresh_process else InProcess(trace)

    def run_op(i: int, traced: bool) -> tuple:
        op = wl.op(i)
        clear_outputs(op.out_dir)
        rc, stdout, secs, totals = runner.run(op, traced)
        verifier.verify(op, rc, stdout)
        return op, secs, totals

    run_op(0, False)  # warm-up: the first in-process call pays lazy set-up
    walls_ms = {False: [], True: []}
    traced_totals = []
    units = busy_s = 0.0
    i = 1
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or i <= MIN_OPS:
        traced = trace and i % 2 == 0
        op, secs, totals = run_op(i, traced)
        walls_ms[traced].append(secs * 1e3)
        units += op.units
        busy_s += secs
        if traced and totals is not None:
            traced_totals.append(totals)
        i += 1

    if not trace:
        op_ms = walls_ms[False]
        value, pct, beyond = tail(op_ms)
        log(f"{workload}: {len(op_ms)} timed ops; op_tail_ms is p{pct:.1f} ({beyond} ops above it)")
        return verifier, {
            "op_p50_ms": statistics.median(op_ms),
            "op_tail_ms": value,
            "work_per_s": units / busy_s,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": statistics.median(rss_mb),
            "ok_ratio": (verifier.attempted - verifier.failed) / verifier.attempted,
        }
    if not traced_totals:
        raise RuntimeError("no traced op completed")
    metrics = layer_metrics(traced_totals, walls_ms[True], walls_ms[False], fresh.imports)
    missing = max(t["trace.targets_missing"] for t in traced_totals)
    if missing:
        log(f"{workload}: {missing} traced functions no longer exist in the package")
    log(f"{workload}: {len(walls_ms[True])} traced and {len(walls_ms[False])} untraced ops")
    return verifier, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sqzbudget" / "cli.py").is_file():
        log(f"error: no sqzbudget package under {SRC}; run inside a source checkout")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        unknown = [m["name"] for m in wanted if m["name"] not in known_layer_metrics()]
        if unknown:
            log(f"error: BENCHMARK.json names per-layer metrics nobody measures: {unknown}")
            return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        verifier, metrics = bench(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    result = {
        "correct": verifier.failed == 0,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
