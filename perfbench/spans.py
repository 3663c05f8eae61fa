"""Span recorder that times sqzbudget's layers from outside the package.

Each target is a public function replaced at the module attribute its
caller looks the name up in: ``cli.build_report`` and
``budget.build_report`` are two bindings of one function, and ``sweep()``
reaches it through the second. Spans of one op share an op id and point at
their parent span; the recorder keeps them in memory and ``collect`` sums
them into per-op totals.
"""

from __future__ import annotations

import functools
import importlib
import re
import time
from collections import defaultdict

# (module, attribute, span name, layer). The quadrature and losses modules
# are one layer.
TARGETS = (
    ("sqzbudget.cli", "load_config", "config.load_config", "config"),
    ("sqzbudget.cli", "default_run_config", "config.default_run_config", "config"),
    ("sqzbudget.cli", "default_config_text", "config.default_config_text", "config"),
    ("sqzbudget.config", "parse_config", "config.parse_config", "config"),
    ("sqzbudget.cli", "build_report", "budget.build_report", "budget"),
    ("sqzbudget.cli", "sweep", "budget.sweep", "budget"),
    ("sqzbudget.cli", "required_efficiency_for_improvement", "budget.required_efficiency", "budget"),
    ("sqzbudget.budget", "build_report", "budget.build_report", "budget"),
    ("sqzbudget.budget", "total_noise", "budget.total_noise", "budget"),
    ("sqzbudget.budget", "improvement_db", "budget.improvement_db", "budget"),
    ("sqzbudget.budget", "shot_noise_asd", "ifo.shot_noise_asd", "ifo"),
    ("sqzbudget.budget", "technical_noise_asd", "ifo.technical_noise_asd", "ifo"),
    ("sqzbudget.budget", "squeezing_factor", "ifo.squeezing_factor", "ifo"),
    ("sqzbudget.budget", "state_from_db", "quadrature.state_from_db", "quadrature_losses"),
    ("sqzbudget.budget", "chain_efficiency", "losses.chain_efficiency", "quadrature_losses"),
    ("sqzbudget.budget", "degradation_report", "losses.degradation_report", "quadrature_losses"),
    ("sqzbudget.cli", "degradation_report", "losses.degradation_report", "quadrature_losses"),
    ("sqzbudget.ifo", "apply_loss", "quadrature.apply_loss", "quadrature_losses"),
    ("sqzbudget.ifo", "dephase", "quadrature.dephase", "quadrature_losses"),
    ("sqzbudget.ifo", "readout_variance", "quadrature.readout_variance", "quadrature_losses"),
    ("sqzbudget.ifo", "chain_efficiency", "losses.chain_efficiency", "quadrature_losses"),
    ("sqzbudget.cli", "budget_csv", "report.budget_csv", "report"),
    ("sqzbudget.cli", "spectrum_svg", "report.spectrum_svg", "report"),
    ("sqzbudget.cli", "summary_json", "report.summary_json", "report"),
    ("sqzbudget.cli", "ledger_csv", "report.ledger_csv", "report"),
    ("sqzbudget.cli", "sweep_csv", "report.sweep_emit", "report"),
    ("sqzbudget.cli", "sweep_json", "report.sweep_emit", "report"),
    ("sqzbudget.cli", "oracle_json", "report.oracle_json", "report"),
    ("sqzbudget.report", "render_loglog", "svgplot.render_loglog", "svgplot"),
    ("sqzbudget.cli", "standard_suite", "oracle.standard_suite", "oracle"),
    ("sqzbudget.oracle", "sample_lossy_squeezed", "oracle.sample", "oracle"),
    ("sqzbudget.oracle", "sample_two_stage", "oracle.sample", "oracle"),
    ("sqzbudget.oracle", "oracle_compare", "oracle.compare", "oracle"),
    ("sqzbudget.oracle", "apply_loss", "quadrature.apply_loss", "quadrature_losses"),
    ("sqzbudget.oracle", "dephase", "quadrature.dephase", "quadrature_losses"),
    ("sqzbudget.oracle", "readout_variance", "quadrature.readout_variance", "quadrature_losses"),
    ("sqzbudget.cli", "_write", "cli.write", "cli"),
)

LAYERS = ("startup", "cli", "config", "budget", "ifo", "quadrature_losses", "report", "svgplot", "oracle")

_NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


def nbytes(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode("utf-8"))


# Counts taken from a call's arguments or result, right after it returns.
COUNTERS = (
    "budget.sweep_values",
    "svgplot.points_plotted",
    "oracle.samples_drawn",
    "oracle.checks_run",
    "oracle.checks_failed",
    "cli.bytes_written",
    "report.bytes_out",
    "report.values_formatted",
)
MEASURES = {
    "budget.sweep": lambda args, kwargs, result: {"budget.sweep_values": len(result)},
    "svgplot.render_loglog": lambda args, kwargs, result: {
        "svgplot.points_plotted": sum(len(t.x) for t in args[0])},
    "oracle.sample": lambda args, kwargs, result: {"oracle.samples_drawn": result.n_samples},
    "oracle.compare": lambda args, kwargs, result: {
        "oracle.checks_run": 1, "oracle.checks_failed": 0 if result.passed else 1},
    "cli.write": lambda args, kwargs, result: {"cli.bytes_written": nbytes(args[2])},
}


def metric_names() -> set:
    """Every total ``Tracer.collect`` can produce."""
    names = {"cli.main"} | {target[2] for target in TARGETS}
    return (
        {f"{name}_{kind}" for name in names for kind in ("ms", "calls")}
        | {f"{layer}.{kind}" for layer in LAYERS for kind in ("self_ms", "calls")}
        | set(COUNTERS)
    )


class Tracer:
    """Wraps the targets while installed and records one span per call."""

    def __init__(self) -> None:
        # [op id, name, layer, parent index, start, end, extra]
        self._spans: list = []
        self._stack: list = []
        self._saved: list = []
        self.op = 0
        self.missing = 0

    def install(self) -> None:
        self.missing = 0
        for module_name, attr, name, layer in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:  # renamed or removed by a later refactor
                self.missing += 1
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, layer))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        """Run ``fn`` under a root span of its own."""
        return self._wrap(fn, name, layer)(*args, **kwargs)

    def _wrap(self, fn, name: str, layer: str):
        spans, stack = self._spans, self._stack
        measure = MEASURES.get(name)
        keep_text = layer == "report"
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [self.op, name, layer, stack[-1] if stack else None, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()
            if measure is not None:
                rec[6] = measure(args, kwargs, result)
            elif keep_text:
                rec[6] = result
            return result

        return traced

    def collect(self) -> dict:
        """Sum the recorded spans of one op into totals and start the next op.

        ``<span>_ms`` and ``<span>_calls`` per span name; ``<layer>.self_ms``
        is span time not covered by child spans; ``<layer>.calls`` counts
        calls that enter the layer from another one. Emitter output sizes
        and the numbers they format are counted here, after the op.
        """
        spans = self._spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] is not None:
                child[rec[3]] += rec[5] - rec[4]
        totals: dict = defaultdict(float)
        for i, (_, name, layer, parent, start, end, extra) in enumerate(spans):
            totals[f"{name}_ms"] += (end - start) * 1e3
            totals[f"{name}_calls"] += 1
            totals[f"{layer}.self_ms"] += (end - start - child[i]) * 1e3
            if parent is None or spans[parent][2] != layer:
                totals[f"{layer}.calls"] += 1
            if isinstance(extra, dict):
                for key, value in extra.items():
                    totals[key] += value
            elif isinstance(extra, str):
                totals["report.bytes_out"] += nbytes(extra)
                totals["report.values_formatted"] += sum(1 for _ in _NUMBER.finditer(extra))
        totals["trace.spans"] = len(spans)
        totals["trace.targets_missing"] = self.missing
        spans.clear()
        self.op += 1
        return dict(totals)
