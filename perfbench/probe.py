"""Run one sqzbudget CLI call in a fresh interpreter and time it from inside.

    python3 perfbench/probe.py REPORT [--trace] -- ARGV...

Times ``import numpy`` and then ``import sqzbudget.cli``, runs
``sqzbudget.cli.main(ARGV)``, writes the timings to REPORT as JSON (with
``--trace``, also the span totals of the call) and exits with main's exit
code. PYTHONPATH must reach the package; run.py sets it to the checkout's
src directory.
"""

import sys
import time


def main() -> int:
    report_path, rest = sys.argv[1], sys.argv[2:]
    split = rest.index("--")
    traced, argv = "--trace" in rest[:split], rest[split + 1:]

    t0 = time.perf_counter()
    import numpy  # noqa: F401  (timed apart from the package's own import)
    t1 = time.perf_counter()
    from sqzbudget import cli
    t2 = time.perf_counter()

    import json

    totals = {}
    if traced:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        t3 = time.perf_counter()
        rc = tracer.call("cli.main", "cli", cli.main, argv)
        t4 = time.perf_counter()
        tracer.uninstall()
        totals = tracer.collect()
    else:
        t3 = time.perf_counter()
        rc = cli.main(argv)
        t4 = time.perf_counter()
    sys.stdout.flush()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump({
            "import_numpy_ms": (t1 - t0) * 1e3,
            "import_sqzbudget_ms": (t2 - t1) * 1e3,
            "main_ms": (t4 - t3) * 1e3,
            "totals": totals,
        }, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
