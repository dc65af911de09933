"""Warehouse warm-rerun speedup and byte-identity (ISSUE 5).

The chain stack (PRs 2-4) makes a *single* sweep fast; the results
warehouse (:mod:`repro.results`) makes the *next* one fast: every exact
cell a sweep answers lands in a content-addressed cross-run memo keyed
on (chain structural digest, task, horizon, quantity, backend), and a
later sweep -- same grid or merely overlapping -- skips compilation and
evolution for every cell it hits.

This benchmark runs one exact sweep twice against a shared warehouse:

* **cold** -- fresh run directory, empty memo: every chain compiles,
  every cell pays its evolution pass;
* **warm** -- a *different* fresh run directory (so run-directory resume
  cannot short-circuit anything), same warehouse, process-wide chain
  memo cleared: every cell must come back through the cross-run memo.

It asserts the warm rerun is at least the acceptance floor (5x; more in
practice) faster end to end, that the warm run compiled **zero** chains,
and that the two run directories' records are byte-identical modulo the
timing field.  It also checks the warehouse serving path: records
rebuilt from column pages equal the JSONL scan, and the sweep aggregate
built from either source matches exactly.

A machine-readable report is written to ``BENCH_store.json`` (override
with ``BENCH_STORE_JSON``).  Runs standalone
(``python benchmarks/bench_results_store.py``) or under pytest-benchmark
(``pytest benchmarks/ -o python_files='bench_*.py'
-o python_functions='bench_*'``).
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import tempfile
import time

from repro.chain import clear_memo
from repro.context import use
from repro.obs import OBS, reset_telemetry
from repro.results import ResultsStore
from repro.runner import RunDirectory, SweepSpec, aggregate_records, run_sweep

#: The sweep: every shape of three totals x both models x three tasks
#: -- large enough that cold compilation and evolution dominate, small
#: enough for the CI smoke job.
TOTALS = (5, 6, 7)
TASKS = ("leader", "k-leader:2", "weak-sb")

#: Acceptance floor from the ISSUE; CI smoke runs on noisy shared
#: runners relax it via STORE_BENCH_MIN_SPEEDUP (byte-identity is
#: asserted regardless).
REQUIRED_SPEEDUP = float(os.environ.get("STORE_BENCH_MIN_SPEEDUP", "5.0"))
REPORT_PATH = os.environ.get("BENCH_STORE_JSON", "BENCH_store.json")


def _sweep() -> SweepSpec:
    shapes = tuple(
        shape
        for n in TOTALS
        for shape in SweepSpec.for_total_size(n).shapes
    )
    return SweepSpec(
        shapes=shapes, models=("blackboard", "clique"), tasks=TASKS
    )


def _stripped(path: pathlib.Path) -> list[dict]:
    return [
        {k: v for k, v in json.loads(line).items() if k != "elapsed"}
        for line in path.read_text().splitlines()
    ]


def measure() -> dict:
    """Cold vs warm wall clock plus the identity verdicts."""
    sweep = _sweep()
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="bench-store-"))
    try:
        warehouse = scratch / "warehouse"
        clear_memo()
        started = time.perf_counter()
        cold = run_sweep(sweep, run_dir=scratch / "cold",
                         warehouse=warehouse)
        cold_seconds = time.perf_counter() - started
        # Drop the process-wide compiled-chain memo: the warm run may
        # win only through the warehouse, not through live objects.
        clear_memo()
        started = time.perf_counter()
        warm = run_sweep(sweep, run_dir=scratch / "warm",
                         warehouse=warehouse)
        warm_seconds = time.perf_counter() - started

        # Every warm cell came from the memo; no chain was compiled.
        # Counted on an untimed traced rerun (a third fresh run
        # directory), so tracing never touches the timed runs.
        clear_memo()
        reset_telemetry()
        with use(trace=True):
            run_sweep(sweep, run_dir=scratch / "warm-traced",
                      warehouse=warehouse)
        counters = OBS.metrics.snapshot()["counters"]
        reset_telemetry()
        memo_hits = counters.get("results.memo.hit", 0)
        assert memo_hits == warm.total, (memo_hits, warm.total)
        assert counters.get("chain.compile.miss", 0) == 0
        # Byte-identity of the run directories (modulo timing).
        assert _stripped(scratch / "cold" / "records.jsonl") == _stripped(
            scratch / "warm" / "records.jsonl"
        ), "warm records must be byte-identical to cold"
        # The serving path: column pages == JSONL scan == aggregate.
        store = ResultsStore(warehouse)
        directory = RunDirectory(scratch / "cold")
        rebuilt = store.run_directory_records(directory)
        assert rebuilt == directory.load_records()
        assert (
            aggregate_records(sweep, rebuilt).rows == cold.result().rows
        ), "warehouse-built report must match the JSONL-scan report"
        return {
            "jobs": cold.total,
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "speedup": cold_seconds / warm_seconds,
            "memo_entries": len(store.table("records")),
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _write_report(report: dict) -> None:
    try:
        with open(REPORT_PATH, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
    except OSError:
        pass  # read-only checkout: the printed report still stands


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def bench_store_warm_rerun_verdict(benchmark):
    """The acceptance check: >= 5x warm-over-cold, byte-identity."""
    report = benchmark(measure)
    for key, value in report.items():
        benchmark.extra_info[key] = round(value, 6)
    _write_report(report)
    assert report["speedup"] >= REQUIRED_SPEEDUP, report


def main() -> int:
    report = measure()
    _write_report(report)
    print(
        f"exact sweep, totals {TOTALS}, tasks {TASKS}: "
        f"{report['jobs']} jobs"
    )
    print(f"  cold (empty warehouse)  : {report['cold_seconds'] * 1e3:8.2f} ms")
    print(f"  warm (memo-served)      : {report['warm_seconds'] * 1e3:8.2f} ms")
    print(
        f"  speedup {report['speedup']:.1f}x "
        f"(floor {REQUIRED_SPEEDUP:.1f}x); records byte-identical, "
        f"warehouse report == JSONL report"
    )
    if report["speedup"] < REQUIRED_SPEEDUP:
        print("SPEEDUP BELOW FLOOR")
        return 1
    print(f"report written to {REPORT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
