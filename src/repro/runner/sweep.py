"""Sweep orchestration: expand, schedule, execute, persist, aggregate.

:func:`run_sweep` is the runner's front door.  It expands a
:class:`~repro.runner.spec.SweepSpec` into its job list, subtracts jobs
already recorded in the run directory (if one is given), maps the rest
through the chosen engine, streams each record to disk as it completes,
and folds the full record set back into the package's uniform
:class:`~repro.analysis.result.ExperimentResult` container.

Aggregation sorts records by job index -- the position in the expanded
job list -- so the result table is identical whatever order the engine
completed the jobs in, and whatever mix of resumed and fresh records
contributed.  Timing fields are deliberately excluded from the aggregate
so two runs of the same sweep compare byte-for-byte.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field, replace

from ..context import current
from ..obs import OBS, merge_telemetry, trace
from .engines import ExecutionEngine, SerialEngine
from .persistence import RunDirectory
from .spec import SweepSpec, derive_seed
from .worker import execute_run


@dataclass
class SweepOutcome:
    """What a sweep produced: records, the aggregate, and run accounting."""

    sweep: SweepSpec
    #: All job records, sorted by job index (resumed and fresh alike).
    records: list[dict]
    #: How many jobs ran in this invocation.
    executed: int
    #: How many jobs were skipped because the run directory had them.
    resumed: int
    #: Fields like the aggregate are derived; see :meth:`result`.
    _result: "object | None" = field(default=None, repr=False)

    @property
    def total(self) -> int:
        """Total number of jobs in the expanded sweep."""
        return len(self.records)

    def result(self):
        """The aggregate as an ``ExperimentResult`` (computed lazily)."""
        if self._result is None:
            self._result = aggregate_records(self.sweep, self.records)
        return self._result


def aggregate_records(sweep: SweepSpec, records: list[dict]):
    """Fold job records into an ``ExperimentResult`` table.

    One row per job, in job-index order.  Exact sweeps report the limit
    probability and a yes/no solvability verdict; sampling sweeps report
    the estimate with its Wilson confidence interval.
    """
    from ..analysis.montecarlo import wilson_interval
    from ..analysis.result import ExperimentResult

    ordered = sorted(records, key=lambda r: r["index"])
    rows = []
    for record in ordered:
        spec = record["spec"]
        value = record["value"]
        base = (
            tuple(spec["sizes"]),
            record["gcd"],
            spec["model"],
            spec["ports"],
            spec["task"],
            spec["replicate"],
        )
        if sweep.kind == "exact":
            rows.append(
                base
                + (value["limit"], "yes" if value["solvable"] else "no")
            )
        else:
            low, high = wilson_interval(
                value["successes"], value["samples"]
            )
            rows.append(
                base
                + (
                    f"{value['estimate']:.4f}",
                    f"[{low:.4f}, {high:.4f}]",
                    value["samples"],
                )
            )
    value_headers = (
        ("limit", "solvable")
        if sweep.kind == "exact"
        else ("estimate", "wilson 95%", "samples")
    )
    return ExperimentResult(
        experiment_id="runner-sweep",
        title=(
            f"{sweep.kind} sweep: {len(ordered)} jobs over "
            f"{len(sweep.shapes)} shapes (master seed {sweep.master_seed})"
        ),
        headers=("sizes", "gcd", "model", "ports", "task", "rep")
        + value_headers,
        rows=rows,
        notes=[
            "per-job seeds derive from (master_seed, job_key); results "
            "are engine- and worker-count-independent"
        ],
    )


def run_sweep(
    sweep: SweepSpec,
    engine: ExecutionEngine | None = None,
    run_dir: "str | pathlib.Path | None" = None,
    progress=None,
    warehouse: "str | pathlib.Path | bool | None" = None,
    live: "bool | dict | None" = None,
) -> SweepOutcome:
    """Execute a sweep, optionally resuming from a run directory.

    ``engine`` defaults to :class:`~repro.runner.engines.SerialEngine`.
    With ``run_dir``, each completed job is appended to
    ``records.jsonl`` immediately, and jobs already recorded there are
    not re-run.  ``progress`` (if given) is called with each fresh record
    as it completes.

    ``live`` (needs a run directory) turns on the in-flight telemetry
    side channel (:mod:`repro.obs.live`, OBS.md "Live operation"):
    workers append heartbeats under ``<run_dir>/heartbeats/``, a
    monitor thread folds them into schema-validated progress events in
    ``<run_dir>/progress.jsonl``, and a stall watchdog flags workers
    whose heartbeat age exceeds the deadline.  Pass ``True`` for the
    defaults or a dict of :class:`~repro.obs.live.LiveConfig` fields
    (``interval``, ``poll``, ``deadline``, ``action``, ``max_reaps``);
    ``action="cancel"`` lets the watchdog reap a stalled pool and
    resubmit the unfinished jobs deterministically.  Live telemetry
    never touches the record path: ``records.jsonl`` is byte-identical
    with ``live`` on or off.

    ``warehouse`` names the columnar results warehouse
    (:class:`~repro.results.store.ResultsStore`) the sweep serves and
    feeds: completed records are ingested incrementally (watermarked,
    so resumed runs ingest only what is new), resume reads column pages
    instead of re-parsing JSONL when the warehouse fully covers the run
    directory, and every worker consults the warehouse's cross-run
    query memo before computing a cell -- a sweep whose cells another
    run already answered re-executes nothing but record writes.  This
    covers sampling sweeps too: Monte-Carlo cells memoize integer
    success counts per substream block (see RUNNER.md, "Monte-Carlo
    substreams and the merge law"), so a warm rerun serves whole cells
    from the memo and a rerun at a *larger* budget computes only the
    increment, merging it with the memoized blocks into one combined
    estimate.  It
    defaults to ``<run_dir>/warehouse`` when a run directory is given
    (pass ``False`` to opt out); point several sweeps at one shared
    warehouse to deduplicate work across them.
    """
    engine = engine or SerialEngine()
    jobs = sweep.expand()
    payloads = [
        {"spec": spec.to_dict(), "master_seed": sweep.master_seed, "index": i}
        for i, spec in enumerate(jobs)
    ]
    directory: RunDirectory | None = None
    prior: list[dict] = []
    if warehouse is None and run_dir is not None:
        warehouse = pathlib.Path(run_dir) / "warehouse"
    store = None
    # The workers' execution context is the caller's plus these
    # sweep-specific caches and side channels.
    changes: dict = {}
    if warehouse:
        from ..results.store import ResultsStore

        store = ResultsStore(warehouse)
        changes["results_memo"] = str(store.memo_dir)
    if run_dir is not None:
        directory = RunDirectory(run_dir)
        # Persist compiled chains next to the records: every worker (and
        # every resumed run) then compiles each (alpha, ports) chain at
        # most once, sweep-wide.
        changes["chain_cache"] = str(directory.path / "chains")
        directory.write_manifest(
            {
                "sweep": sweep.to_dict(),
                "jobs": [spec.job_key for spec in jobs],
            }
        )
        valid = {
            spec.job_key: derive_seed(sweep.master_seed, spec.job_key)
            for spec in jobs
        }
        key_to_index = {spec.job_key: i for i, spec in enumerate(jobs)}
        done = set()
        existing: "list[dict] | None" = None
        if store is not None:
            # Catch the watermark up, then serve the resume scan from
            # column pages instead of re-parsing JSONL (``None`` -- an
            # uncovered tail -- falls back to the line scan).
            store.ingest_run_directory(directory)
            existing = store.run_directory_records(directory)
        if existing is None:
            existing = directory.load_records()
        for record in existing:
            key = record.get("key")
            # The seed check rejects records produced under a different
            # master seed (job keys alone don't encode it), so stale
            # cross-seed records can never leak into the aggregate.
            if (
                key in valid
                and key not in done
                and record.get("seed") == valid[key]
            ):
                done.add(key)
                # Re-anchor the index to THIS sweep's expansion: a
                # hand-copied record may carry another sweep's position.
                prior.append({**record, "index": key_to_index[key]})
        payloads = [
            p for p in payloads if jobs[p["index"]].job_key not in done
        ]
    monitor = None
    if live and directory is not None:
        from ..obs.live import LiveConfig, SweepMonitor

        config = LiveConfig.from_payload(
            live if isinstance(live, (dict, LiveConfig)) else None
        )
        # Workers append heartbeats to their own log under the run
        # directory, far from the record return path.
        changes["heartbeat_dir"] = str(directory.heartbeat_dir)
        changes["heartbeat_interval"] = config.interval
        monitor = SweepMonitor(
            directory.path,
            total=len(jobs),
            config=config,
            engine=engine,
            resumed=len(prior),
        )
    context = replace(current(), **changes)
    for payload in payloads:
        payload["context"] = context
    fresh: list[dict] = []
    try:
        if monitor is not None:
            monitor.start()
            from ..obs.live import monitored_map

            results = monitored_map(engine, execute_run, payloads, monitor)
        else:
            results = engine.map(execute_run, payloads)
        with trace("sweep.execute", jobs=len(payloads)):
            for record in results:
                # Workers attach their drained telemetry *next to* the
                # record fields; fold it into this process before
                # anything is persisted, so record bytes are identical
                # with tracing on or off.  (Serial engines drain and
                # merge back in-process: a no-op for the totals.)
                telemetry = record.pop("telemetry", None)
                if telemetry is not None:
                    merge_telemetry(telemetry)
                if directory is not None:
                    directory.append(record)
                fresh.append(record)
                if monitor is not None:
                    monitor.note_record(record)
                if progress is not None:
                    progress(record)
    finally:
        if monitor is not None:
            # Flush the final progress event (``event: "end"``) and stop
            # the monitor thread.
            monitor.stop()
        if store is not None:
            # Land the fresh job records (watermarked -- only the new
            # JSONL bytes are read).
            try:
                with trace("sweep.ingest"):
                    if directory is not None:
                        store.ingest_run_directory(directory)
                if OBS.enabled:
                    # Land the folded sweep telemetry as queryable rows
                    # (``repro results query --table telemetry``).  The
                    # snapshot is taken *after* the ingest above so the
                    # store's own counters are included.
                    from ..obs import clock, telemetry_rows
                    from ..results.store import TELEMETRY_COLUMNS

                    rows = telemetry_rows()
                    stamp = clock.now()
                    for row in rows:
                        row["stamp"] = stamp
                        row["master_seed"] = sweep.master_seed
                    if rows:
                        store.append_rows(
                            "telemetry", rows, TELEMETRY_COLUMNS
                        )
            except OSError:
                pass  # the warehouse is derived state; never fail a sweep
    records = sorted(prior + fresh, key=lambda r: r["index"])
    return SweepOutcome(
        sweep=sweep,
        records=records,
        executed=len(fresh),
        resumed=len(prior),
    )


__all__ = ["SweepOutcome", "aggregate_records", "run_sweep"]
