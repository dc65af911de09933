"""Commands over stored state: ``chains`` (a chain disk cache),
``results`` (the warehouse), ``metrics`` and ``obs`` (telemetry)."""

from __future__ import annotations

from ..viz import format_table


def cmd_chains(args) -> int:
    """List, inspect, or prune a chain disk cache."""
    import datetime
    import pathlib

    from ..chain import ChainDiskCache

    root = pathlib.Path(args.directory)
    # Accept a run directory transparently: sweeps persist their chains
    # under <run_dir>/chains.
    if (root / "chains").is_dir():
        root = root / "chains"
    if not root.is_dir():
        raise SystemExit(f"chains: no cache directory at {args.directory}")
    cache = ChainDiskCache(root)
    entries = cache.entries()
    if args.action == "prune":
        if args.all:
            removed = cache.evict(max_bytes=0, max_entries=0)
        elif args.max_bytes is None and args.max_entries is None:
            raise SystemExit(
                "chains prune: need --max-bytes, --max-entries, or --all"
            )
        else:
            try:
                removed = cache.evict(
                    max_bytes=args.max_bytes, max_entries=args.max_entries
                )
            except ValueError as exc:
                raise SystemExit(f"chains prune: {exc}")
        freed = sum(entry.size for entry in removed)
        print(
            f"pruned {len(removed)}/{len(entries)} cached chains "
            f"({freed} bytes freed) from {root}"
        )
        return 0
    if not entries:
        print(f"{root}: empty chain cache")
        return 0
    rows = []
    for entry in entries:
        stamp = datetime.datetime.fromtimestamp(entry.mtime).isoformat(
            sep=" ", timespec="seconds"
        )
        if args.action == "inspect":
            try:
                chain = cache.read(entry.path)
                model = "blackboard" if chain.key[1] is None else (
                    "classical" if chain.key[2] is not None else "clique"
                )
                detail = (
                    f"n={chain.n} k={chain.k} states={chain.num_states} "
                    f"transitions={chain.num_transitions} {model}"
                )
            except Exception as exc:
                detail = f"unreadable ({type(exc).__name__})"
            rows.append(
                (entry.digest[:12], entry.size, entry.loads, stamp, detail)
            )
        else:
            rows.append((entry.digest[:12], entry.size, entry.loads, stamp))
    headers = (
        ("digest", "bytes", "loads", "last used", "chain")
        if args.action == "inspect"
        else ("digest", "bytes", "loads", "last used")
    )
    print(format_table(headers, rows))
    print(f"{len(entries)} chains, {cache.total_bytes()} bytes in {root}")
    return 0


#: Comparison spellings ``--where`` understands, longest first so
#: ``>=`` wins over ``>`` and ``=`` stays the equality shorthand.
_WHERE_OPS = (">=", "<=", "!=", "==", ">", "<", "=")


def _parse_where(clause: str):
    """Split one ``--where`` clause into ``(column, op, raw value)``."""
    for op in _WHERE_OPS:
        name, found, value = clause.partition(op)
        if found:
            name, value = name.strip(), value.strip()
            if name and value:
                return name, op, value
    raise SystemExit(
        f"results: bad --where {clause!r} (expected column OP value "
        f"with OP in {', '.join(_WHERE_OPS)})"
    )


def _where_predicate(table, clauses):
    """Fold ``--where`` clauses into one predicate (typed per column)."""
    from ..results import col

    predicate = None
    for clause in clauses or ():
        name, op, raw = _parse_where(clause)
        kind = table.column(name).dtype.kind
        try:
            if kind in "US":
                value = raw
            elif kind == "b":
                value = raw.lower() in ("1", "true", "yes")
            elif kind in "iu":
                value = int(raw)
            else:
                value = float(raw)
        except ValueError:
            raise SystemExit(
                f"results: --where {clause!r}: {raw!r} is not a valid "
                f"value for column {name!r}"
            )
        column = col(name)
        term = {
            "=": column == value,
            "==": column == value,
            "!=": column != value,
            ">": column > value,
            ">=": column >= value,
            "<": column < value,
            "<=": column <= value,
        }[op]
        predicate = term if predicate is None else predicate & term
    return predicate


def _results_store(directory: str):
    """Open a warehouse, accepting a run directory transparently."""
    import pathlib

    from ..results import ResultsStore

    root = pathlib.Path(directory)
    if (root / "warehouse").is_dir():
        root = root / "warehouse"
    if not (root / "segments").is_dir():
        raise SystemExit(f"results: no warehouse at {directory}")
    return ResultsStore(root)


def _results_table(store, args):
    """The selected table with where/group/sort/limit applied."""
    table = store.table(args.table)
    predicate = _where_predicate(table, args.where)
    if predicate is not None:
        table = table.filter(predicate)
    if args.group_by:
        keys = [k for part in args.group_by for k in part.split(",") if k]
        aggregates = {}
        for spec in args.agg or ["count"]:
            fn, _, column = spec.partition(":")
            if fn == "count":
                aggregates["count"] = ("count",)
            else:
                if not column:
                    raise SystemExit(
                        f"results: --agg {spec!r} needs fn:column"
                    )
                aggregates[f"{fn}_{column}"] = (fn, column)
        try:
            table = table.group_by(keys, aggregates)
        except (KeyError, ValueError) as exc:
            raise SystemExit(f"results: {exc}")
    if args.columns:
        names = [c for part in args.columns for c in part.split(",") if c]
        try:
            table = table.project(names)
        except KeyError as exc:
            raise SystemExit(f"results: {exc}")
    if args.sort_by:
        table = table.sort_by(
            [c for part in args.sort_by for c in part.split(",") if c]
        )
    if args.limit is not None:
        table = table.head(args.limit)
    return table


def cmd_results(args) -> int:
    """Query, export, inspect, compact, or feed a results warehouse."""
    import csv
    import io
    import json
    import sys as _sys

    if args.action == "ingest":
        if not args.run_dirs:
            raise SystemExit("results ingest: need at least one run dir")
        import pathlib

        from ..results import ResultsStore

        # Same resolution as the read actions: a run directory means
        # its warehouse/, so ingest and query always see one store.
        root = pathlib.Path(args.directory)
        if (root / "warehouse").is_dir():
            root = root / "warehouse"
        store = ResultsStore(root)
        for run_dir in args.run_dirs:
            added = store.ingest_run_directory(run_dir)
            print(f"ingested {added} new records from {run_dir}")
        return 0
    store = _results_store(args.directory)
    if args.action == "vacuum":
        if not args.run_dirs:
            raise SystemExit("results vacuum: need at least one run dir")
        removed = 0
        for run_dir in args.run_dirs:
            status = store.vacuum_run_directory(run_dir)
            removed += status == "removed"
            print(f"{run_dir}: {status}")
        print(f"vacuumed {removed}/{len(args.run_dirs)} run directories")
        return 0 if removed == len(args.run_dirs) else 1
    if args.action == "stats":
        stats = store.stats()
        rows = [
            (name, info["rows"], info["segments"], info["bytes"])
            for name, info in sorted(stats["tables"].items())
        ]
        print(format_table(("table", "rows", "segments", "bytes"), rows))
        memo = stats["memo"]
        print(
            f"memo: {memo['entries']} entries, "
            f"{memo['log_bytes']} log bytes pending compaction"
        )
        return 0
    if args.action == "compact":
        summary = store.compact()
        from ..results import QueryMemo

        entries = QueryMemo(store.memo_dir).compact()
        print(
            f"compacted {summary['merged']} merged segments "
            f"({summary['removed']} removed), memo folded to "
            f"{entries} entries"
        )
        return 0
    table = _results_table(store, args)
    if args.action == "query":
        headers, rows = table.to_table()
        if not rows:
            print(f"no rows in table {args.table!r} match")
            return 0
        print(format_table(headers, rows))
        print(f"{len(rows)} rows from {store.root}")
        return 0
    # export
    out = (
        open(args.output, "w", encoding="utf-8")
        if args.output
        else _sys.stdout
    )
    try:
        if args.format == "json":
            from ..results.store import _nan_safe

            # NaN cells (unfilled kind-specific columns) degrade to
            # null so the document stays strict JSON.
            rows = [
                {name: _nan_safe(value) for name, value in row.items()}
                for row in table.to_rows()
            ]
            json.dump(rows, out, indent=2, default=str)
            out.write("\n")
        else:
            headers, rows = table.to_table()
            buffer = io.StringIO()
            writer = csv.writer(buffer)
            writer.writerow(headers)
            writer.writerows(rows)
            out.write(buffer.getvalue())
    finally:
        if args.output:
            out.close()
            print(f"wrote {len(table)} rows to {args.output}")
    return 0


def cmd_metrics(args) -> int:
    """Show or export collected telemetry (counters, gauges, spans).

    ``--chains DIR`` first publishes that chain cache's exact sidecar
    load counts as gauges (the same counts ``repro chains list``
    displays, so the two commands always agree); ``--warehouse DIR``
    folds in the rows sweeps persisted to the warehouse's ``telemetry``
    table.  The ``history`` action instead reads the warehouse's
    telemetry rows *across* sweeps -- one line per (metric, stamp) --
    for trend reading (see OBS.md, "From telemetry to decisions").
    Histogram lines in ``show`` carry p50/p90/p99 estimates derived
    from the 64-bucket log2 bins.
    """
    import json
    import pathlib

    from ..obs import OBS, histogram_percentiles, telemetry_rows

    if args.action == "history":
        from ..obs.analyze import metrics_history

        if not args.warehouse:
            raise SystemExit("metrics history: needs --warehouse DIR")
        rows = metrics_history(
            _results_store(args.warehouse),
            kind=args.kind,
            name=args.name,
            master_seed=args.master_seed,
        )
        if not rows:
            print("no persisted telemetry matches (run traced sweeps "
                  "with a warehouse first)")
            return 0
        print(
            format_table(
                ("name", "kind", "stamp", "master_seed", "value", "count"),
                [
                    (
                        r["name"], r["kind"], f"{r['stamp']:.6f}",
                        r["master_seed"], f"{r['value']:.6g}", r["count"],
                    )
                    for r in rows
                ],
            )
        )
        return 0
    if args.chains:
        from ..chain import ChainDiskCache

        root = pathlib.Path(args.chains)
        # Accept a run directory transparently, like `repro chains`.
        if (root / "chains").is_dir():
            root = root / "chains"
        if not root.is_dir():
            raise SystemExit(f"metrics: no chain cache at {args.chains}")
        ChainDiskCache(root).publish_gauges(OBS.metrics)
    rows = telemetry_rows()
    if args.warehouse:
        store = _results_store(args.warehouse)
        if "telemetry" in store.tables():
            for row in store.table("telemetry").to_rows():
                rows.append(
                    {
                        "kind": str(row["kind"]),
                        "name": str(row["name"]),
                        "value": float(row["value"]),
                        "count": int(row["count"]),
                    }
                )
            rows.sort(key=lambda r: (r["kind"], r["name"]))
    if args.action == "export":
        document = json.dumps(rows, indent=2, sort_keys=True)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(document + "\n")
            print(f"wrote {len(rows)} telemetry rows to {args.output}")
        else:
            print(document)
        return 0
    if not rows:
        print("no telemetry collected (tracing off and nothing persisted)")
        return 0

    def detail(row) -> str:
        # Percentile summaries for live histograms: the registry still
        # holds the buckets (persisted rows carry totals only -- see
        # OBS.md on the merge-law caveat).
        if row["kind"] != "hist":
            return ""
        hist = OBS.metrics.histogram(row["name"])
        if hist is None:
            return ""
        pct = histogram_percentiles(hist)
        if not pct:
            return ""
        return " ".join(
            f"{key}={pct[key]:.3g}" for key in ("p50", "p90", "p99")
        )

    print(
        format_table(
            ("kind", "name", "value", "count", "detail"),
            [
                (
                    r["kind"], r["name"], f"{r['value']:.6g}",
                    r["count"], detail(r),
                )
                for r in rows
            ],
        )
    )
    return 0


def _obs_tail(args) -> int:
    """Stream a live run's progress events (``repro obs tail RUN_DIR``)."""
    import pathlib
    import time

    from ..obs.live import PROGRESS_NAME, format_progress_event, read_progress

    path = pathlib.Path(args.directory)
    if path.is_dir():
        path = path / PROGRESS_NAME
    if not args.follow and not path.exists():
        raise SystemExit(f"obs tail: no progress log at {path}")
    offset = 0
    while True:
        events, offset = read_progress(path, offset)
        ended = False
        for event in events:
            print(format_progress_event(event))
            ended = ended or event.get("event") == "end"
        if not args.follow or ended:
            return 0
        time.sleep(args.poll)


def _obs_top(args) -> int:
    """Render per-worker heartbeat state (``repro obs top RUN_DIR``)."""
    import pathlib

    from ..obs.live import HEARTBEAT_DIR, worker_status

    directory = pathlib.Path(args.directory)
    if (directory / HEARTBEAT_DIR).is_dir():
        directory = directory / HEARTBEAT_DIR
    rows = worker_status(directory)
    if not rows:
        print(f"no heartbeats under {directory} (run a sweep with "
              "--progress and a --run-dir first)")
        return 0
    print(
        format_table(
            ("worker", "phase", "done", "in-flight", "age", "rss", "cpu"),
            [
                (
                    r["worker"],
                    r.get("phase", "?"),
                    r["jobs_finished"],
                    r["in_flight"],
                    f"{r['age']:.1f}s",
                    _format_bytes(r.get("resources", {}).get("rss_peak", 0)),
                    f"{r.get('resources', {}).get('cpu_seconds', 0.0):.1f}s",
                )
                for r in rows
            ],
        )
    )
    return 0


def _format_bytes(count: int) -> str:
    """Human-readable byte count (``1.5GiB``)."""
    value = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f}{unit}" if unit != "B" else f"{int(value)}B"
        value /= 1024
    return f"{value:.1f}GiB"  # pragma: no cover - loop always returns


def cmd_obs(args) -> int:
    """Cross-run telemetry analytics and live-run inspection.

    ``repro obs diff DIR`` compares the two most recent traced sweeps
    persisted in the warehouse tier by tier (pick explicit sweeps with
    ``--stamps A B`` from ``repro metrics history``); ``repro obs
    tiers DIR`` renders one sweep's wall-clock attribution by span
    self-time.  ``repro obs tail RUN_DIR`` replays (or with
    ``--follow`` streams) a live sweep's progress events; ``repro obs
    top RUN_DIR`` shows per-worker heartbeat state.
    """
    if args.action == "tail":
        return _obs_tail(args)
    if args.action == "top":
        return _obs_top(args)
    from ..obs.analyze import diff_sweeps, tier_attribution

    store = _results_store(args.directory)
    if args.action == "tiers":
        rows = tier_attribution(store, stamp=args.stamp)
        if not rows:
            print("no span telemetry persisted (run a traced sweep "
                  "with a warehouse first)")
            return 0
        print(
            format_table(
                ("tier", "self", "calls", "share"),
                [
                    (
                        r["name"], f"{r['seconds'] * 1e3:.3f}ms",
                        r["calls"], f"{r['share'] * 100:.1f}%",
                    )
                    for r in rows
                ],
            )
        )
        return 0
    stamp_a, stamp_b = args.a, args.b
    if args.stamps is not None:
        stamp_a, stamp_b = args.stamps
    try:
        rows = diff_sweeps(store, stamp_a=stamp_a, stamp_b=stamp_b)
    except ValueError as exc:
        raise SystemExit(f"obs diff: {exc}")
    print(
        format_table(
            ("kind", "name", "a", "b", "delta", "ratio"),
            [
                (
                    r["kind"], r["name"], f"{r['a']:.6g}",
                    f"{r['b']:.6g}", f"{r['delta']:+.6g}",
                    "-" if r["ratio"] is None else f"{r['ratio']:.3f}",
                )
                for r in rows
            ],
        )
    )
    return 0

