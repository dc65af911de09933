"""Runner-backed commands: ``phase-diagram``, ``run``, ``estimate`` and
``sweep`` (see RUNNER.md)."""

from __future__ import annotations

import sys
from dataclasses import replace

from ..cli import _engine_from, _make_ports, _make_task
from ..context import current, use
from ..randomness import RandomnessConfiguration, enumerate_size_shapes
from ..viz import format_table


def _warehouse_from(args):
    """The ``warehouse`` argument for ``run_sweep`` (False = opted out)."""
    if getattr(args, "no_warehouse", False):
        return False
    return getattr(args, "warehouse", None)


def _live_from(args) -> "dict | None":
    """The ``run_sweep(live=...)`` payload for ``--progress``, or None."""
    if not getattr(args, "progress", False):
        return None
    return {
        "deadline": args.stall_deadline,
        "action": args.stall_action,
    }


def _stderr_progress(total: int):
    """A per-record callback printing ``done/total`` lines to stderr."""
    done = 0

    def advance(record: dict) -> None:
        nonlocal done
        done += 1
        key = record.get("key", "?")
        print(f"progress: {done}/{total} {key}", file=sys.stderr)

    return advance


def cmd_phase_diagram(args) -> int:
    from ..runner import SweepSpec, run_sweep

    try:
        sweep = SweepSpec.for_total_size(
            args.n,
            models=("blackboard", "clique"),
            ports=("adversarial",),
            tasks=(args.task,),
        )
        progress = (
            _stderr_progress(len(sweep.expand())) if args.progress else None
        )
        outcome = run_sweep(
            sweep,
            engine=_engine_from(args),
            run_dir=args.run_dir,
            warehouse=_warehouse_from(args),
            progress=progress,
            live=_live_from(args),
        )
    except ValueError as exc:  # e.g. a bad --task spec
        raise SystemExit(f"phase-diagram: {exc}")
    # Jobs expand blackboard-then-clique per shape; zip the pairs back
    # into the historical two-column table.
    by_shape: dict[tuple[int, ...], dict[str, bool]] = {}
    gcds: dict[tuple[int, ...], int] = {}
    for record in outcome.records:
        shape = tuple(record["spec"]["sizes"])
        by_shape.setdefault(shape, {})[record["spec"]["model"]] = record[
            "value"
        ]["solvable"]
        gcds[shape] = record["gcd"]
    rows = [
        (
            shape,
            gcds[shape],
            "yes" if verdicts["blackboard"] else "no",
            "yes" if verdicts["clique"] else "no",
        )
        for shape, verdicts in by_shape.items()
    ]
    print(
        format_table(
            ("sizes", "gcd", "blackboard", "clique (worst case)"), rows
        )
    )
    return 0


def cmd_run(args) -> int:
    """Execute one runner job locally and print its JSON record."""
    import json

    from ..runner import RunSpec, execute_run

    try:
        spec = RunSpec(
            sizes=args.sizes,
            model=args.model,
            ports=args.ports,
            task=args.task,
            kind=args.kind,
            t=args.t,
            samples=args.samples,
            replicate=args.replicate,
        )
    except ValueError as exc:
        raise SystemExit(f"run: {exc}")
    payload = {
        "spec": spec.to_dict(),
        "master_seed": args.master_seed,
        "index": 0,
        "context": current(),
    }
    warehouse = _warehouse_from(args)
    if warehouse:
        # Same memo/merge semantics as sweeps: exact cells are served
        # whole, sampled cells reuse memoized substream blocks and a
        # larger --samples budget computes only the increment.
        from ..results.store import ResultsStore

        payload["context"] = replace(
            current(), results_memo=str(ResultsStore(warehouse).memo_dir)
        )
    if args.progress:
        # One job, no run directory: the lightweight stderr form only.
        print(f"progress: 0/1 {spec.job_key}", file=sys.stderr)
    record = execute_run(payload)
    if args.progress:
        print(f"progress: 1/1 {spec.job_key}", file=sys.stderr)
    # Telemetry rides next to the record fields; the printed record's
    # bytes stay identical with tracing on or off.
    telemetry = record.pop("telemetry", None)
    if telemetry is not None:
        from ..obs import merge_telemetry

        merge_telemetry(telemetry)
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


def cmd_estimate(args) -> int:
    """Monte-Carlo estimate of ``Pr[S(t)]`` over memoized substreams.

    One-shot with ``--samples``, adaptive with ``--target-width`` (spend
    increments until the Wilson interval is narrow enough).  With
    ``--warehouse``, full substream blocks are served from and recorded
    to the cross-run memo, so repeated estimates of one cell -- at any
    mix of budgets -- never recompute a block: a warm 10k-sample cell
    asked for 20k samples computes exactly the second 10k.
    """
    import json

    from ..analysis.montecarlo import (
        adaptive_estimate,
        estimate_solving_probability,
    )

    alpha = RandomnessConfiguration.from_group_sizes(args.sizes)
    task = _make_task(args.task, alpha.n)
    ports = None
    if args.model == "clique":
        ports = _make_ports(args.ports, args.sizes, args.seed)
    context = current()
    warehouse = _warehouse_from(args)
    if warehouse:
        from ..results.store import ResultsStore

        context = replace(
            context, results_memo=str(ResultsStore(warehouse).memo_dir)
        )
    with use(context):
        if args.target_width is not None:
            estimate = adaptive_estimate(
                alpha,
                task,
                args.t,
                ports,
                target_width=args.target_width,
                confidence=args.confidence,
                batch=args.increment,
                max_samples=args.max_samples,
                seed=args.seed,
                method=args.method,
            )
        else:
            estimate = estimate_solving_probability(
                alpha,
                task,
                args.t,
                ports,
                samples=args.samples,
                confidence=args.confidence,
                seed=args.seed,
                method=args.method,
            )
    print(
        json.dumps(
            {
                "estimate": estimate.probability,
                "interval": [estimate.low, estimate.high],
                "confidence": estimate.confidence,
                "successes": estimate.successes,
                "samples": estimate.samples,
                "t": args.t,
                "method": args.method,
            },
            indent=2,
            sort_keys=True,
        )
    )
    return 0


def cmd_sweep(args) -> int:
    """Expand a sweep, execute it on the chosen engine, print the table."""
    from ..runner import SweepSpec, run_sweep

    if (args.shapes is None) == (args.n is None):
        raise SystemExit("sweep needs exactly one of --n or --shapes")
    shapes = (
        tuple(enumerate_size_shapes(args.n))
        if args.n is not None
        else tuple(args.shapes)
    )
    try:
        sweep = SweepSpec(
            shapes=shapes,
            models=tuple(args.models),
            ports=tuple(args.ports),
            tasks=tuple(args.tasks),
            kind=args.kind,
            t=args.t,
            samples=args.samples,
            replicates=tuple(range(args.replicates)),
            master_seed=args.master_seed,
        )
        # run_sweep expands first, so a bad --tasks spec or a run-dir
        # manifest mismatch both surface here before any job executes.
        progress = (
            _stderr_progress(len(sweep.expand())) if args.progress else None
        )
        outcome = run_sweep(
            sweep,
            engine=_engine_from(args),
            run_dir=args.run_dir,
            warehouse=_warehouse_from(args),
            progress=progress,
            live=_live_from(args),
        )
    except ValueError as exc:
        raise SystemExit(f"sweep: {exc}")
    print(outcome.result().render())
    print(
        f"jobs: {outcome.total} total, {outcome.executed} executed, "
        f"{outcome.resumed} resumed"
    )
    return 0

