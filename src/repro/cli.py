"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
solve           decide eventual solvability for a configuration and task
series          exact Pr[S(t)] for t = 1..T
expected-time   exact expected rounds until the task is solved
phase-diagram   sweep all size shapes of n (both models)
protocol        run an actual election protocol and report the outcome
figures         render the paper's Figures 1-3 as text
experiments     run reproduction experiments (all or by id)
run             execute one runner job and print its JSON record
estimate        Monte-Carlo Pr[S(t)] estimate (mergeable memoized substreams)
sweep           expand and execute a sweep (parallel, resumable)
chains          list/inspect/prune a chain disk cache
results         query/export/stats/compact/ingest/vacuum a results warehouse
metrics         show/export collected telemetry; cross-run history (OBS.md)
obs             cross-run analytics: diff two sweeps, per-tier attribution
graphs          anonymous-graph worst-case analysis (k=1 slice)
mermaid         refinement lattice as a mermaid state diagram
report          run all experiments and write JSON/CSV/Markdown
trace           prefix: run any command traced and print its span tree

This module holds the parser and ``main``; each command's code lives in
one module of :mod:`repro.commands`, which ``main`` imports only when
that command runs -- so starting the CLI loads no numpy, and a query
loads only the tiers it uses:

repro.commands.queries   solve, series, expected-time, protocol, graphs,
                         mermaid
repro.commands.runs      phase-diagram, run, estimate, sweep
repro.commands.store     chains, results, metrics, obs
repro.commands.reports   figures, experiments, report

Chain queries run through the batched query layer (``repro.chain.batch``:
one shared pass answers a whole set of (task, horizon) questions).
Chains compile **quotiented** by the configuration's automorphism group
when it has one (``repro.chain.quotient``: orbit states instead of raw
partitions); ``--no-quotient`` forces full chains and ``--quotient``
insists, with byte-identical exact start-state results either way.

Examples
--------
python -m repro solve 2,3 --model clique
python -m repro series 1,2,2 --t-max 8
python -m repro solve 2,4 --model clique --task k-leader:2
python -m repro phase-diagram 5
python -m repro protocol 2,3 --model clique --seed 7
python -m repro experiments theorem-4.1 theorem-4.2

Running sweeps
--------------
The ``run`` and ``sweep`` commands front the :mod:`repro.runner`
subsystem (see ``RUNNER.md``).  A sweep is the cartesian product of its
axes -- ``--shapes`` (or ``--n`` for every shape of a total size),
``--models``, ``--ports``, ``--tasks``, and ``--replicates`` -- expanded
into a deterministic job list.  ``--engine process --workers W`` fans
jobs out over a process pool; because each job's seed derives from
``(master seed, job key)``, the results are identical to ``--engine
serial``.  ``--run-dir DIR`` streams one JSONL record per completed job
and makes the sweep resumable: re-running against the same directory
executes only the jobs not yet recorded.

python -m repro run 2,3 --model clique --task leader
python -m repro sweep --n 5 --models blackboard clique
python -m repro sweep --shapes 2,3 1,2,2 --kind sample --t 4 \\
    --engine process --workers 4 --run-dir runs/demo

``phase-diagram``, ``experiments``, and ``report`` accept the same
``--engine``/``--workers`` flags and route through the runner, so the
existing commands parallelize for free (``--engine serial`` remains the
default and reproduces the historical behaviour exactly).

The results warehouse
---------------------
Sweeps with a ``--run-dir`` feed a columnar results warehouse
(``repro.results``, default ``<run_dir>/warehouse``, override with
``--warehouse``): completed records ingest incrementally into typed
numpy column pages, and the warehouse's cross-run query memo lets any
later sweep -- same run dir or not -- skip every (chain, task, horizon,
quantity) cell it has already answered, byte-identically.  Monte-Carlo
cells participate too: sampled sweeps and ``repro estimate`` memoize
integer success counts per fixed substream block, so warm reruns serve
whole cells from the memo and a larger sample budget computes only the
increment, merged with the stored blocks into one combined estimate
(``RUNNER.md``, "Monte-Carlo substreams and the merge law").  ``repro
results`` serves the stored tables:

python -m repro results stats runs/demo
python -m repro results query runs/demo --where model=clique \\
    --group-by task --agg count --agg mean:elapsed
python -m repro results export runs/demo --format csv -o records.csv
python -m repro results compact runs/demo

See ``STORE.md`` for the on-disk layout and the memo key scheme.

Observability
-------------
``repro trace <command ...>`` runs any command with span tracing on and
prints a span tree (calls, total, self time) when it finishes;
``--trace`` is the flag spelling of the same thing.  ``--profile-out
FILE`` on ``sweep``/``phase-diagram``/``report`` writes the full JSON
profile (spans, metrics, aggregates; validate it with ``python -m
repro.obs.schema FILE``).  ``repro metrics show`` prints the collected
counters/gauges/histograms (histograms with p50/p90/p99 summaries);
sweeps with a warehouse persist the same rows into a ``telemetry``
table served by ``repro results query --table telemetry``.  Across
runs, ``repro metrics history`` trends those rows, ``repro obs
diff``/``tiers`` compare sweeps and attribute wall-clock.  See
``OBS.md`` for the instrumentation map and "From telemetry to
decisions".
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
from dataclasses import replace
from typing import TYPE_CHECKING, Sequence

# Module level stays stdlib plus repro.context: starting the CLI loads
# no tier; ``main`` imports the chosen command's module.
from .context import (
    BACKENDS,
    ENGINE_NAMES,
    KINDS,
    MODELS,
    PORT_KINDS,
    current,
    use,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .core.tasks import SymmetryBreakingTask
    from .models import PortAssignment
    from .runner.engines import ExecutionEngine


def _parse_sizes(text: str) -> tuple[int, ...]:
    from .runner.spec import parse_sizes

    try:
        return parse_sizes(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _make_task(spec: str, n: int) -> "SymmetryBreakingTask":
    """Parse a task spec like ``leader``, ``k-leader:2``, ``teams:2,3``."""
    from .runner.spec import make_task

    try:
        return make_task(spec, n)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _make_ports(
    kind: str, sizes: tuple[int, ...], seed: int
) -> "PortAssignment":
    from .runner.spec import make_ports

    try:
        ports = make_ports(kind, sizes, seed)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if ports is None:
        raise argparse.ArgumentTypeError(f"unknown ports {kind!r}")
    return ports


def _add_engine_args(p) -> None:
    p.add_argument(
        "--engine",
        choices=ENGINE_NAMES,
        default="serial",
        help="execution engine (default: serial)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for --engine process (default: cpu count)",
    )


#: Port kinds a user can ask for ("none" is the internal blackboard marker).
_CLI_PORT_KINDS = tuple(k for k in PORT_KINDS if k != "none")


def _engine_from(args) -> "ExecutionEngine":
    from .runner.engines import make_engine

    try:
        return make_engine(args.engine, workers=args.workers)
    except ValueError as exc:
        raise SystemExit(f"{args.command}: {exc}")


def _add_backend_arg(p) -> None:
    p.add_argument(
        "--backend",
        choices=BACKENDS,
        default="exact",
        help=(
            "chain arithmetic: exact Fractions (default) or numpy "
            "float64 (large state spaces / long horizons)"
        ),
    )


def _add_warehouse_args(p) -> None:
    p.add_argument(
        "--warehouse",
        default=None,
        help=(
            "columnar results warehouse to serve and feed (default: "
            "<run-dir>/warehouse when --run-dir is given; point several "
            "sweeps at one directory to share the cross-run query memo)"
        ),
    )
    p.add_argument(
        "--no-warehouse",
        action="store_true",
        help="disable warehouse ingestion and the cross-run query memo",
    )


def _add_profile_arg(p) -> None:
    p.add_argument(
        "--profile-out",
        default=None,
        metavar="FILE",
        help=(
            "write a JSON telemetry profile (spans, metrics, aggregates) "
            "here when the command finishes; implies tracing.  Validate "
            "with `python -m repro.obs.schema FILE`"
        ),
    )


def _add_quotient_arg(p) -> None:
    p.add_argument(
        "--quotient",
        action=argparse.BooleanOptionalAction,
        default=None,
        help=(
            "compile chains modulo the configuration's automorphism "
            "group (orbit states; default: auto -- quotient whenever "
            "the group is nontrivial.  --no-quotient forces full "
            "chains; exact start-state results are byte-identical "
            "either way)"
        ),
    )


def _add_progress_args(p) -> None:
    """Install ``--progress`` and the stall-watchdog knobs."""
    p.add_argument(
        "--progress",
        action="store_true",
        help=(
            "stream per-job progress to stderr; with a run directory, "
            "also write progress.jsonl and per-worker heartbeats there "
            "(tail with `repro obs tail RUN_DIR`)"
        ),
    )
    p.add_argument(
        "--stall-deadline",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help=(
            "--progress: flag a worker whose last heartbeat is older "
            "than this (default 30)"
        ),
    )
    p.add_argument(
        "--stall-action",
        choices=("warn", "cancel"),
        default="warn",
        help=(
            "--progress: what the stall watchdog does -- warn on "
            "stderr, or cancel the pool and resubmit the unfinished "
            "jobs (default warn)"
        ),
    )


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'The Topology of Randomized Symmetry-Breaking "
            "Distributed Computing' (PODC 2021)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_task=True):
        p.add_argument("sizes", type=_parse_sizes, help="group sizes, e.g. 2,3")
        p.add_argument("--model", choices=MODELS, default="blackboard")
        p.add_argument(
            "--ports",
            choices=_CLI_PORT_KINDS,
            default="adversarial",
            help="port assignment for --model clique",
        )
        p.add_argument("--seed", type=int, default=0)
        if with_task:
            p.add_argument(
                "--task",
                default="leader",
                help=(
                    "leader | k-leader:K | weak-sb | unique-ids | deputy | "
                    "threshold:LO,HI | teams:S1,S2,..."
                ),
            )

    p = sub.add_parser("solve", help="decide eventual solvability")
    add_common(p)
    _add_backend_arg(p)
    _add_quotient_arg(p)
    p.set_defaults(module="queries")

    p = sub.add_parser("series", help="exact Pr[S(t)] series")
    add_common(p)
    _add_backend_arg(p)
    _add_quotient_arg(p)
    p.add_argument("--t-max", type=int, default=8)
    p.set_defaults(module="queries")

    p = sub.add_parser("expected-time", help="exact expected solving time")
    add_common(p)
    _add_backend_arg(p)
    _add_quotient_arg(p)
    p.set_defaults(module="queries")

    p = sub.add_parser("phase-diagram", help="sweep all shapes of n")
    p.add_argument("n", type=int)
    p.add_argument("--task", default="leader")
    p.add_argument(
        "--run-dir", default=None, help="JSONL run directory (resumable)"
    )
    _add_engine_args(p)
    _add_quotient_arg(p)
    _add_warehouse_args(p)
    _add_profile_arg(p)
    _add_progress_args(p)
    p.set_defaults(module="runs")

    p = sub.add_parser("protocol", help="run an election protocol")
    add_common(p, with_task=False)
    p.add_argument("--k", type=int, default=1, help="number of leaders")
    p.add_argument("--max-rounds", type=int, default=96)
    p.set_defaults(module="queries")

    p = sub.add_parser("figures", help="render Figures 1-3 as text")
    p.set_defaults(module="reports")

    p = sub.add_parser("experiments", help="run reproduction experiments")
    p.add_argument("ids", nargs="*", help="experiment ids (default: all)")
    _add_engine_args(p)
    _add_quotient_arg(p)
    p.set_defaults(module="reports")

    p = sub.add_parser(
        "run", help="execute one runner job and print its JSON record"
    )
    p.add_argument("sizes", type=_parse_sizes, help="group sizes, e.g. 2,3")
    p.add_argument(
        "--model", choices=MODELS, default="blackboard"
    )
    p.add_argument(
        "--ports",
        choices=_CLI_PORT_KINDS,
        default="adversarial",
        help="port assignment for --model clique",
    )
    p.add_argument(
        "--task",
        default="leader",
        help=(
            "leader | k-leader:K | weak-sb | unique-ids | deputy | "
            "threshold:LO,HI | teams:S1,S2,..."
        ),
    )
    p.add_argument("--kind", choices=KINDS, default="exact")
    p.add_argument("--t", type=int, default=4, help="horizon for --kind sample")
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--replicate", type=int, default=0)
    p.add_argument("--master-seed", type=int, default=0)
    _add_quotient_arg(p)
    _add_warehouse_args(p)
    _add_progress_args(p)
    p.set_defaults(module="runs")

    p = sub.add_parser(
        "estimate",
        help="Monte-Carlo Pr[S(t)] estimate (mergeable memoized substreams)",
    )
    add_common(p)
    p.add_argument("--t", type=int, default=4, help="horizon")
    p.add_argument(
        "--samples",
        type=int,
        default=2000,
        help="one-shot sample budget (superseded by --target-width)",
    )
    p.add_argument(
        "--target-width",
        type=float,
        default=None,
        help=(
            "adaptive mode: extend the substream until the Wilson "
            "interval is at most this wide (or --max-samples is hit)"
        ),
    )
    p.add_argument("--confidence", type=float, default=0.95)
    p.add_argument(
        "--increment",
        type=int,
        default=1000,
        help="adaptive top-up size (one memoizable block by default)",
    )
    p.add_argument("--max-samples", type=int, default=64000)
    p.add_argument(
        "--method",
        choices=("auto", "bits", "scalar"),
        default="auto",
        help=(
            "batch solver: bit-level knowledge partitions (auto/bits) "
            "or the per-trajectory oracle loop (scalar)"
        ),
    )
    _add_warehouse_args(p)
    p.set_defaults(module="runs")

    p = sub.add_parser(
        "sweep", help="expand and execute a sweep (parallel, resumable)"
    )
    p.add_argument("--n", type=int, help="sweep every size shape of n")
    p.add_argument(
        "--shapes",
        type=_parse_sizes,
        nargs="+",
        help="explicit size shapes, e.g. --shapes 2,3 1,2,2",
    )
    p.add_argument(
        "--models",
        nargs="+",
        choices=MODELS,
        default=MODELS,
    )
    p.add_argument(
        "--ports",
        nargs="+",
        choices=_CLI_PORT_KINDS,
        default=("adversarial",),
    )
    p.add_argument(
        "--tasks",
        nargs="+",
        default=("leader",),
        help="task specs (see --task on solve)",
    )
    p.add_argument("--kind", choices=KINDS, default="exact")
    p.add_argument("--t", type=int, default=4, help="horizon for --kind sample")
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument(
        "--replicates", type=int, default=1, help="independent repetitions"
    )
    p.add_argument("--master-seed", type=int, default=0)
    p.add_argument(
        "--run-dir", default=None, help="JSONL run directory (resumable)"
    )
    _add_engine_args(p)
    _add_quotient_arg(p)
    _add_warehouse_args(p)
    _add_profile_arg(p)
    _add_progress_args(p)
    p.set_defaults(module="runs")

    p = sub.add_parser(
        "graphs", help="anonymous-graph worst-case analysis (k=1 slice)"
    )
    p.add_argument(
        "graph",
        help="ring:N | path:N | star:N | clique:N | bipartite:M,N",
    )
    p.add_argument("--labeling-limit", type=int, default=1 << 16)
    p.set_defaults(module="queries")

    p = sub.add_parser(
        "mermaid", help="refinement lattice as a mermaid state diagram"
    )
    add_common(p)
    p.add_argument("--max-states", type=int, default=64)
    p.set_defaults(module="queries")

    p = sub.add_parser(
        "chains",
        help="list/inspect/prune a chain disk cache",
    )
    p.add_argument("action", choices=("list", "inspect", "prune"))
    p.add_argument(
        "directory",
        help="cache directory (or a run directory containing chains/)",
    )
    p.add_argument(
        "--max-bytes", type=int, default=None,
        help="prune: evict LRU chains until the cache fits this many bytes",
    )
    p.add_argument(
        "--max-entries", type=int, default=None,
        help="prune: evict LRU chains down to this many files",
    )
    p.add_argument(
        "--all", action="store_true", help="prune: remove every cached chain"
    )
    p.set_defaults(module="store")

    p = sub.add_parser(
        "results",
        help="query/export/stats/compact/ingest/vacuum a results warehouse",
    )
    p.add_argument(
        "action",
        choices=("query", "export", "stats", "compact", "ingest", "vacuum"),
    )
    p.add_argument(
        "directory",
        help="warehouse directory (or a run directory containing warehouse/)",
    )
    p.add_argument(
        "run_dirs",
        nargs="*",
        help=(
            "ingest: run directories whose records.jsonl to ingest; "
            "vacuum: run directories to delete once fully ingested"
        ),
    )
    p.add_argument(
        "--table",
        default="records",
        help=(
            "table to read (records | experiments | telemetry, or any "
            "other table the warehouse holds; default records)"
        ),
    )
    p.add_argument(
        "--where",
        action="append",
        metavar="COL[OP]VALUE",
        help="filter clause, e.g. model=clique or gcd>=2 (repeatable, ANDed)",
    )
    p.add_argument(
        "--group-by",
        action="append",
        metavar="COLS",
        help="group by comma-separated key columns",
    )
    p.add_argument(
        "--agg",
        action="append",
        metavar="FN[:COL]",
        help=(
            "aggregate for --group-by: count, or sum/mean/min/max/any/all"
            ":column (repeatable; default count)"
        ),
    )
    p.add_argument(
        "--columns", action="append", metavar="COLS",
        help="project to comma-separated columns",
    )
    p.add_argument(
        "--sort-by", action="append", metavar="COLS",
        help="sort rows by comma-separated columns",
    )
    p.add_argument("--limit", type=int, default=None, help="keep first N rows")
    p.add_argument(
        "--format", choices=("csv", "json"), default="csv",
        help="export format (default csv)",
    )
    p.add_argument(
        "-o", "--output", default=None,
        help="export: write here instead of stdout",
    )
    p.set_defaults(module="store")

    p = sub.add_parser(
        "report", help="run all experiments and write JSON/CSV/Markdown"
    )
    p.add_argument("output", help="output directory")
    _add_engine_args(p)
    _add_quotient_arg(p)
    _add_warehouse_args(p)
    _add_profile_arg(p)
    _add_progress_args(p)
    p.set_defaults(module="reports")

    p = sub.add_parser(
        "obs",
        help=(
            "telemetry analytics (diff sweeps, tier attribution) and "
            "live-run inspection (tail progress, worker top)"
        ),
    )
    p.add_argument("action", choices=("diff", "tiers", "tail", "top"))
    p.add_argument(
        "directory",
        help=(
            "diff/tiers: warehouse directory (or a run directory "
            "containing warehouse/); tail/top: a live run directory"
        ),
    )
    p.add_argument(
        "--a", type=float, default=None, metavar="STAMP",
        help="diff: baseline sweep stamp (default: second-most-recent)",
    )
    p.add_argument(
        "--b", type=float, default=None, metavar="STAMP",
        help="diff: comparison sweep stamp (default: most recent)",
    )
    p.add_argument(
        "--stamps", type=float, nargs=2, default=None,
        metavar=("A", "B"),
        help="diff: the two sweep stamps to compare (same as --a A --b B)",
    )
    p.add_argument(
        "--stamp", type=float, default=None,
        help="tiers: sweep stamp to attribute (default: most recent)",
    )
    p.add_argument(
        "--follow", action="store_true",
        help="tail: keep polling until the run's end event arrives",
    )
    p.add_argument(
        "--poll", type=float, default=1.0,
        help="tail --follow: poll interval in seconds (default 1)",
    )
    p.set_defaults(module="store")

    p = sub.add_parser(
        "metrics", help="show/export collected telemetry; cross-run history"
    )
    p.add_argument("action", choices=("show", "export", "history"))
    p.add_argument(
        "--kind",
        choices=("counter", "gauge", "hist", "span", "span.self"),
        default=None,
        help="history: only this telemetry kind",
    )
    p.add_argument(
        "--name",
        default=None,
        help="history: only metric names containing this substring",
    )
    p.add_argument(
        "--master-seed",
        type=int,
        default=None,
        help="history: only sweeps run under this master seed",
    )
    p.add_argument(
        "--chains",
        default=None,
        metavar="DIR",
        help=(
            "publish this chain cache's load-count gauges first "
            "(cache directory or a run directory containing chains/)"
        ),
    )
    p.add_argument(
        "--warehouse",
        default=None,
        metavar="DIR",
        help=(
            "fold in this warehouse's persisted telemetry table "
            "(warehouse directory or a run directory containing "
            "warehouse/)"
        ),
    )
    p.add_argument(
        "-o", "--output", default=None,
        help="export: write JSON here instead of stdout",
    )
    p.set_defaults(module="store")

    return parser


def _record_startup(tracer, ready: float) -> None:
    """Record the process's start-up -- imports, argument parsing and
    the command module's import -- as one finished ``startup`` span,
    from the top of ``repro/__init__`` to ``ready``."""
    from . import _STARTED
    from .obs.trace import Span

    span = Span("startup")
    span.started = _STARTED
    span.duration = ready - _STARTED
    tracer.adopt([span])


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # `repro trace <command ...>` and a bare `--trace` anywhere are
    # handled before argparse so every subcommand gets them for free.
    traced = False
    if argv and argv[0] == "trace":
        argv = argv[1:]
        traced = True
        if not argv:
            print("usage: repro trace <command> [args ...]", file=sys.stderr)
            return 2
    if "--trace" in argv:
        argv = [token for token in argv if token != "--trace"]
        traced = True
    parser = build_parser()
    args = parser.parse_args(argv)
    profile_out = getattr(args, "profile_out", None)
    # Tracing is ORed onto the inherited flag: a caller that turned it
    # on before ``main`` keeps it on.
    changes = {"trace": current().trace or traced or bool(profile_out)}
    if hasattr(args, "quotient"):
        # Tri-state: the flag absent means "auto" (quotient whenever
        # the configuration's automorphism group is nontrivial); pool
        # payloads carry the context into workers.
        changes["quotient"] = (
            "auto" if args.quotient is None
            else "on" if args.quotient else "off"
        )
    with use(replace(current(), **changes)):
        module = importlib.import_module(f"repro.commands.{args.module}")
        command = getattr(module, "cmd_" + args.command.replace("-", "_"))
        from .obs import OBS, trace

        if OBS.enabled:
            ready = time.perf_counter()
            with trace(f"repro.{args.command}"):
                status = command(args)
            # Recorded once the command is done: a serial sweep drains
            # and re-adopts the finished spans under its own.
            _record_startup(OBS.tracer, ready)
        else:
            status = command(args)
        if profile_out:
            import json

            from .obs import build_profile

            document = build_profile(command=args.command, argv=tuple(argv))
            with open(profile_out, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"wrote profile to {profile_out}")
        if traced:
            from .obs import render_span_tree

            print()
            print(render_span_tree())
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
