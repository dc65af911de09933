"""Observability: span tracing and metrics across the whole stack.

``repro.obs`` is the telemetry substrate for the compute-and-cache
system (compile -> batch -> memo -> warehouse): a
low-overhead **span tracer** (:mod:`repro.obs.trace`), a mergeable
**metrics registry** (:mod:`repro.obs.metrics`), the cross-process
**fold protocol** and profile/rendering helpers
(:mod:`repro.obs.profile`), a freezable **wall clock** for persisted
stamps (:mod:`repro.obs.clock`), and the dependency-free schema
validator for ``--profile-out`` documents (:mod:`repro.obs.schema`).
On top of the collection substrate sits the read-back loop: cross-run
analytics over persisted telemetry (:mod:`repro.obs.analyze`) -- see
OBS.md, "From telemetry to decisions".  Alongside the after-the-fact
profile sits the *in-flight* layer (:mod:`repro.obs.live`, OBS.md "Live
operation"): worker heartbeats with resource gauges
(:mod:`repro.obs.resources`), a streaming ``progress.jsonl`` event log,
and a stall watchdog.

The contract with the hot paths
-------------------------------
Everything hangs off the process-wide :data:`OBS` facade.  Tracing and
metric collection are **off by default**; every instrumentation site in
the chain/runner/results tiers is guarded by a single attribute load
and branch::

    from ..obs import OBS

    if OBS.enabled:
        OBS.metrics.inc("chain.compile.hit.memo")

so a disabled process pays one predictable branch per site (asserted
at <= 2% on the batch-query benchmark by
``benchmarks/bench_obs_overhead.py``).  Enable with
:func:`configure_tracing`, the ``REPRO_TRACE`` environment variable, or
the CLI (``repro trace <command ...>``, ``--trace``,
``--profile-out``).

Telemetry never enters job records: workers attach their drained
snapshot *next to* the record payload, the sweep orchestrator pops and
folds it before records are persisted, and record bytes are identical
with tracing on or off.  This package imports nothing from the rest of
``repro`` at module level but the dependency-free :mod:`repro.context`
(and :mod:`repro._lazy`), so any tier can instrument itself without
import cycles.  See ``OBS.md`` for the instrumentation map.
"""

from __future__ import annotations

import os

from .clock import now
from .metrics import (
    MetricsRegistry,
    bin_edges,
    bin_index,
    histogram_percentiles,
)
from .profile import (
    PROFILE_SCHEMA_VERSION,
    build_profile,
    drain_telemetry,
    merge_telemetry,
    render_span_tree,
    span_aggregates,
    telemetry_rows,
)
from .. import _lazy, context as _context
from . import trace as _trace_module
from .trace import Span, TRACER, Tracer, trace

# The live tier (heartbeats, progress log, watchdog) loads on first use:
# only pooled sweeps and their workers reach it.
__getattr__, __dir__ = _lazy.exports(__name__, {
    ".live": (
        "LIVE",
        "HeartbeatEmitter",
        "LiveConfig",
        "SweepMonitor",
        "monitored_map",
    ),
})


class Observability:
    """The process-wide observability facade (see :data:`OBS`).

    ``enabled`` is a plain attribute -- hot paths read it with one
    attribute load and branch, never a function call.  It mirrors the
    active context's ``trace`` field and is re-synced, together with the
    tracer module's own fast-path flag, whenever a context is entered.
    """

    __slots__ = ("enabled", "tracer", "metrics")

    def __init__(self, tracer: Tracer, metrics: MetricsRegistry):
        self.enabled = False
        self.tracer = tracer
        self.metrics = metrics

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Observability(enabled={self.enabled})"


#: The process-wide facade every instrumentation site reads.
OBS = Observability(TRACER, MetricsRegistry())


def _count_dropped_spans(count: int) -> None:
    """Ring-eviction hook: a full span ring evicting ``count`` finished
    roots increments ``obs.spans.dropped``, so ``repro metrics show``
    flags truncated profiles instead of leaving them silent."""
    OBS.metrics.inc("obs.spans.dropped", count)


TRACER.on_evict = _count_dropped_spans


def _reset_in_forked_child() -> None:
    """Start forked children with clean telemetry state.

    A fork-started pool worker inherits the parent's ring, counters,
    and -- crucially -- the parent's *open* span stack (the sweep forks
    workers while ``sweep.execute`` is in flight).  Left alone, worker
    spans would nest under that ghost copy of the parent's open span
    (never reaching the ring, so never shipped home) and a drain would
    re-report parent-side counters.  The enabled flag is deliberately
    inherited; worker payloads re-sync it anyway.
    """
    OBS.tracer.reset()
    OBS.metrics.reset()


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX only
    os.register_at_fork(after_in_child=_reset_in_forked_child)


def _sync_tracing(context) -> None:
    OBS.enabled = context.trace
    _trace_module._ENABLED = context.trace


_context.on_enter(_sync_tracing)


def configure_tracing(enabled: bool = True) -> bool:
    """Turn tracing on or off in the active context; returns the previous
    state.  (``REPRO_TRACE`` sets the initial value; see RUNNER.md,
    "Execution context".)"""
    return _context.update(trace=bool(enabled)).trace


def reset_telemetry() -> None:
    """Drop all collected spans and metrics (tests, fresh profiles)."""
    OBS.tracer.reset()
    OBS.metrics.reset()


__all__ = [
    "LIVE",
    "OBS",
    "HeartbeatEmitter",
    "LiveConfig",
    "Observability",
    "Span",
    "SweepMonitor",
    "Tracer",
    "MetricsRegistry",
    "PROFILE_SCHEMA_VERSION",
    "bin_edges",
    "bin_index",
    "build_profile",
    "configure_tracing",
    "drain_telemetry",
    "histogram_percentiles",
    "merge_telemetry",
    "monitored_map",
    "now",
    "render_span_tree",
    "reset_telemetry",
    "span_aggregates",
    "telemetry_rows",
    "trace",
]
