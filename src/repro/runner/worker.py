"""Job execution functions, safe to ship into worker processes.

Everything here is a module-level function taking one JSON-ish payload
dict and returning one JSON-ish record dict, so ``ProcessPoolExecutor``
can pickle the callable by reference and the arguments by value.  The
payload carries the sweep's master seed; the job's private seed is
re-derived *inside* the worker from ``(master_seed, job_key)``, so the
result cannot depend on which worker ran the job or in what order.

Every payload also carries the producer's execution context under
``"context"`` (:class:`repro.context.Context`: quotient mode, tracing,
chain cache, results memo, heartbeats); each entry point
runs under ``with use(payload["context"])``, so a worker computes
exactly as its parent would and no job's context outlives the job.

Imports of :mod:`repro.analysis` stay inside function bodies: the
analysis package grows runner-backed parallel paths of its own, and
module-level imports in either direction would be circular.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from ..chain import CompiledChain, Query, compile_chain, run_queries

# ``compile_chain`` imports these on first use; importing them with the
# worker module loads them in the parent before a pool forks, so the
# workers do not each pay for them.
from ..chain import cache as _cache, quotient as _quotient  # noqa: F401
from ..context import use
from ..core.tasks import SymmetryBreakingTask
from ..obs import LIVE, OBS, drain_telemetry, trace
from ..randomness.configuration import RandomnessConfiguration
from ..sampling import sample_cell
from .spec import RunSpec, derive_seed, make_ports, make_task


def exact_limit_value(
    chain: CompiledChain, task: SymmetryBreakingTask
) -> Fraction:
    """The one exact chain evaluation the per-job exact runs share.

    Routing the runs through one helper over the batched query layer
    keeps the evaluation semantics (and any future instrumentation) in
    one place.
    """
    return run_queries(chain, [Query.limit(task)])[0]


#: Structural chain digests by deterministic job family: the digest is
#: a pure function of ``(sizes, port kind)`` for non-random ports, and
#: hashing the structural key (neighbour tables) per job would otherwise
#: dominate a fully memo-served sweep.
_FAMILY_DIGESTS: dict[tuple, str] = {}


def _memoized_exact_limit(spec: RunSpec, alpha, ports) -> "Fraction | None":
    """The job's exact limit straight from the cross-run memo, or ``None``.

    The memo key needs only the chain's *effective* key -- the
    structural key plus the quotient tag the configured quotient mode
    would compile under, computable from ``(alpha, ports)`` without
    compiling -- so a warm cell skips chain compilation entirely, not
    just the evolution pass.  The token is the very one
    :func:`repro.chain.run_queries` records under (``compile_chain``
    keys the chain by the same effective key), so worker-level hits and
    query-level recording always agree.
    """
    from ..chain import effective_chain_key, quotient_mode
    from ..chain.cache import key_digest
    from ..results.memo import MISS, query_memo, query_token

    memo = query_memo()
    if memo is None:
        return None
    if spec.ports == "random":
        digest = key_digest(effective_chain_key(alpha, ports))
    else:
        # Pool workers outlive sweeps: the quotient mode is part of the
        # family key so a mode flip never serves a stale digest.
        family = (spec.sizes, spec.ports, quotient_mode())
        digest = _FAMILY_DIGESTS.get(family)
        if digest is None:
            digest = key_digest(effective_chain_key(alpha, ports))
            _FAMILY_DIGESTS[family] = digest
    task = make_task(spec.task, alpha.n)
    token = query_token(digest, "limit", task, None, "exact")
    hit = memo.lookup(token)
    return None if hit is MISS else hit


def _in_payload_context(execute):
    """Run a worker entry point under its payload's ``"context"``."""

    @functools.wraps(execute)
    def run(payload: dict) -> dict:
        with use(payload["context"]):
            return execute(payload)

    return run


@_in_payload_context
def execute_run(payload: dict) -> dict:
    """Execute one :class:`~repro.runner.spec.RunSpec` job.

    ``payload`` is ``{"spec": <RunSpec dict>, "master_seed": int,
    "index": int, "context": Context}``; the result record echoes the
    spec, its key and index (aggregation order), the derived seed, and
    the job's value fields.
    """
    spec = RunSpec.from_dict(payload["spec"])
    master_seed = int(payload.get("master_seed", 0))
    seed = derive_seed(master_seed, spec.job_key)
    if LIVE.emitter is not None:
        LIVE.emitter.job_started(f"job:{spec.kind}")
    value: dict
    with trace("runner.job", key=spec.job_key, kind=spec.kind) as timer:
        alpha = RandomnessConfiguration.from_group_sizes(spec.sizes)
        task = make_task(spec.task, alpha.n)
        # Random ports and Monte-Carlo sampling get *disjoint* streams
        # split off the job seed; sharing one seed would correlate the
        # sampled realizations with the randomly drawn port assignment.
        ports = make_ports(spec.ports, spec.sizes,
                           derive_seed(seed, "ports"))
        if spec.kind == "exact":
            limit = _memoized_exact_limit(spec, alpha, ports)
            if limit is None:
                with trace("job.compile"):
                    chain = compile_chain(alpha, ports)
                with trace("job.evolve"):
                    limit = exact_limit_value(chain, task)
            value = {
                "limit": str(limit),
                "limit_float": float(limit),
                "solvable": limit == 1,
            }
        else:  # sample
            # The substream is keyed by the spec's *stream key* -- the
            # cell axes minus samples/task/t -- so a rerun at a larger
            # budget extends (and memo-merges with) this run's blocks,
            # and cells differing only in task or horizon share trials
            # (common random numbers).  Random ports draw from the same
            # stream-stable root for the same reason: the cell identity
            # must not change when only the budget does.
            stream = derive_seed(master_seed, "mc\x1f" + spec.stream_key)
            if spec.ports == "random":
                ports = make_ports(spec.ports, spec.sizes,
                                   derive_seed(stream, "ports"))
            with trace("job.sample", samples=spec.samples):
                estimate = sample_cell(
                    alpha,
                    task,
                    spec.t,
                    ports,
                    stream_seed=stream,
                    samples=spec.samples,
                )
            value = {
                "estimate": estimate.probability,
                "successes": estimate.successes,
                "samples": estimate.samples,
            }
    record = {
        "key": spec.job_key,
        "index": int(payload.get("index", 0)),
        "spec": spec.to_dict(),
        "seed": seed,
        "gcd": alpha.gcd,
        "value": value,
        "elapsed": timer.duration,
    }
    if LIVE.emitter is not None:
        LIVE.emitter.job_finished()
    if OBS.enabled:
        OBS.metrics.inc("runner.jobs")
        # Telemetry rides *next to* the record fields under a key the
        # sweep orchestrator pops before persistence -- record bytes
        # stay identical with tracing on or off.
        record["telemetry"] = drain_telemetry()
    return record


@_in_payload_context
def execute_experiment(payload: dict) -> dict:
    """Run one registered experiment generator by registry index.

    ``payload`` is ``{"index": int}`` into ``ALL_EXPERIMENTS`` plus the
    ``"context"``; the record
    carries the :class:`~repro.analysis.result.ExperimentResult` *object*
    (pickled across the pool boundary), so row cells keep their native
    types -- ``run_all_experiments`` returns identical results whatever
    the engine.
    """
    from ..analysis import ALL_EXPERIMENTS

    index = int(payload["index"])
    with trace("runner.experiment", index=index) as timer:
        result = ALL_EXPERIMENTS[index]()
    record = {
        "index": index,
        "result": result,
        "elapsed": timer.duration,
    }
    if OBS.enabled:
        OBS.metrics.inc("runner.experiments")
        # Telemetry rides next to the live result object; the parent
        # (``iter_all_experiments``) pops and folds it, so experiment
        # results stay identical with tracing on or off.
        record["telemetry"] = drain_telemetry()
    return record


@_in_payload_context
def execute_port_chunk(payload: dict) -> dict:
    """Evaluate a chunk of port-orbit representatives in a pool worker.

    ``payload`` is ``{"sizes": [...], "tables": [...]}`` plus the
    ``"context"``, where each table is one orbit representative (orbit
    representatives, weighted: the parent holds the weights and folds).
    The record carries one ``(limit, symmetric)`` row per representative,
    limits as exact fraction strings -- the same rows
    :func:`repro.analysis.worst_case_search.representative_rows` computes
    in-process.
    """
    from ..analysis.worst_case_search import representative_rows

    return {
        "rows": representative_rows(
            tuple(payload["sizes"]), payload["tables"]
        )
    }


__all__ = [
    "exact_limit_value",
    "execute_experiment",
    "execute_port_chunk",
    "execute_run",
]
