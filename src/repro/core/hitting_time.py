"""Exact expected time-to-solve, via the compiled consistency chain.

The paper characterizes *whether* ``lim Pr[S(t)|alpha] = 1``; the partition
Markov chain also yields *how fast*: the expected number of rounds until
the consistency partition first solves the task (the expected hitting time
of the solving set).  Because transitions only refine the partition, the
chain is acyclic up to self-loops and the standard first-step equations
solve in one reverse-topological pass over the compiled chain's sparse
transition arrays, exactly, over ``Fraction``:

    E[s] = 0                                   if s solves the task
    E[s] = (1 + sum_{s' != s} P(s->s') E[s']) / (1 - P(s->s))   otherwise

The expectation is finite iff eventual solvability holds from every
reachable non-solving state that matters; when the task is not eventually
solvable the function returns ``None`` (infinite expectation).

This quantifies, e.g., how much harder leader election gets as sources are
shared: independent pairs solve in expected 2 rounds, while configuration
``(1, 2, 2)`` needs 8/3 rounds of knowledge exchange before some node's
knowledge is unique.

Every function accepts either the :class:`ConsistencyChain` facade or a
raw :class:`~repro.chain.engine.CompiledChain`, and asks its questions
through :func:`~repro.chain.run_queries`; only the per-state diagnostic
table reads the exact hitting-time kernel directly.
"""

from __future__ import annotations

from fractions import Fraction

from ..chain import CompiledChain, Query, run_queries
from ..chain.backends import expected_exact
from .markov import ConsistencyChain
from .tasks import SymmetryBreakingTask


def _compiled(chain: "ConsistencyChain | CompiledChain") -> CompiledChain:
    """Accept the facade or the engine object alike."""
    if isinstance(chain, ConsistencyChain):
        return chain.compiled
    return chain


def expected_solving_time(
    chain: "ConsistencyChain | CompiledChain", task: SymmetryBreakingTask
) -> Fraction | None:
    """Exact expected rounds until the partition first solves ``task``.

    Returns ``None`` when the task is not eventually solvable under the
    chain's configuration (the expectation is infinite).  Note this counts
    rounds until the *global state* solves the task (Definition 3.4); real
    protocols need one extra round to turn the state into outputs, since
    the partition becomes common knowledge with a one-round lag.
    """
    return run_queries(_compiled(chain), [Query.expected_time(task)])[0]


def expected_time_table(
    chain: "ConsistencyChain | CompiledChain", task: SymmetryBreakingTask
) -> dict:
    """Expected remaining time from every reachable state (diagnostics).

    States from which the task is unreachable map to ``None``.
    """
    compiled = _compiled(chain)
    times = expected_exact(compiled, compiled.solvable_mask(task))
    return {
        compiled.partition_of(sid): times[sid]
        for sid in range(compiled.num_states)
    }


def solving_time_distribution(
    chain: "ConsistencyChain | CompiledChain",
    task: SymmetryBreakingTask,
    t_max: int,
) -> list[Fraction]:
    """Exact ``Pr[T = t]`` for ``t = 1..t_max``.

    ``T`` is the first time the global state solves the task; by
    monotonicity ``Pr[T = t] = Pr[S(t)] - Pr[S(t-1)]``.  The remaining mass
    ``1 - Pr[S(t_max)]`` covers both later solves and (for non-eventually-
    solvable configurations) the never-solving event.
    """
    series = run_queries(_compiled(chain), [Query.series(task, t_max)])[0]
    previous = Fraction(0)
    distribution = []
    for prob in series:
        distribution.append(prob - previous)
        previous = prob
    return distribution


def solving_time_quantile(
    chain: "ConsistencyChain | CompiledChain",
    task: SymmetryBreakingTask,
    q: Fraction | float,
    *,
    t_cap: int = 512,
) -> int | None:
    """Smallest ``t`` with ``Pr[S(t)] >= q`` (None if not reached by cap).

    One probability query per horizon, each served from the chain's
    cached distributions, so the scan stops at the answer.
    """
    if not 0 < float(q) <= 1:
        raise ValueError("quantile must be in (0, 1]")
    compiled = _compiled(chain)
    for t in range(1, t_cap + 1):
        if run_queries(compiled, [Query.probability(task, t)])[0] >= q:
            return t
    return None


__all__ = [
    "expected_solving_time",
    "expected_time_table",
    "solving_time_distribution",
    "solving_time_quantile",
]
