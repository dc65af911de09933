"""Dual numerical backends for compiled-chain queries.

Every query :func:`~repro.chain.batch.run_queries` answers on a
:class:`~repro.chain.engine.CompiledChain` is a pass over the same
sparse integer transition structure; what varies is the arithmetic:

* ``exact`` -- ``fractions.Fraction`` throughout.  Transition weights are
  ``count / 2^(k-1)`` with integer counts, so every probability is the
  exact rational the seed implementation produced (sums of Fractions are
  order-independent, hence byte-identical results).
* ``float`` -- numpy ``float64``.  Distributions are dense vectors and a
  round is one dense matrix-vector product or one scatter-add over the
  COO arrays; absorption and hitting times are one reverse-topological
  pass over ``float64``, for a whole batch of task masks at once.  Within
  ~1e-12 of exact for the state-space sizes the engine accepts, and far
  cheaper for long horizons or wide sweeps.

Backends only change representations, never the traversal order: both
rely on states being topologically sorted by block count (refinement
strictly increases the block count except for self-loops).
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..context import BACKENDS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .engine import CompiledChain

#: Density floor for the dense evolution path: a dense matvec does
#: ``states^2`` fused multiply-adds where the scatter-add does ``nnz``
#: un-fused ones, and the per-element gap is roughly this factor's
#: inverse -- below it, the transition structure is too sparse for the
#: dense product to pay for itself.
DENSE_DENSITY_FLOOR = 1.0 / 32.0

#: Chains this small always take the dense path: at these sizes the
#: whole matrix lives in cache and the scatter-add's indexing overhead
#: dominates whatever sparsity would save.
DENSE_ALWAYS_STATES = 64


def transition_density(num_states: int, nnz: int) -> float:
    """``nnz / states^2`` -- the fraction of the dense matrix occupied."""
    if num_states <= 0:
        return 0.0
    return nnz / (num_states * num_states)


def evolution_strategy(num_states: int, nnz: int) -> str:
    """``"dense"`` or ``"scatter"`` for a distribution-evolution pass.

    Chosen from the *measured* transition density rather than the fixed
    state-count threshold alone: :data:`~repro.chain.engine.DENSE_STATE_LIMIT`
    stays as the hard memory cap (a cached dense matrix above it would
    outlive the query), but below the cap the decision follows
    ``nnz / states^2`` -- dense when the structure is dense enough for
    the matvec's fused arithmetic to beat the scatter-add's indexing,
    scatter otherwise.  The two strategies evolve the same distribution,
    so the verdict only moves wall-clock, never results.
    """
    from .engine import DENSE_STATE_LIMIT

    if num_states > DENSE_STATE_LIMIT:
        return "scatter"
    if num_states <= DENSE_ALWAYS_STATES:
        return "dense"
    if transition_density(num_states, nnz) >= DENSE_DENSITY_FLOOR:
        return "dense"
    return "scatter"


def validate_backend(backend: str) -> str:
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend


# ----------------------------------------------------------------------
# Exact (Fraction) kernels
# ----------------------------------------------------------------------
def step_exact(
    chain: "CompiledChain", dist: dict[int, Fraction]
) -> dict[int, Fraction]:
    """One synchronous round applied to a sparse exact distribution."""
    nxt: dict[int, Fraction] = {}
    for sid, prob in dist.items():
        for dst, weight in chain.exact_out_edges(sid):
            step = prob * weight
            have = nxt.get(dst)
            nxt[dst] = step if have is None else have + step
    return nxt


def mass_exact(dist: dict[int, Fraction], mask: Sequence[bool]) -> Fraction:
    """Total probability of the masked states."""
    return sum(
        (prob for sid, prob in dist.items() if mask[sid]), Fraction(0)
    )


def series_exact(
    chain: "CompiledChain", mask: Sequence[bool], t_max: int
) -> list[Fraction]:
    """``[Pr[S(1)], ..., Pr[S(t_max)]]`` over the cached distributions.

    Horizons past the chain's distribution-cache cap stream one
    transient step at a time (still exact, still linear in ``t_max``)
    instead of re-stepping from the last cached entry per horizon.
    """
    cap = chain.distribution_cache_cap
    cached_until = min(t_max, cap - 1)
    series = [
        mass_exact(chain.cached_distribution_exact(t), mask)
        for t in range(1, cached_until + 1)
    ]
    if t_max > cached_until:
        dist = chain.cached_distribution_exact(cached_until)
        for _ in range(cached_until + 1, t_max + 1):
            dist = step_exact(chain, dist)
            series.append(mass_exact(dist, mask))
    return series


def absorption_exact(
    chain: "CompiledChain", mask: Sequence[bool]
) -> list[Fraction]:
    """Per-state probability of ever hitting the masked (solving) set.

    Solvability is monotone under refinement, so hitting the set equals
    absorption.  States arrive topologically sorted by block count, so a
    single reverse pass solves the first-step equations exactly.
    """
    probs: list[Fraction] = [Fraction(0)] * chain.num_states
    for sid in range(chain.num_states - 1, -1, -1):
        if mask[sid]:
            probs[sid] = Fraction(1)
            continue
        self_weight = Fraction(0)
        total = Fraction(0)
        for dst, weight in chain.exact_out_edges(sid):
            if dst == sid:
                self_weight = weight
            else:
                total += weight * probs[dst]
        if self_weight == 1:
            probs[sid] = Fraction(0)
        else:
            probs[sid] = total / (1 - self_weight)
    return probs


def expected_exact(
    chain: "CompiledChain", mask: Sequence[bool]
) -> list[Fraction | None]:
    """Per-state exact expected rounds to first hit the masked set.

    ``None`` marks states from which the set is not reached almost
    surely (infinite expectation).
    """
    expected: list[Fraction | None] = [None] * chain.num_states
    for sid in range(chain.num_states - 1, -1, -1):
        if mask[sid]:
            expected[sid] = Fraction(0)
            continue
        self_weight = Fraction(0)
        total = Fraction(1)
        feasible = True
        for dst, weight in chain.exact_out_edges(sid):
            if dst == sid:
                self_weight = weight
                continue
            sub = expected[dst]
            if sub is None:
                feasible = False
                break
            total += weight * sub
        if not feasible or self_weight == 1:
            expected[sid] = None
        else:
            expected[sid] = total / (1 - self_weight)
    return expected


# ----------------------------------------------------------------------
# Float (numpy) kernels
# ----------------------------------------------------------------------
def _self_loop_weights(chain: "CompiledChain") -> np.ndarray:
    """Per-state self-loop weight as float64 (exact: powers of two)."""
    src, dst, weight = chain.coo()
    self_w = np.zeros(chain.num_states)
    loops = src == dst
    self_w[src[loops]] = weight[loops]
    return self_w


def _reverse_level_sweep(
    chain: "CompiledChain",
    masks: np.ndarray,
    *,
    accumulator_init: float,
    masked_value: float,
    absorbing_value: float,
) -> np.ndarray:
    """The shared first-step-equation solver over block-count levels.

    States are topologically sorted by block count and refinement edges
    never stay inside a level except as self-loops, so one reverse pass
    over the ``O(n)`` levels solves ``x[s] = (init + sum_{s' != s}
    P(s->s') x[s']) / (1 - P(s->s))`` for every mask row at once --
    ``masks`` is ``(Q, S)`` boolean, the result ``(Q, S)`` float64.
    Masked states take ``masked_value``; pure non-masked self-loops
    (``P(s->s) = 1``) take ``absorbing_value``.  Absorption uses
    ``(init=0, masked=1, absorbing=0)``; expected hitting time uses
    ``(init=1, masked=0, absorbing=inf)``, where ``inf`` propagates
    through the recurrence exactly like :func:`expected_exact`'s ``None``
    (every stored edge weight is positive, so ``0 * inf`` never arises).
    """
    masks = np.atleast_2d(np.asarray(masks, dtype=bool))
    src, dst, weight = chain.coo()
    indptr = chain.csr()[0]
    self_w = _self_loop_weights(chain)
    values = np.zeros((masks.shape[0], chain.num_states))
    for start, stop in reversed(chain.levels()):
        lo, hi = int(indptr[start]), int(indptr[stop])
        s, d, w = src[lo:hi], dst[lo:hi], weight[lo:hi]
        cross = s != d
        total = np.full(
            (masks.shape[0], stop - start), accumulator_init
        )
        if cross.any():
            np.add.at(
                total,
                (slice(None), s[cross] - start),
                w[cross] * values[:, d[cross]],
            )
        hold = 1.0 - self_w[start:stop]
        vals = np.divide(
            total,
            hold[None, :],
            out=np.full_like(total, absorbing_value),
            where=hold > 0.0,
        )
        values[:, start:stop] = np.where(
            masks[:, start:stop], masked_value, vals
        )
    return values


def absorption_float_matrix(
    chain: "CompiledChain", masks: np.ndarray
) -> np.ndarray:
    """Per-state hitting probabilities for a *batch* of masks at once.

    One :func:`_reverse_level_sweep`: all ``Q`` mask rows share each
    pass over the transition arrays.
    """
    return _reverse_level_sweep(
        chain,
        masks,
        accumulator_init=0.0,
        masked_value=1.0,
        absorbing_value=0.0,
    )


def expected_float_matrix(
    chain: "CompiledChain", masks: np.ndarray
) -> np.ndarray:
    """Per-state expected hitting times for a batch of masks at once.

    Infinite expectations (the masked set is not reached almost surely)
    come back as ``np.inf``; see :func:`_reverse_level_sweep`.
    """
    return _reverse_level_sweep(
        chain,
        masks,
        accumulator_init=1.0,
        masked_value=0.0,
        absorbing_value=np.inf,
    )


def masses_float_over_time(
    chain: "CompiledChain",
    masks: np.ndarray,
    times: "Sequence[int]",
) -> dict[int, np.ndarray]:
    """Masked masses of the distribution at each requested time.

    One evolution to ``max(times)`` shared by every ``(mask, t)`` pair:
    ``masks`` is ``(Q, S)`` boolean and the result maps each requested
    ``t`` to the ``(Q,)`` vector of per-mask masses.  Dense-enough
    chains step with a dense matrix-vector product; sparse ones with one
    scatter-add over the COO arrays per round (the verdict is
    :func:`evolution_strategy`).
    """
    wanted = sorted(set(int(t) for t in times))
    if wanted and wanted[0] < 0:
        raise ValueError("need t >= 0")
    mask_matrix = np.atleast_2d(np.asarray(masks, dtype=bool)).astype(
        np.float64
    )
    dist = np.zeros(chain.num_states)
    dist[chain.start] = 1.0
    out: dict[int, np.ndarray] = {}
    if wanted and wanted[0] == 0:
        out[0] = mask_matrix @ dist
    remaining = set(wanted)
    dense = None
    if evolution_strategy(chain.num_states, chain.num_transitions) == "dense":
        dense = chain.dense_transition_matrix()
    if dense is None:
        src, dst, weight = chain.coo()
    for t in range(1, (wanted[-1] if wanted else 0) + 1):
        if dense is not None:
            dist = dist @ dense
        else:
            nxt = np.zeros(chain.num_states)
            np.add.at(nxt, dst, dist[src] * weight)
            dist = nxt
        if t in remaining:
            out[t] = mask_matrix @ dist
    return out


__all__ = [
    "BACKENDS",
    "DENSE_ALWAYS_STATES",
    "DENSE_DENSITY_FLOOR",
    "absorption_exact",
    "absorption_float_matrix",
    "evolution_strategy",
    "expected_exact",
    "expected_float_matrix",
    "mass_exact",
    "masses_float_over_time",
    "series_exact",
    "step_exact",
    "transition_density",
    "validate_backend",
]
