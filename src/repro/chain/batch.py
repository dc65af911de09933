"""Query planning and execution over one compiled chain.

:func:`run_queries` is the one route from a compiled chain to a number:
every ``Pr[S(t) | alpha]``, series, limit, expected solving time and
Definition 3.3 verdict is a :class:`Query` (``quantity``, ``task``,
optional ``horizon``) answered by it.  It serves the query memo's hits
and runs one :class:`QueryPlan` over the misses, answered together:

* **exact** -- the chain's cached task-independent distributions are
  shared across all probability/series queries, and each distinct task
  mask pays for at most one absorption/expected sweep per plan.
* **float** -- one distribution evolution to the plan's deepest horizon
  (dense matrix-vector recurrence on small chains, shared scatter-adds
  otherwise) answers every probability/series query; one vectorized
  reverse-topological level sweep answers every limit (and one more
  every expected-time) across all masks at once
  (:func:`~repro.chain.backends.absorption_float_matrix`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from ..context import current
from ..obs import OBS, trace
from .backends import (
    absorption_exact,
    absorption_float_matrix,
    expected_exact,
    expected_float_matrix,
    mass_exact,
    masses_float_over_time,
    series_exact,
    validate_backend,
)

#: What a query may ask for.  ``solvable`` (Definition 3.3) is always
#: decided on exact arithmetic -- the zero-one law is asserted on exact
#: 0/1 limits -- whatever backend the rest of the batch runs under.
QUANTITIES = ("probability", "series", "limit", "expected", "solvable")


@dataclass(frozen=True)
class Query:
    """One ``(quantity, task, horizon)`` question against a chain."""

    quantity: str
    task: object
    horizon: "int | None" = None

    def __post_init__(self):
        if self.quantity not in QUANTITIES:
            raise ValueError(
                f"unknown quantity {self.quantity!r}; "
                f"expected one of {QUANTITIES}"
            )
        if self.quantity in ("probability", "series"):
            if self.horizon is None or self.horizon < 0:
                raise ValueError(
                    f"{self.quantity} queries need a horizon >= 0"
                )
        elif self.horizon is not None:
            raise ValueError(
                f"{self.quantity} queries take no horizon"
            )

    # -- convenience constructors (the spellings call sites read best) --
    @classmethod
    def probability(cls, task, t: int) -> "Query":
        """``Pr[S(t) | alpha]`` at one horizon."""
        return cls("probability", task, t)

    @classmethod
    def series(cls, task, t_max: int) -> "Query":
        """``[Pr[S(1)], ..., Pr[S(t_max)]]``."""
        return cls("series", task, t_max)

    @classmethod
    def limit(cls, task) -> "Query":
        """``lim_t Pr[S(t) | alpha]`` (absorption from the start state)."""
        return cls("limit", task)

    @classmethod
    def expected_time(cls, task) -> "Query":
        """Expected rounds to first solve (``None`` when infinite)."""
        return cls("expected", task)

    @classmethod
    def solvable(cls, task) -> "Query":
        """Definition 3.3, decided exactly with the zero-one assertion."""
        return cls("solvable", task)


class QueryPlan:
    """A batch of queries against one chain, grouped for shared passes.

    Grouping happens per distinct *solvability mask* (two task objects
    with the same mask share every pass), and the plan records which
    kernels the batch needs: distribution masses at which times,
    absorption for which masks, expected times for which masks.
    """

    def __init__(self, chain, queries: Iterable[Query]):
        self.chain = chain
        self.queries = tuple(queries)
        self._masks: list[tuple[bool, ...]] = []
        slot_of: dict[tuple[bool, ...], int] = {}
        self._slots: list[int] = []
        for query in self.queries:
            mask = chain.solvable_mask(query.task)
            slot = slot_of.get(mask)
            if slot is None:
                slot = slot_of[mask] = len(self._masks)
                self._masks.append(mask)
            self._slots.append(slot)
        # Which (slot, t) masses the distribution pass must produce.
        self._mass_times: set[int] = set()
        self._mass_slots: set[int] = set()
        self._absorb_slots: set[int] = set()
        #: ``limit`` slots alone: under the float backend these join the
        #: float absorption batch while ``solvable`` stays exact.
        self._limit_slots: set[int] = set()
        self._expected_slots: set[int] = set()
        for query, slot in zip(self.queries, self._slots):
            if query.quantity == "probability":
                self._mass_times.add(query.horizon)
                self._mass_slots.add(slot)
            elif query.quantity == "series":
                self._mass_times.update(range(1, query.horizon + 1))
                self._mass_slots.add(slot)
            elif query.quantity in ("limit", "solvable"):
                self._absorb_slots.add(slot)
                if query.quantity == "limit":
                    self._limit_slots.add(slot)
            else:  # expected
                self._expected_slots.add(slot)

    def __len__(self) -> int:
        return len(self.queries)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, *, backend: str = "exact") -> list:
        """Answer every query, in query order."""
        if validate_backend(backend) == "exact":
            return self._execute_exact()
        return self._execute_float()

    def _execute_exact(self) -> list:
        chain = self.chain
        absorption: dict[int, list[Fraction]] = {}
        expected: dict[int, list] = {}
        for slot in self._absorb_slots:
            absorption[slot] = absorption_exact(chain, self._masks[slot])
        for slot in self._expected_slots:
            expected[slot] = expected_exact(chain, self._masks[slot])
        results = []
        for query, slot in zip(self.queries, self._slots):
            mask = self._masks[slot]
            if query.quantity == "probability":
                results.append(
                    mass_exact(
                        chain.cached_distribution_exact(query.horizon), mask
                    )
                )
            elif query.quantity == "series":
                results.append(series_exact(chain, mask, query.horizon))
            elif query.quantity == "limit":
                results.append(absorption[slot][chain.start])
            elif query.quantity == "solvable":
                results.append(
                    _assert_zero_one(chain, absorption[slot][chain.start])
                )
            else:  # expected
                results.append(expected[slot][chain.start])
        return results

    def _execute_float(self) -> list:
        chain = self.chain
        masses: dict[int, np.ndarray] = {}
        mass_rows: dict[int, int] = {}
        if self._mass_times:
            # Only the mask rows probability/series queries actually
            # read join the per-time mass products.
            ordered = sorted(self._mass_slots)
            mass_rows = {slot: row for row, slot in enumerate(ordered)}
            masses = masses_float_over_time(
                chain,
                np.asarray(
                    [self._masks[slot] for slot in ordered], dtype=bool
                ),
                self._mass_times,
            )
        absorption: "np.ndarray | None" = None
        absorb_rows: dict[int, int] = {}
        # ``solvable`` stays exact under every backend (the zero-one law
        # is a statement about exact limits), so it does not join the
        # float absorption batch.
        float_absorb = sorted(self._limit_slots)
        if float_absorb:
            absorb_rows = {slot: row for row, slot in enumerate(float_absorb)}
            absorption = absorption_float_matrix(
                chain,
                np.asarray(
                    [self._masks[slot] for slot in float_absorb], dtype=bool
                ),
            )
        expected: "np.ndarray | None" = None
        expected_rows: dict[int, int] = {}
        if self._expected_slots:
            ordered = sorted(self._expected_slots)
            expected_rows = {slot: row for row, slot in enumerate(ordered)}
            expected = expected_float_matrix(
                chain,
                np.asarray(
                    [self._masks[slot] for slot in ordered], dtype=bool
                ),
            )
        exact_absorption: dict[int, list[Fraction]] = {}
        results = []
        for query, slot in zip(self.queries, self._slots):
            if query.quantity == "probability":
                results.append(
                    float(masses[query.horizon][mass_rows[slot]])
                )
            elif query.quantity == "series":
                row = mass_rows[slot]
                results.append(
                    [
                        float(masses[t][row])
                        for t in range(1, query.horizon + 1)
                    ]
                )
            elif query.quantity == "limit":
                results.append(
                    float(absorption[absorb_rows[slot], chain.start])
                )
            elif query.quantity == "solvable":
                if slot not in exact_absorption:
                    exact_absorption[slot] = absorption_exact(
                        chain, self._masks[slot]
                    )
                results.append(
                    _assert_zero_one(
                        chain, exact_absorption[slot][chain.start]
                    )
                )
            else:  # expected
                value = expected[expected_rows[slot], chain.start]
                results.append(None if np.isinf(value) else float(value))
        return results


def _assert_zero_one(chain, limit: Fraction) -> bool:
    """Definition 3.3 verdict with the machine-checked zero-one law."""
    if limit not in (Fraction(0), Fraction(1)):
        raise AssertionError(
            f"zero-one law violated: limit {limit} for chain {chain.key!r}"
        )
    return limit == 1


def memoized_answers(chain, queries: Sequence[Query], backend: str):
    """Split ``queries`` into memo hits and misses for one chain.

    Returns ``(results, tokens, miss_indices)``: ``results`` has the
    decoded answer at every hit position and ``None`` at every miss,
    ``tokens`` the per-query memo keys (``None`` where unmemoizable),
    and ``miss_indices`` the positions still to compute.  With no memo
    configured every query is a miss with a ``None`` token, so callers
    need no separate code path.  Exact hits decode to the very
    ``Fraction`` objects a fresh pass would produce -- byte-identical
    downstream records -- which is what lets warm sweeps skip evolution
    passes (and chain compilation) entirely.
    """
    if current().results_memo is None:
        # Checked before the import: without a memo a query never loads
        # the warehouse tier.
        return [None] * len(queries), [None] * len(queries), list(
            range(len(queries))
        )
    from ..results.memo import MISS, query_memo, query_token
    from .cache import key_digest

    memo = query_memo()
    digest = key_digest(chain.key)
    results: list = [None] * len(queries)
    tokens: list = []
    misses: list[int] = []
    for i, query in enumerate(queries):
        token = query_token(
            digest, query.quantity, query.task, query.horizon, backend
        )
        tokens.append(token)
        hit = memo.lookup(token)
        if hit is MISS:
            misses.append(i)
        else:
            results[i] = hit
    return results, tokens, misses


def record_answers(tokens: Sequence, indices: Sequence[int],
                   results: Sequence) -> None:
    """Record freshly computed answers under their memo tokens (no-op
    without a configured memo or for ``None`` tokens)."""
    if current().results_memo is None:
        return
    from ..results.memo import query_memo

    memo = query_memo()
    for i in indices:
        memo.record(tokens[i], results[i])


def run_queries(
    chain, queries: Sequence[Query], *, backend: str = "exact"
) -> list:
    """Answer ``queries`` against ``chain``, in order.

    With a query memo in the active context (``results_memo``, see
    :mod:`repro.context`) every memoizable
    query is first looked up by content key, and only the misses pay
    for a pass -- hits are byte-identical to recomputation under the
    exact backend.  The misses run as one :class:`QueryPlan` (one
    shared pass per needed kernel).
    """
    queries = list(queries)
    if not queries:
        return []
    validate_backend(backend)
    results, tokens, misses = memoized_answers(chain, queries, backend)
    if misses:
        subset = [queries[i] for i in misses]
        plan = QueryPlan(chain, subset)
        if OBS.enabled:
            OBS.metrics.inc("chain.batch.plans")
            OBS.metrics.inc("chain.batch.queries", len(subset))
            OBS.metrics.observe("chain.batch.plan_size", len(subset))
            OBS.metrics.observe("chain.batch.states", chain.num_states)
            with trace(
                "chain.batch.execute",
                queries=len(subset),
                states=chain.num_states,
            ):
                answers = plan.execute(backend=backend)
        else:
            answers = plan.execute(backend=backend)
        for i, value in zip(misses, answers):
            results[i] = value
        record_answers(tokens, misses, results)
    return results


__all__ = [
    "QUANTITIES",
    "Query",
    "QueryPlan",
    "memoized_answers",
    "record_answers",
    "run_queries",
]
