"""Many chains' query batches in one call.

:func:`run_group_queries` answers a sequence of ``(chain, queries)``
items, one result list per item, each exactly what
:func:`~repro.chain.batch.run_queries` returns for that item alone (the
query memo split, per-chain :class:`~repro.chain.batch.QueryPlan`
dedup, then the kernels of the requested backend).
"""

from __future__ import annotations

from typing import Iterable

from .batch import run_queries


def run_group_queries(
    items: Iterable[tuple], *, backend: str = "exact"
) -> list[list]:
    """Answer each ``(chain, queries)`` item; one result list per item."""
    return [
        run_queries(chain, queries, backend=backend)
        for chain, queries in items
    ]


__all__ = ["run_group_queries"]
