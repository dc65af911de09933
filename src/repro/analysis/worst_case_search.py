"""Exhaustive worst-case search over clique port assignments.

Theorem 4.2 quantifies over the *worst* port assignment, and Lemma 4.3
exhibits one explicit candidate.  For small cliques we can close the loop
by brute force over **all** ``(n-1)!^n`` port assignments, computing the
exact eventual-solvability limit of each, and check that

* when ``gcd = 1``: every assignment has limit 1 (the 'if' direction is
  truly assignment-independent);
* when ``gcd > 1``: the minimum over assignments is 0, and the Lemma 4.3
  construction attains it -- i.e. the paper's adversary is an *optimal*
  adversary, not merely a valid one.

The sweep also measures how adversarial the worst case is: the fraction
of assignments that keep leader election solvable (footnote 5 territory).

The enumeration visits orbit representatives, weighted.  The limit (and
whether a non-trivial source-preserving automorphism exists) is invariant
under relabeling the nodes by any permutation that maps each source group
onto a group of equal size -- the i.i.d. sources make equal-size groups
interchangeable, the same group :mod:`repro.chain.quotient` compiles
modulo.  :func:`port_orbit_table` therefore evaluates one chain per orbit
(its lexicographically least neighbour table, as Lyndon words pick one
minimal rotation per necklace) and records the orbit size as its weight;
every count below is a weighted sum over that table.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Iterator

from ..core.leader_election import leader_election
from ..chain import (
    Query,
    chain_key,
    compile_chain,
    is_chain_automorphism,
    run_queries,
)
from ..models.ports import PortAssignment, adversarial_assignment
from ..randomness.configuration import RandomnessConfiguration
from .result import ExperimentResult

#: One neighbour table: ``table[i]`` lists node ``i``'s neighbours in
#: port order.
Table = tuple[tuple[int, ...], ...]

#: One orbit-table row: (orbit size, exact limit, has a symmetry).
OrbitRow = tuple[int, Fraction, bool]


def _iter_tables(n: int, limit: int = 1 << 14) -> Iterator[Table]:
    """All clique neighbour tables of ``n`` nodes, in lexicographic order."""
    total = math.factorial(n - 1) ** n
    if total > limit:
        raise ValueError(f"{total} assignments exceed the limit {limit}")
    per_node = [
        list(itertools.permutations(x for x in range(n) if x != i))
        for i in range(n)
    ]
    return itertools.product(*per_node)


def iter_all_port_assignments(
    n: int, *, limit: int = 1 << 14
) -> Iterator[PortAssignment]:
    """All ``(n-1)!^n`` clique port assignments (guarded by count)."""
    for table in _iter_tables(n, limit):
        yield PortAssignment([list(row) for row in table])


def group_relabelings(shape: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Node permutations mapping each source group onto a group.

    Such a bijection maps each group onto one of equal size: these are
    the blackboard automorphisms of the shape's configuration (see
    :func:`repro.chain.quotient.is_chain_automorphism`), within-group
    permutations combined with swaps of equal-size groups.  Filters all
    ``n!`` permutations -- small ``n`` only.
    """
    key = chain_key(RandomnessConfiguration.from_group_sizes(shape))
    return tuple(
        perm
        for perm in itertools.permutations(range(sum(shape)))
        if is_chain_automorphism(key, perm)
    )


def _relabel(table: Table, perm: tuple[int, ...]) -> Table:
    """The table seen through ``perm``: node ``perm[i]`` gets ``i``'s row."""
    out: list[tuple[int, ...]] = [()] * len(table)
    for i, row in enumerate(table):
        out[perm[i]] = tuple(perm[x] for x in row)
    return tuple(out)


def port_orbits(shape: tuple[int, ...]) -> list[tuple[Table, int]]:
    """``(representative, orbit size)`` for every port-assignment orbit.

    Tables are visited in lexicographic order, so the first table of an
    orbit seen is its lexicographic minimum; its whole orbit is marked
    seen at once.  The sizes sum to ``(n-1)!^n``.
    """
    perms = group_relabelings(shape)
    seen: set[Table] = set()
    orbits = []
    for table in _iter_tables(sum(shape)):
        if table in seen:
            continue
        orbit = {_relabel(table, perm) for perm in perms}
        seen |= orbit
        orbits.append((table, len(orbit)))
    return orbits


def representative_rows(
    shape: tuple[int, ...], tables
) -> list[tuple[str, bool]]:
    """Per-representative ``(exact limit as a string, symmetric)``.

    ``limit`` is the leader-election limit; ``symmetric`` whether a
    non-trivial source-preserving automorphism exists.

    The one evaluation behind :func:`port_orbit_table`, in-process or in
    a pool worker (:func:`repro.runner.worker.execute_port_chunk`).  Each
    representative is visited exactly once, so its chain is compiled
    unmemoized -- keeping one-shot chains out of the process-wide memo.
    """
    from .symmetry import has_nontrivial_automorphism

    alpha = RandomnessConfiguration.from_group_sizes(shape)
    task = leader_election(alpha.n)
    rows = []
    for table in tables:
        ports = PortAssignment([list(row) for row in table])
        (limit,) = run_queries(
            compile_chain(alpha, ports, use_memo=False), [Query.limit(task)]
        )
        rows.append((str(limit), has_nontrivial_automorphism(ports, alpha)))
    return rows


def _orbit_table(shape, evaluate) -> tuple[OrbitRow, ...]:
    """Join :func:`port_orbits` with the rows ``evaluate`` computes."""
    orbits = port_orbits(shape)
    rows = evaluate([table for table, _ in orbits])
    return tuple(
        (weight, Fraction(limit), symmetric)
        for (_, weight), (limit, symmetric) in zip(orbits, rows, strict=True)
    )


@functools.lru_cache(maxsize=None)
def port_orbit_table(shape: tuple[int, ...]) -> tuple[OrbitRow, ...]:
    """``(weight, limit, symmetric)`` per orbit representative of ``shape``.

    See :func:`representative_rows` for the two values.  Both are exact
    and the same under every quotient, batch and backend mode, so the
    table is memoized per shape: the worst-case search and the symmetry
    census share one evaluation.
    """
    return _orbit_table(
        shape, lambda tables: representative_rows(shape, tables)
    )


def exhaustive_worst_case(
    shape: tuple[int, ...],
    *,
    engine=None,
    chunk: int = 64,
) -> tuple[Fraction, Fraction, int, int]:
    """(min limit, max limit, #solvable assignments, #assignments).

    A weighted fold over :func:`port_orbit_table`.  A non-serial
    ``engine`` (a :class:`repro.runner.engines.ExecutionEngine`)
    evaluates the orbit representatives instead, in chunks of ``chunk``;
    the rows are exact (fractions travel as strings), so any engine
    returns the same quadruple as the serial table.
    """
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    if engine is None or getattr(engine, "name", "serial") == "serial":
        table = port_orbit_table(tuple(shape))
    else:
        from ..context import current
        from ..runner.worker import execute_port_chunk

        context = current()

        def evaluate(tables):
            payloads = [
                {
                    "sizes": list(shape),
                    "tables": tables[start:start + chunk],
                    "context": context,
                }
                for start in range(0, len(tables), chunk)
            ]
            return [
                row
                for record in engine.map(execute_port_chunk, payloads)
                for row in record["rows"]
            ]

        table = _orbit_table(tuple(shape), evaluate)
    limits = [limit for _, limit, _ in table]
    return (
        min(limits),
        max(limits),
        sum(weight for weight, limit, _ in table if limit == 1),
        sum(weight for weight, _, _ in table),
    )


def worst_case_port_search(
    shapes: tuple[tuple[int, ...], ...] = ((1, 2), (3,), (2, 2), (1, 3), (1, 1, 2), (4,), (1, 1, 1, 1)),
    *,
    engine=None,
) -> ExperimentResult:
    """Theorem 4.2's worst-case quantifier, checked by brute force.

    ``engine`` parallelizes the per-shape enumeration (see
    :func:`exhaustive_worst_case`); the verdicts are engine-independent.
    """
    rows = []
    passed = True
    for shape in shapes:
        alpha = RandomnessConfiguration.from_group_sizes(shape)
        task = leader_election(alpha.n)
        lowest, highest, solvable, total = exhaustive_worst_case(
            shape, engine=engine
        )
        (lemma_limit,) = run_queries(
            compile_chain(alpha, adversarial_assignment(shape)),
            [Query.limit(task)],
        )
        predicted_worst = Fraction(1) if alpha.gcd == 1 else Fraction(0)
        ok = (
            lowest == predicted_worst
            and lemma_limit == lowest
            and lowest in (0, 1)
            and highest in (0, 1)
        )
        passed &= ok
        rows.append(
            (
                shape,
                alpha.gcd,
                total,
                f"{solvable}/{total}",
                float(lowest),
                float(lemma_limit),
                "yes" if predicted_worst == 1 else "no",
                "ok" if ok else "MISMATCH",
            )
        )
    return ExperimentResult(
        experiment_id="extension-worst-case-search",
        title="Theorem 4.2's worst case, by exhaustive port enumeration",
        headers=(
            "sizes",
            "gcd",
            "#assignments",
            "solvable assignments",
            "min limit",
            "Lemma 4.3 limit",
            "paper worst case",
            "check",
        ),
        rows=rows,
        notes=[
            "the Lemma 4.3 assignment always attains the exact minimum: "
            "the paper's adversary is optimal, not merely valid",
            "gcd>1 shapes still have many solvable assignments "
            "(footnote 5): the worst case is genuinely adversarial",
        ],
        passed=passed,
    )


__all__ = [
    "exhaustive_worst_case",
    "group_relabelings",
    "iter_all_port_assignments",
    "port_orbit_table",
    "port_orbits",
    "representative_rows",
    "worst_case_port_search",
]
