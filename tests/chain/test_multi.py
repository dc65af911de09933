"""run_group_queries: many chains' batches, each answered per chain."""

import pytest

from repro.chain import Query, compile_chain, run_group_queries, run_queries
from repro.core import (
    k_leader_election,
    leader_election,
    weak_symmetry_breaking,
)
from repro.models import adversarial_assignment
from repro.randomness import RandomnessConfiguration, enumerate_size_shapes


def _mixed_shape_items():
    """A mixed-shape sweep axis: several totals, both models, all
    quantities."""
    items = []
    for n in (3, 4, 5):
        tasks = (leader_election(n), k_leader_election(n, 2))
        for shape in enumerate_size_shapes(n):
            alpha = RandomnessConfiguration.from_group_sizes(shape)
            for ports in (None, adversarial_assignment(shape)):
                queries = []
                for task in tasks:
                    queries.append(Query.probability(task, 3))
                    queries.append(Query.series(task, 6))
                    queries.append(Query.limit(task))
                    queries.append(Query.expected_time(task))
                    queries.append(Query.solvable(task))
                queries.append(
                    Query.expected_time(weak_symmetry_breaking(n))
                )
                items.append((compile_chain(alpha, ports), queries))
    return items


class TestGroupedResults:
    def test_exact_byte_identical_to_per_chain(self):
        items = _mixed_shape_items()
        grouped = run_group_queries(items, backend="exact")
        per_chain = [run_queries(chain, queries) for chain, queries in items]
        assert grouped == per_chain
        # Same types too (Fractions stay Fractions, bools stay bools).
        for got_row, want_row in zip(grouped, per_chain):
            for got, want in zip(got_row, want_row):
                inner_got = got if isinstance(got, list) else [got]
                inner_want = want if isinstance(want, list) else [want]
                assert (
                    [type(x) for x in inner_got]
                    == [type(x) for x in inner_want]
                )

    def test_empty_items_and_empty_queries(self):
        assert run_group_queries([]) == []
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        assert run_group_queries([(compile_chain(alpha), [])]) == [[]]


def _backend_grid():
    for backend in ("exact", "float"):
        for shape in ((1, 2), (2, 2), (1, 1, 2), (2, 3)):
            yield pytest.param(backend, shape, id=f"{backend}-{shape}")


class TestPerItemAnswers:
    @pytest.mark.parametrize("backend,shape", list(_backend_grid()))
    def test_each_item_answers_like_run_queries(self, backend, shape):
        alpha = RandomnessConfiguration.from_group_sizes(shape)
        task = leader_election(alpha.n)
        queries = [
            Query.probability(task, 2),
            Query.series(task, 5),
            Query.limit(task),
            Query.expected_time(task),
        ]
        items = [
            (compile_chain(alpha, ports), queries)
            for ports in (None, adversarial_assignment(shape))
        ]
        grouped = run_group_queries(items, backend=backend)
        assert grouped == [
            run_queries(chain, qs, backend=backend) for chain, qs in items
        ]
        if backend == "float":
            exact = run_group_queries(items)
            for got_row, want_row in zip(grouped, exact):
                for got, want in zip(got_row, want_row):
                    if isinstance(want, list):
                        assert got == pytest.approx(
                            [float(x) for x in want], abs=1e-12
                        )
                    elif want is None:
                        assert got is None
                    else:
                        assert got == pytest.approx(float(want), abs=1e-12)

    def test_items_may_be_any_iterable(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        chain = compile_chain(alpha)
        queries = [Query.limit(leader_election(3))]
        items = ((chain, queries) for _ in range(3))
        assert run_group_queries(items) == [run_queries(chain, queries)] * 3

    def test_a_repeated_chain_answers_each_item_separately(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 1, 2))
        chain = compile_chain(alpha)
        first = [Query.limit(leader_election(4))]
        second = [Query.series(k_leader_election(4, 2), 3)]
        assert run_group_queries([(chain, first), (chain, second)]) == [
            run_queries(chain, first),
            run_queries(chain, second),
        ]

    def test_unknown_backend_rejected(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        items = [(compile_chain(alpha), [Query.limit(leader_election(3))])]
        with pytest.raises(ValueError, match="unknown backend"):
            run_group_queries(items, backend="bogus")
