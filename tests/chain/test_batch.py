"""Batched query layer: mixed batches vs one query per call, plan hygiene.

A mixed batch must answer every query *byte-identically* to asking that
query alone (values and types), and the float backend must agree with
the per-query float answers -- and with exact -- to 1e-12, across a
grid of configurations, port assignments, tasks, and horizons.  The
exact answers themselves are checked against literal enumeration in
``test_backend_agreement.py``.
"""

from fractions import Fraction

import pytest

from repro.chain import (
    Query,
    QueryPlan,
    compile_chain,
    evolution_strategy,
    run_queries,
    set_distribution_cache_cap,
)
from repro.core import k_leader_election, leader_election, unique_ids
from repro.models import adversarial_assignment, round_robin_assignment
from repro.randomness import RandomnessConfiguration

SHAPES = ((1, 1), (3,), (1, 2), (2, 2), (1, 1, 2), (1, 2, 2))
PORT_MAKERS = (
    ("blackboard", lambda shape: None),
    ("adversarial", lambda shape: adversarial_assignment(shape)),
    ("round-robin", lambda shape: round_robin_assignment(sum(shape))),
)
HORIZONS = (0, 1, 3, 6)


def _tasks(n):
    return (
        leader_election(n),
        k_leader_election(n, 2),
        unique_ids(n),
    )


def _grid():
    for shape in SHAPES:
        for name, make in PORT_MAKERS:
            yield pytest.param(shape, make, id=f"{shape}-{name}")


def _all_queries(tasks, horizons):
    queries = []
    for task in tasks:
        queries.append(Query.series(task, max(horizons)))
        queries.append(Query.limit(task))
        queries.append(Query.expected_time(task))
        queries.append(Query.solvable(task))
        for t in horizons:
            queries.append(Query.probability(task, t))
    return queries


def _one_call_per_query(chain, queries, backend):
    return [
        run_queries(chain, [query], backend=backend)[0] for query in queries
    ]


class TestExactAgreement:
    @pytest.mark.parametrize("shape,make_ports", list(_grid()))
    def test_mixed_batch_equals_one_call_per_query(self, shape, make_ports):
        alpha = RandomnessConfiguration.from_group_sizes(shape)
        chain = compile_chain(alpha, make_ports(shape))
        queries = _all_queries(_tasks(alpha.n), HORIZONS)
        batched = run_queries(chain, queries, backend="exact")
        single = _one_call_per_query(chain, queries, "exact")
        assert batched == single
        # Byte-identical means identical types too: Fractions everywhere
        # a lone query yields one (never silently degraded floats).
        for got, want in zip(batched, single):
            if isinstance(want, list):
                assert [type(x) for x in got] == [type(x) for x in want]
            else:
                assert type(got) is type(want)


class TestFloatAgreement:
    @pytest.mark.parametrize("shape,make_ports", list(_grid()))
    def test_float_batch_matches_one_call_per_query_and_exact(
        self, shape, make_ports
    ):
        alpha = RandomnessConfiguration.from_group_sizes(shape)
        chain = compile_chain(alpha, make_ports(shape))
        queries = _all_queries(_tasks(alpha.n), HORIZONS)
        batched = run_queries(chain, queries, backend="float")
        single = _one_call_per_query(chain, queries, "float")
        exact = _one_call_per_query(chain, queries, "exact")
        for got, flt, ref in zip(batched, single, exact):
            if isinstance(got, list):
                assert len(got) == len(flt) == len(ref)
                for g, f, r in zip(got, flt, ref):
                    assert g == pytest.approx(f, abs=1e-12)
                    assert g == pytest.approx(float(r), abs=1e-12)
            elif got is None or isinstance(got, bool):
                assert got == flt == (
                    ref if isinstance(got, bool) else None
                )
            else:
                assert got == pytest.approx(flt, abs=1e-12)
                assert got == pytest.approx(float(ref), abs=1e-12)


class TestPlan:
    def test_shared_masks_collapse_to_one_slot(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        chain = compile_chain(alpha)
        task = leader_election(3)
        plan = QueryPlan(
            chain, [Query.limit(task), Query.expected_time(task),
                    Query.limit(task)]
        )
        assert len(plan._masks) == 1
        assert len(plan) == 3

    def test_empty_batch(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        assert run_queries(compile_chain(alpha), []) == []

    def test_unknown_quantity_rejected(self):
        with pytest.raises(ValueError):
            Query("absorbance", leader_election(2))

    def test_probability_needs_horizon(self):
        with pytest.raises(ValueError):
            Query("probability", leader_election(2))
        with pytest.raises(ValueError):
            Query("probability", leader_election(2), -1)

    def test_limit_takes_no_horizon(self):
        with pytest.raises(ValueError):
            Query("limit", leader_election(2), 4)

    def test_unknown_backend_rejected(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        chain = compile_chain(alpha)
        with pytest.raises(ValueError):
            run_queries(
                chain, [Query.limit(leader_election(3))], backend="decimal"
            )


class TestZeroOneAssertion:
    def test_solvable_asserts_zero_one_on_both_backends(self):
        alpha = RandomnessConfiguration.from_group_sizes((2, 2))
        chain = compile_chain(alpha)
        task = leader_election(4)
        assert run_queries(chain, [Query.solvable(task)]) == [False]
        assert run_queries(
            chain, [Query.solvable(task)], backend="float"
        ) == [False]
        # Float 'solvable' verdicts are exact Fractions under the hood.
        assert isinstance(
            run_queries(chain, [Query.limit(task)])[0], Fraction
        )


class TestDistributionCacheCap:
    def test_deep_horizons_stay_exact_under_a_small_cap(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2, 2))
        task = leader_election(alpha.n)
        chain = compile_chain(alpha)
        reference = run_queries(chain, [Query.probability(task, 12)])[0]
        fresh = compile_chain(alpha, use_memo=False)
        set_distribution_cache_cap(4)
        try:
            assert run_queries(fresh, [Query.probability(task, 12)]) == [
                reference
            ]
            assert len(fresh._dist_exact) <= 4
            # Batched series past the cap stays byte-identical too.
            capped = run_queries(fresh, [Query.series(task, 12)])[0]
        finally:
            set_distribution_cache_cap(None)
        assert capped == run_queries(chain, [Query.series(task, 12)])[0]

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            set_distribution_cache_cap(0)


class TestAdaptiveEvolution:
    def test_strategy_follows_density_below_the_hard_cap(self):
        from repro.chain import DENSE_STATE_LIMIT
        from repro.chain.backends import (
            DENSE_ALWAYS_STATES,
            DENSE_DENSITY_FLOOR,
        )

        assert evolution_strategy(DENSE_STATE_LIMIT + 1, 10**9) == "scatter"
        assert evolution_strategy(DENSE_ALWAYS_STATES, 1) == "dense"
        states = DENSE_ALWAYS_STATES * 2
        dense_nnz = int(states * states * DENSE_DENSITY_FLOOR) + 1
        assert evolution_strategy(states, dense_nnz) == "dense"
        assert evolution_strategy(states, states) == "scatter"

    def test_hard_cap_itself_still_follows_density(self):
        from repro.chain import DENSE_STATE_LIMIT

        full = DENSE_STATE_LIMIT * DENSE_STATE_LIMIT
        assert evolution_strategy(DENSE_STATE_LIMIT, full) == "dense"
        assert evolution_strategy(DENSE_STATE_LIMIT, DENSE_STATE_LIMIT) == (
            "scatter"
        )
        assert evolution_strategy(DENSE_STATE_LIMIT + 1, full) == "scatter"

    def test_density_exactly_at_the_floor_is_dense(self):
        from repro.chain.backends import (
            DENSE_ALWAYS_STATES,
            DENSE_DENSITY_FLOOR,
            transition_density,
        )

        states = DENSE_ALWAYS_STATES * 4
        at_floor = int(states * states * DENSE_DENSITY_FLOOR)
        assert transition_density(states, at_floor) == DENSE_DENSITY_FLOOR
        assert evolution_strategy(states, at_floor) == "dense"
        assert evolution_strategy(states, at_floor - 1) == "scatter"

    def test_empty_and_tiny_chains_are_dense(self):
        from repro.chain.backends import transition_density

        assert transition_density(0, 0) == 0.0
        assert evolution_strategy(0, 0) == "dense"
        assert evolution_strategy(1, 1) == "dense"

class TestEvolutionVerdictMovesNoResults:
    """Dense and scatter evolve the same distribution: forcing either
    verdict leaves every float answer within 1e-12 of the other and of
    exact, and leaves exact answers untouched."""

    @pytest.mark.parametrize("shape,make_ports", list(_grid()))
    def test_forced_dense_and_scatter_agree(
        self, monkeypatch, shape, make_ports
    ):
        import repro.chain.backends as backends

        alpha = RandomnessConfiguration.from_group_sizes(shape)
        chain = compile_chain(alpha, make_ports(shape))
        queries = _all_queries(_tasks(alpha.n), HORIZONS)
        exact = run_queries(chain, queries, backend="exact")
        answers = {}
        for forced in ("dense", "scatter"):
            calls = []

            def verdict(num_states, nnz, forced=forced, calls=calls):
                calls.append((num_states, nnz))
                return forced

            monkeypatch.setattr(backends, "evolution_strategy", verdict)
            answers[forced] = run_queries(chain, queries, backend="float")
            assert calls, "the float path never asked for a verdict"
            assert run_queries(chain, queries, backend="exact") == exact
        monkeypatch.undo()
        for dense, scatter, ref in zip(
            answers["dense"], answers["scatter"], exact
        ):
            if isinstance(ref, list):
                assert len(dense) == len(scatter) == len(ref)
                for d, s, r in zip(dense, scatter, ref):
                    assert d == pytest.approx(s, abs=1e-12)
                    assert d == pytest.approx(float(r), abs=1e-12)
            elif ref is None or isinstance(ref, bool):
                assert dense == scatter == ref
            else:
                assert dense == pytest.approx(scatter, abs=1e-12)
                assert dense == pytest.approx(float(ref), abs=1e-12)
