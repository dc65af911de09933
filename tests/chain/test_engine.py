"""Compiled-engine tests: structure, memoization, facade equivalence.

The cross-backend numerical properties live in
``test_backend_agreement.py``; here we pin down the compiled object
itself: topological state order, integer transition weights, the
process-wide memo, and exact agreement with the ``ConsistencyChain``
facade (which the integration suite in turn validates against literal
realization enumeration).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import (
    Query,
    back_port_tables,
    chain_key,
    clear_memo,
    compile_chain,
    memo_size,
    neighbour_tables,
    refine_labels,
    run_queries,
)
from repro.chain.engine import (
    VECTOR_MIN_ROWS,
    node_bit_rows,
    successor_labels,
)
from repro.chain.interning import canonical_labels
from repro.core import (
    ConsistencyChain,
    expected_solving_time,
    leader_election,
    single_block_state,
    solving_time_quantile,
)
from repro.models import (
    adversarial_assignment,
    round_robin_assignment,
)
from repro.models.graph import GraphTopology
from repro.randomness import RandomnessConfiguration
from repro.runner.spec import make_ports


class TestStructure:
    def test_states_topologically_sorted_by_block_count(self):
        alpha = RandomnessConfiguration.from_group_sizes((2, 3))
        chain = compile_chain(alpha, adversarial_assignment((2, 3)))
        counts = chain.block_counts
        assert counts[0] == 1  # the single-block start state
        assert chain.start == 0
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        for sid in range(chain.num_states):
            for dst, cnt in chain.out_edges(sid):
                assert cnt >= 1
                # refinement strictly grows the block count, or self-loops
                assert dst == sid or counts[dst] > counts[sid]

    def test_transition_counts_sum_to_denominator(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2, 2))
        chain = compile_chain(alpha)
        assert chain.denom == 2 ** (alpha.k - 1)
        for sid in range(chain.num_states):
            assert sum(cnt for _, cnt in chain.out_edges(sid)) == chain.denom
            assert sum(
                chain.transitions_exact(sid).values()
            ) == Fraction(1)

    def test_validation_mirrors_the_facade(self):
        big = RandomnessConfiguration.independent(11)
        with pytest.raises(ValueError):
            compile_chain(big)
        alpha = RandomnessConfiguration.from_group_sizes((2, 2))
        with pytest.raises(ValueError):
            compile_chain(alpha, round_robin_assignment(5))
        with pytest.raises(ValueError):
            compile_chain(alpha, None, include_back_ports=True)


class TestMemo:
    def test_same_structural_chain_compiles_once(self):
        clear_memo()
        alpha = RandomnessConfiguration.from_group_sizes((2, 3))
        ports = adversarial_assignment((2, 3))
        first = compile_chain(alpha, ports)
        # Equal-valued (but distinct) alpha and ports objects hit the memo.
        again = compile_chain(
            RandomnessConfiguration.from_group_sizes((2, 3)),
            adversarial_assignment((2, 3)),
        )
        assert again is first
        assert memo_size() == 1

    def test_memo_key_is_structural(self):
        alpha = RandomnessConfiguration.from_group_sizes((2, 2))
        ports = adversarial_assignment((2, 2))
        assert chain_key(alpha, ports) == chain_key(alpha, ports)
        assert chain_key(alpha) != chain_key(alpha, ports)
        assert chain_key(alpha, ports) != chain_key(
            alpha, ports, include_back_ports=True
        )

    def test_use_memo_false_bypasses(self):
        clear_memo()
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        one = compile_chain(alpha, use_memo=False)
        two = compile_chain(alpha, use_memo=False)
        assert one is not two
        assert memo_size() == 0


class TestMaskCache:
    def test_equal_count_tasks_share_one_mask(self):
        # leader_election() builds a fresh CountTask per call; the mask
        # cache keys them by content, so a memoized (process-immortal)
        # chain does not grow with every query.
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        chain = compile_chain(alpha)
        first = chain.solvable_mask(leader_election(3))
        second = chain.solvable_mask(leader_election(3))
        assert first is second

    def test_identity_keyed_tasks_are_weakly_held(self):
        import gc
        import weakref

        from repro.core import leader_election_complex
        from repro.core.tasks import OutputComplexTask

        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        chain = compile_chain(alpha)
        task = OutputComplexTask(leader_election_complex(3))
        chain.solvable_mask(task)
        ref = weakref.ref(task)
        del task
        gc.collect()
        assert ref() is None  # the chain's cache did not pin the task


def _ask(chain, query):
    return run_queries(chain, [query])[0]


class TestFacadeEquivalence:
    """The facade must equal :func:`run_queries` on the compiled chain,
    value for value and type for type."""

    @pytest.mark.parametrize(
        "shape, make_ports",
        [
            ((1, 2), lambda n, shape: None),
            ((2, 3), lambda n, shape: adversarial_assignment(shape)),
            ((1, 1, 2), lambda n, shape: round_robin_assignment(n)),
        ],
    )
    def test_probabilities_and_limits(self, shape, make_ports):
        alpha = RandomnessConfiguration.from_group_sizes(shape)
        ports = make_ports(alpha.n, shape)
        task = leader_election(alpha.n)
        facade = ConsistencyChain(alpha, ports)
        compiled = compile_chain(alpha, ports)
        pairs = [
            (
                facade.solving_probability_series(task, 5),
                _ask(compiled, Query.series(task, 5)),
            ),
            (
                facade.limit_solving_probability(task),
                _ask(compiled, Query.limit(task)),
            ),
            (
                facade.eventually_solvable(task),
                _ask(compiled, Query.solvable(task)),
            ),
            (
                expected_solving_time(facade, task),
                _ask(compiled, Query.expected_time(task)),
            ),
        ]
        for t in (0, 1, 3):
            pairs.append(
                (
                    facade.solving_probability(task, t),
                    _ask(compiled, Query.probability(task, t)),
                )
            )
        for got, want in pairs:
            assert got == want
            assert type(got) is type(want)
        assert all(type(p) is Fraction for p in pairs[0][0])

    def test_reachable_states_match_state_table(self):
        alpha = RandomnessConfiguration.from_group_sizes((2, 2))
        ports = adversarial_assignment((2, 2))
        facade = ConsistencyChain(alpha, ports)
        compiled = compile_chain(alpha, ports)
        assert facade.reachable_states() == {
            compiled.partition_of(sid)
            for sid in range(compiled.num_states)
        }

    def test_state_distribution_masses(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2, 2))
        facade = ConsistencyChain(alpha)
        compiled = compile_chain(alpha)
        for t in range(4):
            by_partition = facade.state_distribution(t)
            by_id = compiled.cached_distribution_exact(t)
            assert sum(by_partition.values()) == Fraction(1)
            assert by_partition == {
                compiled.partition_of(sid): prob
                for sid, prob in by_id.items()
            }

    def test_graph_topology_chains_compile(self):
        ring = GraphTopology.ring(4)
        alpha = RandomnessConfiguration.independent(4)
        compiled = compile_chain(alpha, ring)
        task = leader_election(4)
        assert _ask(compiled, Query.limit(task)) == 1
        facade = ConsistencyChain(alpha, ring)
        assert facade.compiled is compiled  # memo shared across layers


@st.composite
def _expansions(draw):
    """One state expansion: an RGS label vector, a node-to-source
    assignment, a port structure, and a bit-row matrix -- either the
    chain's own halved enumeration or arbitrary 0/1 rows, in counts on
    both sides of :data:`VECTOR_MIN_ROWS`."""
    shape = tuple(
        draw(st.lists(st.integers(1, 3), min_size=1, max_size=7))
    )
    alpha = RandomnessConfiguration.from_group_sizes(shape)
    n = alpha.n
    labels = canonical_labels(
        draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    )
    kind = draw(
        st.sampled_from(("blackboard", "adversarial", "round-robin", "random"))
        if n >= 2
        else st.just("blackboard")
    )
    neigh = back = None
    if kind != "blackboard":
        ports = make_ports(kind, shape, draw(st.integers(0, 2**16)))
        neigh = neighbour_tables(ports)
        if draw(st.booleans()):
            back = back_port_tables(ports)
    if draw(st.booleans()):
        rows = node_bit_rows(alpha.assignment, alpha.k).tolist()
    else:
        count = draw(
            st.sampled_from((0, 1, VECTOR_MIN_ROWS - 1, VECTOR_MIN_ROWS))
        )
        rows = draw(
            st.lists(
                st.lists(st.integers(0, 1), min_size=n, max_size=n),
                min_size=count,
                max_size=count,
            )
        )
    return labels, rows, neigh, back


class TestSuccessorKernel:
    @settings(max_examples=300, deadline=None)
    @given(_expansions())
    def test_equals_one_refinement_per_bit_row(self, expansion):
        labels, rows, neigh, back = expansion
        want = [
            refine_labels(labels, tuple(row), neigh, back) for row in rows
        ]
        assert successor_labels(labels, rows, neigh, back) == want

    def test_both_paths_return_plain_int_tuples(self):
        labels = (0, 1, 0, 2, 1)
        for count in (VECTOR_MIN_ROWS - 1, VECTOR_MIN_ROWS):
            rows = [[(r >> i) & 1 for i in range(5)] for r in range(count)]
            out = successor_labels(labels, rows, None, None)
            assert len(out) == count
            for refined in out:
                assert type(refined) is tuple
                assert all(type(value) is int for value in refined)

    def test_bit_rows_fix_the_first_source(self):
        alpha = RandomnessConfiguration.from_group_sizes((2, 1, 2))
        rows = node_bit_rows(alpha.assignment, alpha.k)
        assert rows.shape == (2 ** (alpha.k - 1), alpha.n)
        assert not rows[:, 0].any() and not rows[:, 1].any()
        assert len({tuple(row) for row in rows.tolist()}) == len(rows)


class TestQuantilesAndExpectations:
    def test_quantile_matches_series(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        task = leader_election(3)
        compiled = compile_chain(alpha)
        series = _ask(compiled, Query.series(task, 10))
        for q in (Fraction(1, 2), Fraction(3, 4), Fraction(15, 16)):
            t = solving_time_quantile(compiled, task, q, t_cap=32)
            assert series[t - 1] >= q
            assert t == 1 or series[t - 2] < q

    def test_unsolvable_expectation_is_none(self):
        alpha = RandomnessConfiguration.from_group_sizes((2, 2))
        compiled = compile_chain(alpha, adversarial_assignment((2, 2)))
        assert _ask(compiled, Query.expected_time(leader_election(4))) is None

    def test_single_node_chain(self):
        alpha = RandomnessConfiguration.shared(1)
        compiled = compile_chain(alpha)
        task = leader_election(1)
        assert compiled.num_states == 1
        assert _ask(compiled, Query.probability(task, 0)) == 1
        assert _ask(compiled, Query.limit(task)) == 1
        assert _ask(compiled, Query.expected_time(task)) == 0


class TestFacadeInternals:
    def test_transitions_on_unreachable_state_still_answer(self):
        # (2, 2) from a fully-split partition: not reachable from bottom
        # under adversarial ports, but transitions() must still work.
        alpha = RandomnessConfiguration.from_group_sizes((2, 2))
        chain = ConsistencyChain(alpha, adversarial_assignment((2, 2)))
        split = ((0,), (1,), (2,), (3,))
        assert split not in chain.reachable_states()
        moves = chain.transitions(split)
        assert sum(moves.values()) == Fraction(1)
        assert moves == {split: Fraction(1)}  # fully split: absorbing

    def test_transition_cache_returns_same_object(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        chain = ConsistencyChain(alpha)
        state = single_block_state(3)
        assert chain.transitions(state) is chain.transitions(state)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
