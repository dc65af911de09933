"""The chain's leader-election limit against the refinement oracle.

:mod:`refinement_oracle` decides ``lim_t Pr[S(t) | alpha]`` for leader
election from the stable port-coloured refinement of the source
partition, with no chain at all.  Here it is checked against
``run_queries(chain, [Query.limit(leader_election(n))])`` in both port
semantics: on every port-table orbit of every shape with ``n <= 4``, on
random ``n = 5`` tables, on the blackboard, and on the pinned (2, 3)
"sorted" counterexample, where the two semantics disagree.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from refinement_oracle import leader_election_limit

from repro.analysis.worst_case_search import port_orbits
from repro.chain import Query, compile_chain, run_queries
from repro.core import leader_election
from repro.models import PortAssignment
from repro.randomness import RandomnessConfiguration, enumerate_size_shapes

SEMANTICS = (False, True)

SMALL_SHAPES = [
    shape for n in range(1, 5) for shape in enumerate_size_shapes(n)
]

SORTED_TABLE = (
    (1, 2, 3, 4),
    (0, 2, 3, 4),
    (0, 1, 3, 4),
    (0, 1, 2, 4),
    (0, 1, 2, 3),
)


def _chain_limit(alpha, ports, back_ports):
    chain = compile_chain(
        alpha, ports, include_back_ports=back_ports, use_memo=False
    )
    (limit,) = run_queries(chain, [Query.limit(leader_election(alpha.n))])
    return limit


def _mismatches(alpha, tables, back_ports):
    out = []
    for table in tables:
        ports = PortAssignment(table)
        want = leader_election_limit(
            alpha, ports, include_back_ports=back_ports
        )
        if _chain_limit(alpha, ports, back_ports) != want:
            out.append(table)
    return out


@pytest.mark.parametrize("back_ports", SEMANTICS, ids=("eq2", "back-ports"))
@pytest.mark.parametrize("shape", SMALL_SHAPES, ids=str)
def test_every_small_orbit_agrees(shape, back_ports):
    alpha = RandomnessConfiguration.from_group_sizes(shape)
    tables = [table for table, _ in port_orbits(shape)]
    assert _mismatches(alpha, tables, back_ports) == []


@st.composite
def _n5_tables(draw):
    shape = draw(st.sampled_from(tuple(enumerate_size_shapes(5))))
    table = tuple(
        tuple(draw(st.permutations([j for j in range(5) if j != i])))
        for i in range(5)
    )
    return shape, table


@settings(max_examples=100, deadline=None)
@given(_n5_tables())
def test_random_n5_tables_agree_in_both_semantics(case):
    shape, table = case
    alpha = RandomnessConfiguration.from_group_sizes(shape)
    for back_ports in SEMANTICS:
        assert _mismatches(alpha, [table], back_ports) == []


@pytest.mark.parametrize("n", range(1, 7))
def test_blackboard_agrees(n):
    for shape in enumerate_size_shapes(n):
        alpha = RandomnessConfiguration.from_group_sizes(shape)
        assert _chain_limit(alpha, None, False) == leader_election_limit(
            alpha
        )


@pytest.mark.parametrize(
    "back_ports, limit", [(False, Fraction(0)), (True, Fraction(1))]
)
def test_sorted_counterexample(back_ports, limit):
    alpha = RandomnessConfiguration.from_group_sizes((2, 3))
    ports = PortAssignment(SORTED_TABLE)
    assert leader_election_limit(
        alpha, ports, include_back_ports=back_ports
    ) == limit
    assert _chain_limit(alpha, ports, back_ports) == limit
