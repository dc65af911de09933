"""Theorem 4.2 on the clique depends on the port semantics from n = 5.

``compile_chain`` defaults to the paper's Eq. 2 (a receiver learns only
its own port); ``include_back_ports=True`` also hands it the sender's
port, which is what the Euclid protocol's per-port payloads give its
receivers.  At shape (2, 3) the "sorted" table -- node i's port p leads
to its p-th smallest neighbour -- separates the two: its source
partition is already equitable under Eq. 2 (a fibration onto a two-node
base), so the limit is 0 even though gcd = 1, while back ports break
the symmetry and the protocol elects a leader.
"""

import pytest

from repro.algorithms import CliqueNetwork, EuclidLeaderNode
from repro.analysis.worst_case_search import port_orbits
from repro.chain import Query, compile_chain, run_queries
from repro.core import leader_election
from repro.models import PortAssignment
from repro.randomness import RandomnessConfiguration

SHAPE = (2, 3)
SORTED_TABLE = (
    (1, 2, 3, 4),
    (0, 2, 3, 4),
    (0, 1, 3, 4),
    (0, 1, 2, 4),
    (0, 1, 2, 3),
)


def _limit(shape, table, *, back_ports, quotient="off"):
    alpha = RandomnessConfiguration.from_group_sizes(shape)
    chain = compile_chain(
        alpha,
        PortAssignment(table),
        include_back_ports=back_ports,
        use_memo=False,
        quotient=quotient,
    )
    (limit,) = run_queries(chain, [Query.limit(leader_election(alpha.n))])
    return limit


class TestSortedTableCounterexample:
    @pytest.mark.parametrize("quotient", ["off", "auto", "on"])
    def test_limit_is_zero_without_back_ports(self, quotient):
        assert _limit(
            SHAPE, SORTED_TABLE, back_ports=False, quotient=quotient
        ) == 0

    @pytest.mark.parametrize("quotient", ["off", "auto", "on"])
    def test_limit_is_one_with_back_ports(self, quotient):
        assert _limit(
            SHAPE, SORTED_TABLE, back_ports=True, quotient=quotient
        ) == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_euclid_protocol_elects_one_leader(self, seed):
        alpha = RandomnessConfiguration.from_group_sizes(SHAPE)
        network = CliqueNetwork(
            alpha, PortAssignment(SORTED_TABLE), EuclidLeaderNode, seed=seed
        )
        result = network.run(max_rounds=5)
        assert result.all_decided
        assert len(result.leaders()) == 1


@pytest.mark.parametrize(
    "shape", [(1, 2), (1, 1, 1), (1, 3), (1, 1, 2), (1, 1, 1, 1)]
)
def test_semantics_agree_on_small_gcd_one_shapes(shape):
    """Below n = 5 every port table of a gcd = 1 shape has the same
    limit in both semantics (checked on every orbit representative)."""
    for table, _ in port_orbits(shape):
        assert _limit(shape, table, back_ports=False) == _limit(
            shape, table, back_ports=True
        ), table


@pytest.mark.parametrize(
    "shape, tables, solvable, solvable_with_back_ports",
    [((3,), 8, 0, 6), ((4,), 1296, 0, 1200), ((2, 2), 1296, 1152, 1260)],
)
def test_semantics_differ_on_small_gcd_gt_one_shapes(
    shape, tables, solvable, solvable_with_back_ports
):
    """Where gcd > 1 the semantics already differ below n = 5: back
    ports make more tables solvable.  In both, some table stays
    unsolvable, as Lemma 4.3's adversary requires."""
    counts = {False: 0, True: 0}
    total = 0
    for table, weight in port_orbits(shape):
        total += weight
        for back_ports in counts:
            if _limit(shape, table, back_ports=back_ports) == 1:
                counts[back_ports] += weight
    assert total == tables
    assert counts == {False: solvable, True: solvable_with_back_ports}
