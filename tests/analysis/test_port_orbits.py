"""The orbit-weighted port table against brute-force full enumeration.

:func:`port_orbit_table` evaluates one representative per relabeling
orbit and weights it by the orbit size.  The oracle here visits every
``(n-1)!^n`` clique port assignment, decides each limit with the
colour-refinement oracle (:mod:`refinement_oracle`, no chain at all),
and scans all ``n!`` permutations for a symmetry.
"""

import math
from fractions import Fraction

import pytest
from refinement_oracle import leader_election_limit

from repro.analysis.symmetry import has_nontrivial_automorphism, symmetry_census
from repro.analysis.worst_case_search import (
    exhaustive_worst_case,
    group_relabelings,
    iter_all_port_assignments,
    port_orbit_table,
    port_orbits,
)
from repro.randomness import RandomnessConfiguration
from repro.randomness.configuration import enumerate_size_shapes

SHAPES = [shape for n in range(1, 5) for shape in enumerate_size_shapes(n)]

ORBIT_COUNTS = {
    (4,): 60,
    (2, 2): 177,
    (1, 3): 216,
    (1, 1, 2): 333,
    (1, 1, 1, 1): 60,
}


def _table(ports):
    return tuple(ports.neighbours(i) for i in range(ports.n))


def _relabel(table, perm):
    """Node ``perm[i]`` takes over node ``i``'s row, relabeled."""
    inverse = {image: i for i, image in enumerate(perm)}
    return tuple(
        tuple(perm[x] for x in table[inverse[j]]) for j in range(len(table))
    )


@pytest.fixture(scope="module")
def brute_force():
    """shape -> {neighbour table: (limit, symmetric)} over all assignments."""
    out = {}
    for shape in SHAPES:
        alpha = RandomnessConfiguration.from_group_sizes(shape)
        out[shape] = {
            _table(ports): (
                leader_election_limit(alpha, ports),
                has_nontrivial_automorphism(ports, alpha),
            )
            for ports in iter_all_port_assignments(alpha.n)
        }
    return out


@pytest.mark.parametrize("shape", SHAPES, ids=str)
class TestAgainstFullEnumeration:
    def test_worst_case_quadruple(self, shape, brute_force):
        limits = [limit for limit, _ in brute_force[shape].values()]
        expected = (
            min(limits),
            max(limits),
            sum(limit == 1 for limit in limits),
            len(limits),
        )
        assert exhaustive_worst_case(shape) == expected

    def test_census_counts(self, shape, brute_force):
        values = brute_force[shape].values()
        expected = (
            len(values),
            sum(limit == 1 for limit, _ in values),
            sum(limit != 1 and symmetric for limit, symmetric in values),
            sum(limit != 1 and not symmetric for limit, symmetric in values),
            sum(limit == 1 and symmetric for limit, symmetric in values),
        )
        (row,) = symmetry_census(shapes=(shape,)).rows
        assert row[2:7] == expected

    def test_weights_sum_to_assignment_count(self, shape):
        n = sum(shape)
        weights = [weight for weight, _, _ in port_orbit_table(shape)]
        assert all(weight >= 1 for weight in weights)
        assert sum(weights) == math.factorial(n - 1) ** n


class TestOrbitTable:
    def test_orbit_counts(self):
        counts = {shape: len(port_orbit_table(shape)) for shape in ORBIT_COUNTS}
        assert counts == ORBIT_COUNTS

    def test_relabelings_preserve_the_source_partition(self):
        # (2,2): 2! * 2! within groups, times 2! group swaps.
        perms = group_relabelings((2, 2))
        assert len(perms) == 8
        assert (2, 3, 0, 1) in perms and (0, 2, 1, 3) not in perms
        assert len(group_relabelings((1, 3))) == 6
        assert len(group_relabelings((1, 1, 1, 1))) == 24

    def test_rows_are_constant_on_every_orbit(self, brute_force):
        """Every member of an orbit has its representative's row, and the
        representative is the orbit's lexicographic minimum."""
        shape = (2, 2)
        perms = group_relabelings(shape)
        rows = {
            table: (limit, symmetric)
            for (table, _), (_, limit, symmetric) in zip(
                port_orbits(shape), port_orbit_table(shape), strict=True
            )
        }
        for table, value in brute_force[shape].items():
            representative = min(_relabel(table, perm) for perm in perms)
            assert rows[representative] == value

    def test_rows_are_exact(self):
        for _, limit, symmetric in port_orbit_table((2, 2)):
            assert isinstance(limit, Fraction)
            assert isinstance(symmetric, bool)
