"""Extension: Theorem 4.2's worst-case quantifier, brute-forced.

Covers every port assignment of small cliques -- orbit representatives,
weighted by orbit size -- and checks that the minimum eventual-solvability
limit is 1 iff gcd = 1, and that the Lemma 4.3 construction attains the
exact minimum (the paper's adversary is optimal).  The kernel times the
uncached orbit fold covering all 1296 assignments of one shape.
"""

from repro.analysis import exhaustive_worst_case, worst_case_port_search
from repro.analysis.worst_case_search import port_orbit_table


def bench_worst_case_search_experiment(run_experiment):
    # One cold round: the search folds the memoized per-shape orbit table.
    port_orbit_table.cache_clear()
    run_experiment(
        worst_case_port_search,
        shapes=((1, 2), (3,), (2, 2), (1, 3), (4,)),
        rounds=1,
    )


def bench_exhaustive_sweep_kernel(benchmark):
    """All 1296 assignments of the (2,2) clique: 177 orbit
    representatives, weighted, exact limit each."""

    def kernel():
        # The table is memoized per shape; clear it so every round
        # times the fold, not a cache lookup.
        port_orbit_table.cache_clear()
        return exhaustive_worst_case((2, 2))

    lowest, highest, solvable, total = benchmark(kernel)
    assert (lowest, highest, total) == (0, 1, 1296)
    assert solvable == 1152
