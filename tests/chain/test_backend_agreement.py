"""Cross-backend property tests over a sweep of configurations.

The contract, for every configuration/ports/task triple, with every
answer asked through :func:`~repro.chain.run_queries`:

* the exact series query equals the per-time probability queries
  (shared-work vs per-time passes), and for ``n <= 3`` both equal the
  literal enumeration of source realizations
  (:func:`~repro.core.probability.solving_probability_enumerated`);
* the float backend agrees with the exact backend within 1e-12 on the
  series, the limit, and the expected solving time;
* absorption limits respect the zero-one law under both backends.
"""

from fractions import Fraction

import pytest

from repro.chain import Query, compile_chain, run_queries
from repro.core import k_leader_election, leader_election, unique_ids
from repro.core.probability import solving_probability_enumerated
from repro.models import adversarial_assignment, round_robin_assignment
from repro.randomness import RandomnessConfiguration, enumerate_size_shapes

T_MAX = 5
TOLERANCE = 1e-12
#: Horizons checked against literal enumeration (``2^(t k)`` source
#: realizations) on the ``n <= 3`` triples.
T_ENUMERATED = 3


def _ask(chain, query, backend="exact"):
    return run_queries(chain, [query], backend=backend)[0]


def _port_variants(shape):
    n = sum(shape)
    yield "blackboard", None
    if n >= 2:
        yield "adversarial", adversarial_assignment(shape)
        yield "round-robin", round_robin_assignment(n)


def _tasks(n):
    yield "leader", leader_election(n)
    if n >= 2:
        yield "k-leader:2", k_leader_election(n, 2)
    yield "unique-ids", unique_ids(n)


def _triples():
    for n in (2, 3, 4, 5):
        for shape in enumerate_size_shapes(n):
            for ports_name, ports in _port_variants(shape):
                for task_name, task in _tasks(n):
                    yield pytest.param(
                        shape,
                        ports,
                        task,
                        id=f"{shape}-{ports_name}-{task_name}",
                    )


#: Materialized: a generator would be consumed by the first parametrized
#: method and leave the remaining ones with an empty parameter set.
TRIPLES = list(_triples())


@pytest.mark.parametrize("shape, ports, task", TRIPLES)
class TestCrossBackend:
    def test_series_matches_per_time_probabilities(self, shape, ports, task):
        alpha = RandomnessConfiguration.from_group_sizes(shape)
        chain = compile_chain(alpha, ports)
        series = _ask(chain, Query.series(task, T_MAX))
        assert all(isinstance(p, Fraction) for p in series)
        for t, prob in enumerate(series, start=1):
            assert prob == _ask(chain, Query.probability(task, t))
        if alpha.n <= 3:
            for t in range(1, T_ENUMERATED + 1):
                assert series[t - 1] == solving_probability_enumerated(
                    alpha, task, t, ports
                )

    def test_float_series_within_tolerance(self, shape, ports, task):
        alpha = RandomnessConfiguration.from_group_sizes(shape)
        chain = compile_chain(alpha, ports)
        exact = _ask(chain, Query.series(task, T_MAX))
        approx = _ask(chain, Query.series(task, T_MAX), backend="float")
        assert all(isinstance(p, float) for p in approx)
        for e, a in zip(exact, approx):
            assert abs(float(e) - a) <= TOLERANCE

    def test_float_limit_within_tolerance(self, shape, ports, task):
        alpha = RandomnessConfiguration.from_group_sizes(shape)
        chain = compile_chain(alpha, ports)
        exact = _ask(chain, Query.limit(task))
        approx = _ask(chain, Query.limit(task), backend="float")
        assert exact in (Fraction(0), Fraction(1))  # zero-one law
        assert abs(float(exact) - approx) <= TOLERANCE

    def test_float_expected_time_within_tolerance(self, shape, ports, task):
        alpha = RandomnessConfiguration.from_group_sizes(shape)
        chain = compile_chain(alpha, ports)
        exact = _ask(chain, Query.expected_time(task))
        approx = _ask(chain, Query.expected_time(task), backend="float")
        if exact is None:
            assert approx is None
        else:
            assert abs(float(exact) - approx) <= TOLERANCE


class TestBackendValidation:
    def test_unknown_backend_rejected(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        chain = compile_chain(alpha)
        with pytest.raises(ValueError):
            _ask(chain, Query.probability(leader_election(3), 2), "exakt")

    def test_facade_rejects_unknown_backend(self):
        from repro.core import ConsistencyChain

        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        with pytest.raises(ValueError):
            ConsistencyChain(alpha, backend="float32")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
