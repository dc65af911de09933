"""Quotient compilation: orbit chains byte-identical to full chains."""

import hashlib
import math
import pickle

import pytest

from repro.chain import (
    Query,
    automorphism_count,
    automorphism_generators,
    chain_key,
    compile_chain,
    configure_quotient,
    effective_chain_key,
    is_chain_automorphism,
    is_quotient_key,
    quotient_key,
    quotient_mode,
    resolve_quotient,
    run_queries,
)
from repro.chain.cache import key_digest
from repro.chain.interning import canonical_labels
from repro.chain.quotient import OrbitIndex, QuotientChain, base_key
from repro.context import use
from repro.randomness import RandomnessConfiguration, enumerate_size_shapes
from repro.runner import SweepSpec
from repro.runner import spec as runner_spec


def _registry(n_max=5):
    """Every chain configuration of the registry: blackboard plus both
    deterministic port kinds, with and without back ports."""
    for n in range(1, n_max + 1):
        for shape in enumerate_size_shapes(n):
            yield shape, None, False
            if n < 2:
                continue
            for kind in ("adversarial", "round-robin"):
                ports = runner_spec.make_ports(kind, shape, 0)
                yield shape, ports, False
                yield shape, ports, True


def _tasks(n):
    tasks = [runner_spec.make_task("leader", n)]
    if n >= 2:
        tasks.append(runner_spec.make_task("k-leader:2", n))
    return tasks


class TestExactEquivalence:
    def test_registry_start_state_queries_byte_identical(self):
        """Acceptance sweep: every registry chain at n <= 5, both
        compilations, every record-path query, exact ``==``."""
        for shape, ports, back in _registry():
            alpha = RandomnessConfiguration.from_group_sizes(shape)
            full = compile_chain(
                alpha, ports, include_back_ports=back, use_memo=False,
                quotient=False,
            )
            quot = compile_chain(
                alpha, ports, include_back_ports=back, use_memo=False,
                quotient=True,
            )
            assert isinstance(quot, QuotientChain)
            assert quot.key == quotient_key(full.key)
            assert quot.num_states <= full.num_states
            assert sum(quot.orbit_sizes) == full.num_states
            for task in _tasks(alpha.n):
                queries = [
                    Query.limit(task),
                    Query.series(task, 6),
                    Query.expected_time(task),
                ]
                want = run_queries(full, queries)
                got = run_queries(quot, queries)
                assert got == want
                # Byte-identical means exact Fractions, not mere ==.
                assert type(got[0]) is type(want[0])
                assert all(
                    type(a) is type(b) and a == b
                    for a, b in zip(got[1], want[1])
                )
                f_want = run_queries(full, queries, backend="float")
                f_got = run_queries(quot, queries, backend="float")
                assert f_got[0] == pytest.approx(f_want[0], abs=1e-12)
                assert f_got[1] == pytest.approx(f_want[1], abs=1e-12)

    def test_known_reduction_fully_symmetric_shape(self):
        """n i.i.d. singleton groups: orbits are integer partitions, so
        Bell(4) = 15 full states fold to the 5 partitions of 4."""
        alpha = RandomnessConfiguration.from_group_sizes((1, 1, 1, 1))
        full = compile_chain(alpha, use_memo=False, quotient=False)
        quot = compile_chain(alpha, use_memo=False, quotient=True)
        assert full.num_states == 15
        assert quot.num_states == 5
        assert quot.group_order == math.factorial(4)
        assert quot.full_states == 15
        assert quot.reduction == 3.0

    def test_quotient_can_be_trivial_despite_symmetry(self):
        """A nontrivial group need not shrink anything: both reachable
        states of shape (2,) are fixed by the node swap."""
        alpha = RandomnessConfiguration.from_group_sizes((2,))
        full = compile_chain(alpha, use_memo=False, quotient=False)
        quot = compile_chain(alpha, use_memo=False, quotient=True)
        assert automorphism_count(chain_key(alpha)) == 2
        assert quot.num_states == full.num_states


def _closure(n, generators):
    """Brute-force group closure of a generator set (identity included)."""
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        current = frontier.pop()
        for g in generators:
            image = tuple(g[current[i]] for i in range(n))
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    return seen


class TestGroupStructure:
    def test_generator_closure_matches_closed_form_order(self):
        for shape, ports, back in _registry(n_max=4):
            alpha = RandomnessConfiguration.from_group_sizes(shape)
            key = chain_key(alpha, ports, include_back_ports=back)
            gens = automorphism_generators(key)
            assert len(_closure(alpha.n, gens)) == automorphism_count(key)

    def test_every_generator_is_an_automorphism(self):
        for shape, ports, back in _registry(n_max=4):
            alpha = RandomnessConfiguration.from_group_sizes(shape)
            key = chain_key(alpha, ports, include_back_ports=back)
            for g in automorphism_generators(key):
                assert is_chain_automorphism(key, g)

    def test_symmetry_census_perms_are_chain_automorphisms(self):
        """The quotient group contains the (source-preserving) census
        group: every permutation the analysis module certifies passes
        the chain predicate too."""
        from repro.analysis.symmetry import source_preserving_automorphisms

        for shape in enumerate_size_shapes(4):
            for kind in ("adversarial", "round-robin"):
                ports = runner_spec.make_ports(kind, shape, 0)
                alpha = RandomnessConfiguration.from_group_sizes(shape)
                key = chain_key(alpha, ports)
                for g in source_preserving_automorphisms(ports, alpha):
                    assert is_chain_automorphism(key, g)

    def test_non_automorphism_is_rejected(self):
        # Swapping the singleton with a pair member breaks the source
        # relabeling (sources have different multiplicities).
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        key = chain_key(alpha)
        assert not is_chain_automorphism(key, (1, 0, 2))
        assert is_chain_automorphism(key, (0, 2, 1))
        assert not is_chain_automorphism(key, (0, 0, 1))  # not a perm


def _image(labels, g):
    """Node ``g[i]`` takes node ``i``'s block, re-canonicalized."""
    raw = [0] * len(labels)
    for i, label in enumerate(labels):
        raw[g[i]] = label
    return canonical_labels(raw)


class TestOrbitKernel:
    def test_representatives_match_the_whole_group_oracle(self):
        """Every reachable full-chain state at n <= 6 (blackboard and
        adversarial ports) folds to the lexicographic minimum over the
        *whole* group -- enumerated element by element, not by the
        generator BFS the index runs -- with that orbit's size."""
        for n in range(1, 7):
            for shape in enumerate_size_shapes(n):
                alpha = RandomnessConfiguration.from_group_sizes(shape)
                kinds = (None,) if n < 2 else (None, "adversarial")
                for kind in kinds:
                    ports = (
                        None
                        if kind is None
                        else runner_spec.make_ports(kind, shape, 0)
                    )
                    key = chain_key(alpha, ports)
                    gens = automorphism_generators(key)
                    group = _closure(n, gens)
                    assert len(group) == automorphism_count(key)
                    full = compile_chain(
                        alpha, ports, use_memo=False, quotient=False
                    )
                    orbits = OrbitIndex(gens)
                    for labels in full.labels:
                        orbit = {_image(labels, g) for g in group}
                        rep = orbits.representative(labels)
                        assert rep == min(orbit), (shape, ports, labels)
                        assert orbits.orbit_sizes[rep] == len(orbit)

    def test_trivial_group_folds_nothing(self):
        orbits = OrbitIndex(())
        assert orbits.representative((0, 1, 1)) == (0, 1, 1)
        assert orbits.orbit_sizes == {(0, 1, 1): 1}


#: sha256 over ``repr((key, labels, out_table(), orbit_sizes))`` of every
#: chain ``phase-diagram 7`` compiles (quotient "auto", blackboard and
#: worst-case clique ports, in sweep order), as compiled before the
#: shared state-expansion loop and the array orbit closure existed.
PHASE_DIAGRAM_7_CHAINS_SHA256 = (
    "7686a2d601a1705806db12724d76a0c4088690d72d93f6ce7f08bd1b4d9f60ea"
)


class TestCompiledBytesPinned:
    def test_phase_diagram_7_chains_are_byte_identical(self):
        digest = hashlib.sha256()
        sweep = SweepSpec.for_total_size(
            7,
            models=("blackboard", "clique"),
            ports=("adversarial",),
            tasks=("leader",),
        )
        for spec in sweep.expand():
            alpha = RandomnessConfiguration.from_group_sizes(spec.sizes)
            ports = runner_spec.make_ports(spec.ports, spec.sizes, 0)
            chain = compile_chain(
                alpha, ports, use_memo=False, quotient="auto"
            )
            digest.update(
                repr(
                    (
                        chain.key,
                        chain.labels,
                        chain.out_table(),
                        getattr(chain, "orbit_sizes", None),
                    )
                ).encode()
            )
        assert digest.hexdigest() == PHASE_DIAGRAM_7_CHAINS_SHA256

    def test_orbit_sizes_sum_to_the_full_state_count(self):
        for n in range(1, 8):
            for shape in enumerate_size_shapes(n):
                alpha = RandomnessConfiguration.from_group_sizes(shape)
                kinds = (None,) if n < 2 else (None, "adversarial")
                for kind in kinds:
                    ports = (
                        None
                        if kind is None
                        else runner_spec.make_ports(kind, shape, 0)
                    )
                    full = compile_chain(
                        alpha, ports, use_memo=False, quotient=False
                    )
                    quot = compile_chain(
                        alpha, ports, use_memo=False, quotient=True
                    )
                    assert sum(quot.orbit_sizes) == full.num_states


class TestModesAndKeys:
    def test_configure_round_trips_and_validates(self):
        assert quotient_mode() == "off"
        assert configure_quotient("auto") == "off"
        assert configure_quotient(True) == "auto"
        assert quotient_mode() == "on"
        assert configure_quotient(None) == "on"
        assert quotient_mode() == "off"
        with pytest.raises(ValueError):
            configure_quotient("sometimes")

    def test_resolve_quotient_auto_needs_symmetry(self):
        symmetric = chain_key(
            RandomnessConfiguration.from_group_sizes((1, 1, 2))
        )
        trivial = chain_key(RandomnessConfiguration.from_group_sizes((1,)))
        assert not resolve_quotient(symmetric)  # mode off
        assert resolve_quotient(symmetric, True)
        assert resolve_quotient(symmetric, "auto")
        assert not resolve_quotient(trivial, "auto")
        assert resolve_quotient(trivial, "on")
        with use(quotient="auto"):
            assert resolve_quotient(symmetric)
            assert not resolve_quotient(trivial)
            with pytest.raises(ValueError):
                resolve_quotient(symmetric, "maybe")

    def test_quotient_keys_get_their_own_digest(self):
        key = chain_key(RandomnessConfiguration.from_group_sizes((2, 3)))
        tagged = quotient_key(key)
        assert is_quotient_key(tagged) and not is_quotient_key(key)
        assert quotient_key(tagged) == tagged
        assert base_key(tagged) == key
        assert key_digest(tagged) != key_digest(key)

    def test_effective_chain_key_matches_compile_chain(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 1, 2))
        with use(quotient="auto"):
            key = effective_chain_key(alpha)
            assert is_quotient_key(key)
            assert compile_chain(alpha, use_memo=False).key == key
            with use(quotient="off"):
                assert effective_chain_key(alpha) == base_key(key)

    def test_memo_separates_the_two_compilations(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 1, 1))
        full = compile_chain(alpha, quotient=False)
        quot = compile_chain(alpha, quotient=True)
        assert full is not quot
        assert compile_chain(alpha, quotient=False) is full
        assert compile_chain(alpha, quotient=True) is quot

    def test_quotient_chain_pickle_keeps_metadata(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 1, 1, 1))
        quot = compile_chain(alpha, use_memo=False, quotient=True)
        clone = pickle.loads(pickle.dumps(quot))
        assert isinstance(clone, QuotientChain)
        assert clone.key == quot.key
        assert clone.orbit_sizes == quot.orbit_sizes
        assert clone.group_order == quot.group_order
        task = runner_spec.make_task("leader", 4)
        assert run_queries(clone, [Query.limit(task)]) == (
            run_queries(quot, [Query.limit(task)])
        )
