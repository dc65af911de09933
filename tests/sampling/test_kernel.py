"""Kernel contracts: substream purity, prefix stability, and bit-exact
agreement between the vectorized solvers and the scalar oracle."""

import numpy as np
import pytest

from repro.core import leader_election
from repro.core.task_zoo import unique_ids
from repro.models import adversarial_assignment, random_assignment
from repro.randomness import RandomnessConfiguration
from repro.sampling import (
    BLOCK_SAMPLES,
    block_indicators,
    philox_key,
    resolve_method,
    scalar_block_indicators,
    source_words,
    words_needed,
)


class TestSubstreams:
    def test_key_is_a_pure_function(self):
        assert np.array_equal(philox_key(7, 3), philox_key(7, 3))
        assert not np.array_equal(philox_key(7, 3), philox_key(7, 4))
        assert not np.array_equal(philox_key(7, 3), philox_key(8, 3))

    def test_blocks_are_independent_of_generation_order(self):
        # Generating block 5 never requires blocks 0..4: counter-based
        # keys, not sequential state.
        late = source_words(11, 5, 3, 2)
        early = source_words(11, 0, 3, 2)
        again = source_words(11, 5, 3, 2)
        assert np.array_equal(late, again)
        assert not np.array_equal(late, early)

    def test_word_prefix_extension(self):
        # More words on the same key extends -- never reshuffles -- the
        # earlier words, so horizons t and t' > t share their first
        # rounds (the CRN property across the t axis).
        small = source_words(3, 0, 4, 1)
        large = source_words(3, 0, 4, 3)
        assert np.array_equal(large[:, :, :1], small)

    def test_shapes(self):
        assert source_words(0, 0, 5, 2).shape == (BLOCK_SAMPLES, 5, 2)
        assert words_needed(1) == words_needed(64) == 1
        assert words_needed(65) == 2
        with pytest.raises(ValueError):
            words_needed(0)

    def test_resolve_method(self):
        assert resolve_method("auto") == "bits"
        assert resolve_method("scalar") == "scalar"
        for gone in ("quantum", "chain"):
            with pytest.raises(ValueError):
                resolve_method(gone)


# The sharp correctness test: the vectorized solvers must reproduce the
# per-trajectory oracle (realization_solves over the same Philox words)
# bit for bit, trial by trial.
ORACLE_CASES = [
    pytest.param((1, 2), None, 3, id="blackboard-1,2-t3"),
    pytest.param((2, 2), None, 5, id="blackboard-2,2-t5"),
    pytest.param((1, 1, 2), None, 4, id="blackboard-1,1,2-t4"),
    pytest.param((1, 2), "adversarial", 3, id="clique-adv-1,2-t3"),
    pytest.param((2, 3), "adversarial", 4, id="clique-adv-2,3-t4"),
    pytest.param((1, 1, 2), "random", 4, id="clique-rand-1,1,2-t4"),
]


class TestBitExactness:
    @pytest.mark.parametrize("sizes,port_kind,t", ORACLE_CASES)
    def test_bits_matches_scalar_oracle(self, sizes, port_kind, t):
        alpha = RandomnessConfiguration.from_group_sizes(sizes)
        if port_kind == "adversarial":
            ports = adversarial_assignment(sizes)
        elif port_kind == "random":
            ports = random_assignment(alpha.n, 5)
        else:
            ports = None
        task = leader_election(alpha.n)
        fast = block_indicators(
            alpha, task, t, ports, stream_seed=17, block=2, method="bits"
        )
        slow = scalar_block_indicators(
            alpha, task, t, ports, stream_seed=17, block=2
        )
        assert fast.dtype == bool and fast.shape == (BLOCK_SAMPLES,)
        assert np.array_equal(fast, slow)

    def test_scalar_is_the_method_behind_method_scalar(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        task = unique_ids(3)
        via_method = block_indicators(
            alpha, task, 3, stream_seed=1, block=0, method="scalar"
        )
        direct = scalar_block_indicators(
            alpha, task, 3, stream_seed=1, block=0
        )
        assert np.array_equal(via_method, direct)

    def test_distinct_blocks_sample_distinct_trials(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        task = leader_election(3)
        a = block_indicators(alpha, task, 1, stream_seed=0, block=0)
        b = block_indicators(alpha, task, 1, stream_seed=0, block=1)
        assert 0 < a.sum() < BLOCK_SAMPLES  # intermediate probability
        assert not np.array_equal(a, b)
