"""Adaptive sampling of one cell: stops by interval width or cap, and
measures exactly what a one-shot run of the same size measures."""

import pytest

from repro.core import leader_election
from repro.randomness import RandomnessConfiguration
from repro.sampling import adaptive_cell_estimate, sample_cell


class TestAdaptiveCell:
    def test_stops_when_narrow_enough(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        task = leader_election(3)
        estimate = adaptive_cell_estimate(
            alpha, task, 3, stream_seed=0, target_width=0.02,
            initial=1000, increment=1000, max_samples=64000,
        )
        low, high = estimate.interval()
        assert high - low <= 0.02
        assert estimate.samples < 64000

    def test_adaptive_run_is_a_one_shot_prefix(self):
        # Adaptivity decides when to stop, never what is measured: the
        # stopped estimate is bit-identical to a one-shot run of the
        # same size over the same stream.
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        task = leader_election(3)
        adaptive = adaptive_cell_estimate(
            alpha, task, 3, stream_seed=3, target_width=0.03,
            initial=500, increment=700,
        )
        one_shot = sample_cell(
            alpha, task, 3, stream_seed=3, samples=adaptive.samples
        )
        assert adaptive == one_shot

    def test_respects_the_cap(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        task = leader_election(3)
        estimate = adaptive_cell_estimate(
            alpha, task, 3, stream_seed=0, target_width=0.0001,
            initial=1000, increment=1000, max_samples=3000,
        )
        assert estimate.samples == 3000

    def test_validation(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        task = leader_election(3)
        with pytest.raises(ValueError):
            adaptive_cell_estimate(
                alpha, task, 3, stream_seed=0, target_width=0.0
            )
