"""The full experiment registry, executed end to end.

This is the repository's single most comprehensive test: every registered
experiment (figures, lemmas, theorems, extensions) runs with default
parameters and must reproduce the paper.  The registry runs once per
module; every test below checks that one result list.
"""

import pytest

from repro.analysis import ALL_EXPERIMENTS, run_all_experiments


@pytest.fixture(scope="module")
def results():
    return run_all_experiments()


class TestRegistry:
    def test_all_experiments_pass(self, results):
        failures = [
            result.experiment_id
            for result in results
            if not result.passed
        ]
        assert not failures, f"diverged from the paper: {failures}"

    def test_experiment_ids_unique(self, results):
        ids = [result.experiment_id for result in results]
        assert len(ids) == len(ALL_EXPERIMENTS)
        assert len(ids) == len(set(ids))

    def test_every_result_renders(self, results):
        for result in results:
            text = result.render()
            assert result.experiment_id in text
            assert "verdict" in text

    def test_results_serialize(self, results):
        from repro.analysis import results_from_json, results_to_json

        rebuilt = results_from_json(results_to_json(results))
        assert [r.experiment_id for r in rebuilt] == [
            r.experiment_id for r in results
        ]
