"""Runner-backed parallel paths in the analysis package."""

from fractions import Fraction

from repro.analysis import run_all_experiments
from repro.analysis.worst_case_search import exhaustive_worst_case
from repro.context import Context
from repro.runner import ProcessPoolEngine, SerialEngine
from repro.runner.worker import execute_experiment


class TestWorstCaseSearchEngine:
    def test_pooled_enumeration_matches_serial(self):
        serial = exhaustive_worst_case((1, 2))
        pooled = exhaustive_worst_case(
            (1, 2), engine=ProcessPoolEngine(workers=2), chunk=2
        )
        assert serial == pooled
        assert isinstance(pooled[0], Fraction)

    def test_callers_context_travels_in_every_chunk_payload(self):
        from repro.context import use
        from repro.runner.worker import execute_port_chunk

        captured = []

        class SpyPool(ProcessPoolEngine):
            def map(self, fn, payloads):
                payloads = list(payloads)
                captured.extend((fn, payload) for payload in payloads)
                return super().map(fn, payloads)

        with use(quotient="off"):
            pooled = exhaustive_worst_case(
                (1, 2), engine=SpyPool(workers=2), chunk=1
            )
        assert pooled == exhaustive_worst_case((1, 2))
        assert len(captured) > 1 and all(
            fn is execute_port_chunk and payload["context"].quotient == "off"
            for fn, payload in captured
        )

    def test_invalid_chunk_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            exhaustive_worst_case(
                (1, 2), engine=ProcessPoolEngine(workers=2), chunk=0
            )


class TestExperimentFanOut:
    def test_worker_returns_the_result_with_native_cell_types(self):
        from repro.analysis import ALL_EXPERIMENTS

        record = execute_experiment({"index": 0, "context": Context()})
        direct = ALL_EXPERIMENTS[0]()
        assert record["result"].experiment_id == direct.experiment_id
        assert record["result"].passed == direct.passed
        # The record carries the object itself (pickled across the pool
        # boundary), so cells keep their types: run_all_experiments is
        # engine-equivalent, not JSON-round-tripped.
        assert record["result"].rows == direct.rows

    def test_serial_engine_takes_the_legacy_path(self):
        from unittest import mock

        from repro.analysis import ALL_EXPERIMENTS

        # A serial engine must not round-trip results through JSON (cells
        # keep their original types), i.e. the worker is never consulted.
        with mock.patch(
            "repro.analysis.ALL_EXPERIMENTS", (ALL_EXPERIMENTS[0],)
        ), mock.patch(
            "repro.runner.worker.execute_experiment",
            side_effect=AssertionError("serial path must not use the worker"),
        ):
            results = run_all_experiments(engine=SerialEngine())
        assert len(results) == 1
        assert results[0].experiment_id == ALL_EXPERIMENTS[0]().experiment_id
