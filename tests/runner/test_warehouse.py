"""Sweep <-> warehouse integration: memo-warm reruns and columnar
resume."""

import json

import pytest

from repro.chain import clear_memo
from repro.context import use
from repro.obs import OBS, reset_telemetry
from repro.results import ResultsStore
from repro.runner import ProcessPoolEngine, SweepSpec, run_sweep


@pytest.fixture
def sweep():
    return SweepSpec(
        shapes=((2, 3), (1, 2, 2), (5,), (1, 4)),
        models=("blackboard", "clique"),
        tasks=("leader", "k-leader:2"),
    )


def stripped(path):
    return [
        {k: v for k, v in json.loads(line).items() if k != "elapsed"}
        for line in path.read_text().splitlines()
    ]


class TestWarehouseWiring:
    def test_run_dir_gets_a_default_warehouse(self, tmp_path, sweep):
        outcome = run_sweep(sweep, run_dir=tmp_path / "run")
        store = ResultsStore(tmp_path / "run" / "warehouse")
        assert store.total_rows("records") == outcome.total
        assert "groups" not in store.tables()

    def test_warehouse_false_opts_out(self, tmp_path, sweep):
        run_sweep(sweep, run_dir=tmp_path / "run", warehouse=False)
        assert not (tmp_path / "run" / "warehouse").exists()

    def test_resume_reads_column_pages(self, tmp_path, sweep):
        first = run_sweep(sweep, run_dir=tmp_path / "run")
        resumed = run_sweep(sweep, run_dir=tmp_path / "run")
        assert resumed.executed == 0
        assert resumed.resumed == first.total
        assert resumed.result().rows == first.result().rows

    def test_shared_warehouse_makes_overlapping_sweeps_warm(
        self, tmp_path, sweep
    ):
        warehouse = tmp_path / "shared"
        run_sweep(sweep, run_dir=tmp_path / "a", warehouse=warehouse)
        clear_memo()
        # A *different* sweep whose cells overlap: same shapes/tasks,
        # different axis packaging -- every cell hits the shared memo.
        overlap = SweepSpec(
            shapes=sweep.shapes[:2],
            models=("clique",),
            tasks=sweep.tasks,
        )
        reset_telemetry()
        with use(trace=True):
            outcome = run_sweep(
                overlap, run_dir=tmp_path / "b", warehouse=warehouse
            )
        counters = OBS.metrics.snapshot()["counters"]
        reset_telemetry()
        assert counters.get("results.memo.hit") == outcome.total
        assert counters.get("chain.compile.miss", 0) == 0

    def test_warm_records_match_cold_without_pool(self, tmp_path, sweep):
        warehouse = tmp_path / "shared"
        run_sweep(sweep, run_dir=tmp_path / "cold", warehouse=warehouse)
        clear_memo()
        run_sweep(sweep, run_dir=tmp_path / "warm", warehouse=warehouse)
        assert stripped(tmp_path / "cold" / "records.jsonl") == stripped(
            tmp_path / "warm" / "records.jsonl"
        )

    def test_pooled_sweep_matches_serial_with_warehouse(
        self, tmp_path, sweep
    ):
        run_sweep(sweep, run_dir=tmp_path / "serial")
        pooled = run_sweep(
            sweep,
            engine=ProcessPoolEngine(workers=2),
            run_dir=tmp_path / "pooled",
        )
        assert stripped(tmp_path / "serial" / "records.jsonl") == sorted(
            stripped(tmp_path / "pooled" / "records.jsonl"),
            key=lambda r: r["index"],
        )
        assert pooled.executed == pooled.total


class TestRecordShape:
    def test_records_carry_only_job_fields(self, tmp_path, sweep):
        run_sweep(sweep, run_dir=tmp_path / "run")
        for record in stripped(tmp_path / "run" / "records.jsonl"):
            assert set(record) == {
                "key", "index", "spec", "seed", "gcd", "value",
            }
