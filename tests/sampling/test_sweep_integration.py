"""Sampled sweeps through the runner: engine-independent bytes and
warehouse-backed MC cells that merge across budgets."""

import json

import pytest

from repro.context import use
from repro.obs import OBS, reset_telemetry
from repro.runner import ProcessPoolEngine, SerialEngine, SweepSpec, run_sweep


@pytest.fixture
def sweep_args():
    return dict(
        shapes=((1, 2), (1, 3)),
        models=("blackboard", "clique"),
        ports=("adversarial", "random"),
        kind="sample",
        t=3,
        samples=2000,
        master_seed=11,
    )


def stripped(path):
    return [
        {k: v for k, v in json.loads(line).items() if k != "elapsed"}
        for line in path.read_text().splitlines()
    ]


class TestEngineIndependence:
    def test_serial_and_two_workers_write_identical_records(
        self, tmp_path, sweep_args
    ):
        sweep = SweepSpec(**sweep_args)
        run_sweep(sweep, run_dir=tmp_path / "serial", engine=SerialEngine())
        run_sweep(
            sweep,
            run_dir=tmp_path / "pooled",
            engine=ProcessPoolEngine(workers=2, chunksize=1),
        )
        serial = stripped(tmp_path / "serial" / "records.jsonl")
        pooled = stripped(tmp_path / "pooled" / "records.jsonl")
        assert serial == pooled
        assert all("successes" in r["value"] for r in serial)

    def test_budget_does_not_change_cell_identity(self, tmp_path, sweep_args):
        # samples is excluded from the stream key: a bigger budget
        # extends each cell's stream instead of resampling it, so the
        # small sweep's successes are a prefix-consistent lower bound.
        small = run_sweep(SweepSpec(**sweep_args), run_dir=tmp_path / "small")
        big = run_sweep(
            SweepSpec(**{**sweep_args, "samples": 4000}),
            run_dir=tmp_path / "big",
        )
        for a, b in zip(small.records, big.records):
            assert a["spec"]["sizes"] == b["spec"]["sizes"]
            assert a["value"]["successes"] <= b["value"]["successes"]
            assert b["value"]["samples"] == 2 * a["value"]["samples"]


class TestWarehouseMCCells:
    def test_warm_rerun_serves_sampled_cells_from_the_memo(
        self, tmp_path, sweep_args
    ):
        warehouse = tmp_path / "shared"
        sweep = SweepSpec(**sweep_args)
        run_sweep(sweep, run_dir=tmp_path / "cold", warehouse=warehouse)
        reset_telemetry()
        try:
            with use(trace=True):
                run_sweep(
                    sweep, run_dir=tmp_path / "warm", warehouse=warehouse
                )
            hits = OBS.metrics.counter("mc.memo.hit")
            fresh = OBS.metrics.counter("mc.blocks")
        finally:
            reset_telemetry()
        assert hits == len(sweep.expand()) * 2  # 2 full blocks per cell
        assert fresh == 0
        assert stripped(tmp_path / "cold" / "records.jsonl") == stripped(
            tmp_path / "warm" / "records.jsonl"
        )

    def test_bigger_budget_merges_memoized_blocks_with_fresh(
        self, tmp_path, sweep_args
    ):
        warehouse = tmp_path / "shared"
        run_sweep(
            SweepSpec(**sweep_args),
            run_dir=tmp_path / "cold",
            warehouse=warehouse,
        )
        doubled = SweepSpec(**{**sweep_args, "samples": 4000})
        warm = run_sweep(
            doubled, run_dir=tmp_path / "warm", warehouse=warehouse
        )
        cold_fresh = run_sweep(doubled, run_dir=tmp_path / "fresh")
        assert stripped(tmp_path / "warm" / "records.jsonl") == stripped(
            tmp_path / "fresh" / "records.jsonl"
        )
        assert all(
            r["value"]["samples"] == 4000 for r in warm.records
        )
