"""Multi-sweep telemetry tables in one warehouse.

The cross-run analytics tier (`repro.obs.analyze`) assumes the
warehouse keeps telemetry from *different* traced sweeps apart: rows
carry their sweep's clock stamp and master seed, and both must survive
segment writes and compaction so `metrics history --master-seed` and
`obs diff` read clean per-sweep slices.
"""

import pytest

from repro.results import ResultsStore, col
from repro.results.store import TELEMETRY_COLUMNS


def sweep_rows(stamp, master_seed, jobs):
    return [
        {
            "stamp": float(stamp),
            "master_seed": int(master_seed),
            "kind": "counter",
            "name": "runner.jobs",
            "value": float(jobs),
            "count": int(jobs),
        },
        {
            "stamp": float(stamp),
            "master_seed": int(master_seed),
            "kind": "span.self",
            "name": "sweep.execute",
            "value": 0.5,
            "count": 1,
        },
    ]


@pytest.fixture
def store(tmp_path):
    store = ResultsStore(tmp_path / "warehouse")
    store.append_rows("telemetry", sweep_rows(100.0, 0, 10), TELEMETRY_COLUMNS)
    store.append_rows("telemetry", sweep_rows(200.0, 7, 20), TELEMETRY_COLUMNS)
    return store


class TestMultiSweepTelemetry:
    def test_sweeps_keep_distinguishable_stamps(self, store):
        table = store.table("telemetry")
        assert sorted(set(table.column("stamp"))) == [100.0, 200.0]
        # Stamp identifies the sweep: each slice is internally uniform.
        for stamp, seed in ((100.0, 0), (200.0, 7)):
            rows = table.filter(col("stamp") == stamp).to_rows()
            assert rows and all(r["master_seed"] == seed for r in rows)

    def test_query_by_master_seed_selects_one_sweep(self, store):
        table = store.table("telemetry")
        second = table.filter(col("master_seed") == 7)
        assert len(second) == 2
        assert set(second.column("stamp")) == {200.0}
        assert len(table.filter(col("master_seed") == 3)) == 0

    def test_slices_survive_compaction(self, store):
        store.compact()
        table = store.table("telemetry")
        assert len(table) == 4
        counters = table.filter(col("kind") == "counter").sort_by(["stamp"])
        assert counters.column("value").tolist() == [10.0, 20.0]
        assert counters.column("master_seed").tolist() == [0, 7]


class TestLegacyModelsTable:
    def test_an_old_models_table_reads_as_a_generic_table(self, tmp_path):
        # Older warehouses hold a ``models`` table of fitted cost models;
        # nothing writes it any more, but it stays an ordinary table.
        schema = {"stamp": "float", "digest": "str", "target": "str",
                  "coef": "str", "rows": "int"}
        store = ResultsStore(tmp_path / "warehouse")
        for stamp, digest in ((100.0, "aa"), (200.0, "bb")):
            store.append_rows(
                "models",
                [{"stamp": stamp, "digest": digest, "target": "evolve.dense",
                  "coef": "[1.0]", "rows": 8}],
                schema,
            )
        store.compact()
        reopened = ResultsStore(tmp_path / "warehouse")
        assert reopened.table("models").column("digest").tolist() == [
            "aa", "bb"
        ]
