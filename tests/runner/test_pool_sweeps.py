"""Process-pool sweeps against serial ones (workers=2).

The acceptance contract: a pooled sweep produces byte-identical run
directories (modulo per-record wall-clock timing) and byte-identical
aggregates to a serial run, and both dispatch one ``execute_run``
payload per job.
"""

import json

import pytest

from repro.chain import clear_memo
from repro.context import use
from repro.obs import OBS, reset_telemetry
from repro.runner import (
    ProcessPoolEngine,
    SerialEngine,
    SweepSpec,
    run_sweep,
)
from repro.runner.worker import execute_run


def _strip_timing(records):
    return [
        {key: value for key, value in record.items() if key != "elapsed"}
        for record in records
    ]


def _sweep(**axes):
    axes = {"models": ("blackboard", "clique"), "ports": ("adversarial",),
            **axes}
    return SweepSpec.for_total_size(4, **axes)


def _assert_run_dirs_match(tmp_path, serial):
    for run in ("serial", "pooled"):
        lines = (tmp_path / run / "records.jsonl").read_text()
        loaded = [json.loads(line) for line in lines.splitlines()]
        assert _strip_timing(loaded) == _strip_timing(serial.records)


class SpyPool(ProcessPoolEngine):
    """A 2-worker pool that records each ``map`` call's function and
    payloads."""

    def __init__(self):
        super().__init__(workers=2)
        self.calls = []

    def map(self, fn, payloads):
        self.calls.append((fn, list(payloads)))
        return super().map(fn, self.calls[-1][1])


class TestPooledSweeps:
    def test_pool_matches_serial(self, tmp_path):
        serial = run_sweep(_sweep(), engine=SerialEngine(),
                           run_dir=tmp_path / "serial")
        pooled = run_sweep(
            _sweep(),
            engine=ProcessPoolEngine(workers=2),
            run_dir=tmp_path / "pooled",
        )
        assert _strip_timing(serial.records) == _strip_timing(pooled.records)
        assert serial.result().render() == pooled.result().render()
        # The persisted JSONL agrees too (same stripped records on disk).
        _assert_run_dirs_match(tmp_path, serial)

    def test_run_dirless_pool_matches_serial(self):
        baseline = run_sweep(_sweep(), engine=SerialEngine())
        pooled = run_sweep(_sweep(), engine=ProcessPoolEngine(workers=2))
        assert _strip_timing(baseline.records) == _strip_timing(
            pooled.records
        )

    def test_several_tasks_per_chain_match_serial(self, tmp_path):
        """Two jobs share each compiled chain (``--tasks leader
        weak-sb``); the pool may split them across workers."""
        sweep = _sweep(tasks=("leader", "weak-sb"))
        serial = run_sweep(sweep, engine=SerialEngine(),
                           run_dir=tmp_path / "serial")
        pooled = run_sweep(
            sweep,
            engine=ProcessPoolEngine(workers=2, chunksize=1),
            run_dir=tmp_path / "pooled",
        )
        assert serial.total == 2 * len(_sweep().expand())
        assert _strip_timing(serial.records) == _strip_timing(pooled.records)
        _assert_run_dirs_match(tmp_path, serial)

    def test_pool_dispatches_one_execute_run_payload_per_job(self, tmp_path):
        engine = SpyPool()
        outcome = run_sweep(_sweep(), engine=engine,
                            run_dir=tmp_path / "run")
        ((fn, payloads),) = engine.calls
        assert fn is execute_run
        assert [payload["index"] for payload in payloads] == list(
            range(outcome.total)
        )

    def test_worker_entry_points(self):
        from repro.runner import worker

        assert sorted(worker.__all__) == [
            "exact_limit_value", "execute_experiment",
            "execute_port_chunk", "execute_run",
        ]

    def test_serial_dispatches_execute_run_too(self):
        calls = []

        class SpySerial(SerialEngine):
            def map(self, fn, payloads):
                calls.append(fn)
                return super().map(fn, payloads)

        run_sweep(_sweep(), engine=SpySerial())
        assert calls == [execute_run]

    def test_resumed_pooled_sweep_executes_nothing(self, tmp_path):
        first = run_sweep(
            _sweep(),
            engine=ProcessPoolEngine(workers=2),
            run_dir=tmp_path / "run",
        )
        again = run_sweep(
            _sweep(),
            engine=ProcessPoolEngine(workers=2),
            run_dir=tmp_path / "run",
        )
        assert first.total == again.total == again.resumed
        assert again.executed == 0
        assert _strip_timing(first.records) == _strip_timing(again.records)


def _serial_and_pooled(sweep, tmp_path, **options):
    """Stripped records of a serial and a 2-worker run of ``sweep``."""
    runs = []
    for name, engine in (("serial", SerialEngine()),
                         ("pooled", ProcessPoolEngine(workers=2))):
        clear_memo()
        outcome = run_sweep(sweep, engine=engine,
                            run_dir=tmp_path / name, **options)
        runs.append(_strip_timing(outcome.records))
    return runs


class TestEveryRouteMatchesSerial:
    """The pool against the serial oracle on each exact-sweep route:
    quotient on/off/auto, random ports, and cells served from a warm
    warehouse memo.  (Sampled sweeps: ``tests/sampling/
    test_sweep_integration.py``.)"""

    @pytest.mark.parametrize("quotient", ["off", "auto", "on"])
    def test_quotient_modes(self, tmp_path, quotient):
        sweep = _sweep(models=("clique",),
                       ports=("adversarial", "round-robin"))
        with use(quotient="off"):
            (reference, _) = _serial_and_pooled(sweep, tmp_path / "ref")
        with use(quotient=quotient):
            serial, pooled = _serial_and_pooled(sweep, tmp_path / quotient)
        assert serial == pooled == reference

    def test_random_ports(self, tmp_path):
        sweep = _sweep(models=("clique",), ports=("random",),
                       replicates=(0, 1))
        serial, pooled = _serial_and_pooled(sweep, tmp_path)
        assert serial == pooled

    def test_memo_warm_pool_matches_cold_serial(self, tmp_path):
        sweep = _sweep(tasks=("leader", "weak-sb"))
        warehouse = tmp_path / "warehouse"
        clear_memo()
        cold = run_sweep(sweep, run_dir=tmp_path / "cold",
                         warehouse=warehouse)
        clear_memo()
        warm = run_sweep(sweep, engine=ProcessPoolEngine(workers=2),
                         run_dir=tmp_path / "warm", warehouse=warehouse)
        assert _strip_timing(warm.records) == _strip_timing(cold.records)


def _traced_counters(sweep, engine, run_dir, **options):
    """The sweep's outcome and the counters it left under tracing."""
    reset_telemetry()
    with use(trace=True):
        outcome = run_sweep(sweep, engine=engine, run_dir=run_dir,
                            **options)
    counters = OBS.metrics.snapshot()["counters"]
    reset_telemetry()
    return outcome, counters


class TestPoolTelemetry:
    """What grouped dispatch's per-group statistics used to report,
    read from the counters the workers ship back under tracing."""

    def test_cold_pool_compiles_each_chain_once_into_the_run_dir(
        self, tmp_path
    ):
        def chain_files(run):
            return sorted(
                path.name
                for path in (tmp_path / run / "chains").glob("*.chain.pkl")
            )

        clear_memo()
        run_sweep(_sweep(), engine=SerialEngine(),
                  run_dir=tmp_path / "serial")
        clear_memo()
        _, counters = _traced_counters(
            _sweep(), ProcessPoolEngine(workers=2), tmp_path / "pooled"
        )
        assert chain_files("pooled") == chain_files("serial")
        assert counters["chain.compile.miss"] == len(chain_files("pooled"))

    def test_memo_warm_pool_compiles_nothing(self, tmp_path):
        sweep = _sweep(tasks=("leader", "weak-sb"))
        warehouse = tmp_path / "warehouse"
        clear_memo()
        run_sweep(sweep, run_dir=tmp_path / "cold", warehouse=warehouse)
        clear_memo()
        outcome, counters = _traced_counters(
            sweep, ProcessPoolEngine(workers=2), tmp_path / "warm",
            warehouse=warehouse,
        )
        assert counters.get("results.memo.hit") == outcome.total
        assert counters.get("chain.compile.miss", 0) == 0


class TestPooledExperiments:
    @pytest.mark.parametrize("quotient", ["off", "auto"])
    def test_registry_matches_serial(self, quotient):
        """Pool workers compile the registry's chains themselves; the
        results equal the serial run's cell for cell."""
        from repro.analysis import run_all_experiments

        with use(quotient=quotient):
            clear_memo()
            serial = run_all_experiments()
            clear_memo()
            pooled = run_all_experiments(engine=ProcessPoolEngine(workers=2))
        assert [
            (r.experiment_id, r.passed, r.rows) for r in pooled
        ] == [(r.experiment_id, r.passed, r.rows) for r in serial]


class TestProcessContext:
    def test_callers_disk_cache_survives_a_run_dirless_pool_sweep(
        self, tmp_path
    ):
        from repro.chain import disk_cache

        with use(chain_cache=str(tmp_path / "mine")):
            installed = disk_cache()
            run_sweep(_sweep(), engine=ProcessPoolEngine(workers=2))
            assert disk_cache() is installed

    def test_quotient_mode_travels_in_every_pool_payload(self):
        from repro.analysis import iter_all_experiments

        captured = []

        class SpyEngine:
            name = "spy"

            def map(self, fn, payloads):
                captured.extend(payloads)
                return iter(())

        with use(quotient="on"):
            list(iter_all_experiments(engine=SpyEngine()))
        assert captured and all(
            payload["context"].quotient == "on" for payload in captured
        )
