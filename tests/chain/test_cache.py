"""Disk cache: cross-process chain persistence and corruption safety."""

import hashlib
import json
import pickle
import pickletools

import pytest

from repro.chain import (
    ChainDiskCache,
    Query,
    chain_key,
    clear_memo,
    compile_chain,
    disk_cache,
    run_queries,
)
from repro.chain.cache import FILE_MAGIC
from repro.context import Context, use
from repro.core import leader_election
from repro.models import adversarial_assignment, round_robin_assignment
from repro.obs import OBS, reset_telemetry
from repro.randomness import RandomnessConfiguration, enumerate_size_shapes
from repro.runner import SerialEngine, SweepSpec, run_sweep


@pytest.fixture
def cache_dir(tmp_path):
    """A cache directory in the active context for the test's duration."""
    root = tmp_path / "chains"
    clear_memo()
    with use(chain_cache=str(root)):
        yield root
    clear_memo()


class TestDiskCache:
    def test_compile_stores_and_reloads(self, cache_dir):
        alpha = RandomnessConfiguration.from_group_sizes((2, 3))
        ports = adversarial_assignment((2, 3))
        original = compile_chain(alpha, ports)
        assert len(disk_cache()) == 1
        clear_memo()  # force the next compile to go through the disk
        reloaded = compile_chain(alpha, ports)
        assert reloaded is not original
        assert reloaded.key == original.key
        assert reloaded.labels == original.labels
        task = leader_election(alpha.n)
        assert run_queries(reloaded, [Query.limit(task)]) == (
            run_queries(original, [Query.limit(task)])
        )

    def test_pickle_round_trip_drops_caches(self, cache_dir):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        chain = compile_chain(alpha)
        task = leader_election(3)
        chain.solvable_mask(task)  # populate a per-process cache
        clone = pickle.loads(pickle.dumps(chain))
        assert clone.labels == chain.labels
        assert run_queries(clone, [Query.series(task, 4)]) == (
            run_queries(chain, [Query.series(task, 4)])
        )

    def test_corrupt_file_is_a_miss(self, cache_dir):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        compile_chain(alpha)
        store = disk_cache()
        path = store.path_for(chain_key(alpha))
        path.write_bytes(b"not a pickle")
        clear_memo()
        chain = compile_chain(alpha)  # recompiles instead of raising
        assert chain.num_states >= 1

    def test_one_shot_compiles_bypass_the_disk_cache(self, cache_dir):
        # Exhaustive enumerations (use_memo=False) must not flood the
        # cache directory with single-use chains.
        alpha = RandomnessConfiguration.from_group_sizes((2, 2))
        compile_chain(alpha, adversarial_assignment((2, 2)), use_memo=False)
        assert len(disk_cache()) == 0

    def test_wrong_key_content_is_a_miss(self, cache_dir):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        other = RandomnessConfiguration.from_group_sizes((2, 2))
        chain = compile_chain(alpha)
        store = ChainDiskCache(cache_dir)
        # Plant a well-formed (1,2) cache file under the (2,2) key file.
        store.store(chain).rename(store.path_for(chain_key(other)))
        assert store.load(chain_key(other)) is None


class TestLookupOrder:
    """``compile_chain`` looks in the process memo, then the disk cache,
    and compiles only when both miss."""

    def _counted(self, compile):
        reset_telemetry()
        with use(trace=True):
            chain = compile()
        counters = OBS.metrics.snapshot()["counters"]
        reset_telemetry()
        return chain, counters

    def test_memo_hit_never_reads_the_disk(self, cache_dir, monkeypatch):
        alpha = RandomnessConfiguration.from_group_sizes((1, 1, 2))
        first = compile_chain(alpha)
        monkeypatch.setattr(
            ChainDiskCache, "load",
            lambda self, key: pytest.fail("memo-warm chain read from disk"),
        )
        again, counters = self._counted(lambda: compile_chain(alpha))
        assert again is first
        assert counters == {"chain.compile.hit.memo": 1}

    def test_disk_hit_never_compiles(self, cache_dir, monkeypatch):
        from repro.chain import engine

        alpha = RandomnessConfiguration.from_group_sizes((2, 3))
        ports = adversarial_assignment((2, 3))
        first = compile_chain(alpha, ports)
        clear_memo()
        monkeypatch.setattr(
            engine, "_build_chain",
            lambda key, alpha: pytest.fail("disk-warm chain recompiled"),
        )
        again, counters = self._counted(lambda: compile_chain(alpha, ports))
        assert again.key == first.key
        assert counters.get("chain.compile.hit.disk") == 1
        assert "chain.compile.miss" not in counters

    def test_cold_chain_compiles_once_and_lands_on_disk(self, cache_dir):
        alpha = RandomnessConfiguration.from_group_sizes((1, 3))
        chain, counters = self._counted(lambda: compile_chain(alpha))
        assert counters.get("chain.compile.miss") == 1
        assert disk_cache().load(chain.key).labels == chain.labels


class TestLRUEviction:
    def _fill(self, root, shapes):
        """Compile one chain per shape through a capless cache."""
        import time

        with use(chain_cache=str(root)):
            for shape in shapes:
                clear_memo()
                compile_chain(RandomnessConfiguration.from_group_sizes(shape))
                # mtimes are the LRU clock; space the stores out so
                # eviction order is deterministic even on coarse
                # filesystems.
                time.sleep(0.01)
        clear_memo()

    def test_entries_are_listed_lru_first(self, tmp_path):
        root = tmp_path / "chains"
        self._fill(root, [(1, 2), (2, 2), (1, 1, 2)])
        entries = ChainDiskCache(root).entries()
        assert len(entries) == 3
        assert entries == sorted(
            entries, key=lambda e: (e.mtime, e.digest)
        )

    def test_max_entries_evicts_least_recently_used(self, tmp_path):
        root = tmp_path / "chains"
        self._fill(root, [(1, 2), (2, 2), (1, 1, 2)])
        cache = ChainDiskCache(root, max_entries=2)
        oldest = cache.entries()[0]
        removed = cache.evict()
        assert [entry.digest for entry in removed] == [oldest.digest]
        assert len(cache.entries()) == 2
        assert not oldest.path.exists()

    def test_max_bytes_cap_applies_on_store(self, tmp_path):
        root = tmp_path / "chains"
        cache = ChainDiskCache(root, max_bytes=1)  # nothing fits
        for shape in [(1, 2), (2, 2)]:
            alpha = RandomnessConfiguration.from_group_sizes(shape)
            cache.store(compile_chain(alpha, use_memo=False))
        assert ChainDiskCache(root).entries() == []

    def test_load_refreshes_recency(self, tmp_path):
        import time

        root = tmp_path / "chains"
        self._fill(root, [(1, 2), (2, 2)])
        cache = ChainDiskCache(root)
        oldest = cache.entries()[0]
        time.sleep(0.01)
        # Touch the cold entry by loading it; the other one now ages out.
        alpha_keys = [
            chain_key(RandomnessConfiguration.from_group_sizes(shape))
            for shape in [(1, 2), (2, 2)]
        ]
        cold_key = next(
            key for key in alpha_keys
            if cache.path_for(key).name.startswith(oldest.digest)
        )
        assert cache.load(cold_key) is not None
        removed = cache.evict(max_entries=1)
        assert len(removed) == 1
        assert [entry.digest for entry in cache.entries()] == [oldest.digest]

    def test_clear_removes_everything(self, tmp_path):
        root = tmp_path / "chains"
        self._fill(root, [(1, 2), (2, 2)])
        cache = ChainDiskCache(root)
        assert cache.clear() == 2
        assert cache.entries() == []
        assert cache.total_bytes() == 0

    def test_unbounded_cache_never_evicts(self, tmp_path):
        root = tmp_path / "chains"
        self._fill(root, [(1, 2), (2, 2)])
        cache = ChainDiskCache(root)
        assert cache.evict() == []
        assert len(cache.entries()) == 2

    def test_negative_caps_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ChainDiskCache(tmp_path / "chains", max_bytes=-1)
        with pytest.raises(ValueError):
            ChainDiskCache(tmp_path / "chains", max_entries=-1)

    def test_negative_explicit_evict_caps_rejected(self, tmp_path):
        # `repro chains prune --max-entries -1` must not silently wipe
        # the cache: explicit caps get the same validation the
        # constructor enforces.
        root = tmp_path / "chains"
        self._fill(root, [(1, 2)])
        cache = ChainDiskCache(root)
        with pytest.raises(ValueError):
            cache.evict(max_entries=-1)
        with pytest.raises(ValueError):
            cache.evict(max_bytes=-1)
        assert len(cache.entries()) == 1


class TestLoadStats:
    def _key(self, shape):
        return chain_key(RandomnessConfiguration.from_group_sizes(shape))

    def _fill(self, root, shapes):
        with use(chain_cache=str(root)):
            for shape in shapes:
                clear_memo()
                compile_chain(RandomnessConfiguration.from_group_sizes(shape))
        clear_memo()

    def test_loads_are_counted_in_the_sidecar(self, tmp_path):
        root = tmp_path / "chains"
        self._fill(root, [(1, 2), (2, 2)])
        cache = ChainDiskCache(root)
        assert all(entry.loads == 0 for entry in cache.entries())
        key = self._key((1, 2))
        assert cache.load(key) is not None
        assert cache.load(key) is not None
        by_digest = {entry.digest: entry.loads for entry in cache.entries()}
        digest = cache.path_for(key).name.removesuffix(".chain.pkl")
        assert by_digest[digest] == 2
        assert sum(by_digest.values()) == 2  # the other entry stays at 0
        # Loads land in the append-only event log; compaction folds them
        # into the snapshot without changing the observable counts.
        assert (root / "_stats.log").exists()
        assert cache.compact_stats() == {digest: 2}
        assert (root / "_stats.json").exists()
        assert {e.digest: e.loads for e in cache.entries()} == by_digest

    def test_hit_count_breaks_lru_mtime_ties(self, tmp_path):
        import os

        root = tmp_path / "chains"
        self._fill(root, [(1, 2), (2, 2), (1, 1, 2)])
        cache = ChainDiskCache(root)
        hot_key = self._key((2, 2))
        assert cache.load(hot_key) is not None
        # Force an mtime tie so only the load count can order eviction.
        for entry in cache.entries():
            os.utime(entry.path, (1000000000, 1000000000))
        ordered = cache.entries()
        assert [entry.loads for entry in ordered] == [0, 0, 1]
        removed = cache.evict(max_entries=1)
        hot_digest = cache.path_for(hot_key).name.removesuffix(".chain.pkl")
        assert hot_digest not in {entry.digest for entry in removed}
        assert [entry.digest for entry in cache.entries()] == [hot_digest]

    def test_eviction_drops_stats_of_removed_entries(self, tmp_path):
        root = tmp_path / "chains"
        self._fill(root, [(1, 2), (2, 2)])
        cache = ChainDiskCache(root)
        for shape in [(1, 2), (2, 2)]:
            assert cache.load(self._key(shape)) is not None
        assert sum(cache.load_stats().values()) == 2
        cache.clear()
        assert cache.load_stats() == {}

    def test_corrupt_sidecar_degrades_to_empty_stats(self, tmp_path):
        root = tmp_path / "chains"
        self._fill(root, [(1, 2)])
        (root / "_stats.json").write_text("not json {")
        cache = ChainDiskCache(root)
        assert cache.load_stats() == {}
        # ...and loading repairs it.
        assert cache.load(self._key((1, 2))) is not None
        assert sum(cache.load_stats().values()) == 1

    def test_stats_file_is_not_listed_as_a_chain(self, tmp_path):
        root = tmp_path / "chains"
        self._fill(root, [(1, 2)])
        cache = ChainDiskCache(root)
        assert cache.load(self._key((1, 2))) is not None
        assert len(cache.entries()) == 1
        assert len(cache) == 1


class TestRunnerPlumbing:
    def test_sweep_with_run_dir_persists_chains(self, tmp_path):
        clear_memo()
        sweep = SweepSpec.for_total_size(3, models=("blackboard", "clique"))
        run_dir = tmp_path / "run"
        outcome = run_sweep(sweep, engine=SerialEngine(), run_dir=run_dir)
        assert outcome.executed == outcome.total
        chains = list((run_dir / "chains").glob("*.chain.pkl"))
        assert chains  # every exact job's chain got persisted
        # A resumed sweep re-runs nothing and leaves the cache intact.
        resumed = run_sweep(sweep, engine=SerialEngine(), run_dir=run_dir)
        assert resumed.executed == 0
        assert resumed.resumed == resumed.total
        clear_memo()

    def test_sweep_without_run_dir_leaves_cache_unconfigured(self):
        sweep = SweepSpec.for_total_size(2, models=("blackboard",))
        run_sweep(sweep, engine=SerialEngine())
        assert disk_cache() is None

    def test_run_dir_sweep_detaches_its_cache_afterwards(self, tmp_path):
        # A run-dir sweep on the serial engine runs its jobs in THIS
        # process under the sweep's context; leaving it must restore the
        # caller's, so later work never writes into a finished run
        # directory.
        clear_memo()
        sweep = SweepSpec.for_total_size(2, models=("blackboard",))
        run_sweep(sweep, engine=SerialEngine(), run_dir=tmp_path / "run")
        assert disk_cache() is None
        clear_memo()

    def test_a_payloads_cache_does_not_outlive_its_job(self, tmp_path):
        # Reused pool workers see payloads back to back; a job's
        # chain_cache must be gone once the job returns.
        from repro.runner.worker import execute_run

        clear_memo()
        spec = {
            "sizes": [1, 2], "model": "blackboard", "ports": "none",
            "task": "leader", "kind": "exact", "t": 4,
            "samples": 100, "replicate": 0,
        }
        execute_run({
            "spec": spec, "master_seed": 0, "index": 0,
            "context": Context(chain_cache=str(tmp_path / "chains")),
        })
        assert list((tmp_path / "chains").glob("*.chain.pkl"))
        assert disk_cache() is None
        clear_memo()

    def test_store_survives_a_vanished_cache_directory(self, tmp_path):
        # Best-effort persistence: deleting the run directory must not
        # crash later compilations that still hold the cache handle.
        import shutil

        clear_memo()
        with use(chain_cache=str(tmp_path / "gone")):
            store = disk_cache()
            shutil.rmtree(tmp_path / "gone")
            alpha = RandomnessConfiguration.from_group_sizes((1, 2))
            chain = compile_chain(alpha)  # recreates the directory
            assert chain.num_states >= 1
            assert store.load(chain.key) is not None
        clear_memo()


def _payload_start(data: bytes) -> int:
    """Offset of the pickled chain inside a cache file (after any
    header): the PROTO opcode for the highest protocol, then FRAME."""
    start = data.find(bytes([0x80, pickle.HIGHEST_PROTOCOL, 0x95]))
    assert start >= 0
    return start


def _flip_protocol_byte(data: bytes) -> bytes:
    at = _payload_start(data) + 1
    return data[:at] + bytes([data[at] ^ 0x03]) + data[at + 1:]


def _flip_transition_byte(data: bytes) -> bytes:
    """Flip the low bit of the first small int of the ``_out`` table
    (a destination state id or a transition count)."""
    start = _payload_start(data)
    seen_out = False
    for opcode, arg, pos in pickletools.genops(data[start:]):
        if arg == "_out":
            seen_out = True
        elif seen_out and opcode.name == "BININT1":
            at = start + pos + 1
            return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]
    raise AssertionError("no transition table in the pickle")


def _truncate(data: bytes) -> bytes:
    return data[: len(data) // 2]


_HEADER = len(FILE_MAGIC) + hashlib.sha256().digest_size


def _flip(data: bytes, at: int) -> bytes:
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]


def _with_header(payload: bytes) -> bytes:
    """A well-formed cache file around ``payload`` (valid digest)."""
    return FILE_MAGIC + hashlib.sha256(payload).digest() + payload


CORRUPTIONS = {
    "protocol-byte": _flip_protocol_byte,
    "transition-byte": _flip_transition_byte,
    "truncated": _truncate,
    "magic-byte": lambda data: _flip(data, 0),
    "digest-byte": lambda data: _flip(data, len(FILE_MAGIC)),
    "stop-byte": lambda data: _flip(data, len(data) - 1),
    "header-only": lambda data: data[:_HEADER],
    "mid-header": lambda data: data[: _HEADER - 16],
    "empty": lambda data: b"",
    # What older versions wrote: the bare pickle, no header.
    "legacy-headerless": lambda data: data[_payload_start(data):],
    "trailing-garbage": lambda data: data + b"\x00garbage",
    "zeroed-payload": lambda data: data[:_HEADER] + bytes(len(data) - _HEADER),
    # Digest checks out, but the payload is not a chain at all.
    "foreign-object": lambda data: _with_header(
        pickle.dumps({"not": "a chain"})
    ),
}


class TestFailClosed:
    """A damaged cache file is a counted miss, never an exception and
    never a chain with the right key but a different transition table."""

    @pytest.fixture
    def traced(self):
        reset_telemetry()
        with use(trace=True):
            yield OBS.metrics
        reset_telemetry()

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_corrupt_file_loads_as_a_counted_miss(
        self, tmp_path, traced, corruption
    ):
        alpha = RandomnessConfiguration.from_group_sizes((1, 1, 2))
        chain = compile_chain(
            alpha, round_robin_assignment(alpha.n), use_memo=False
        )
        store = ChainDiskCache(tmp_path / "chains")
        path = store.store(chain)
        assert store.load(chain.key) is not None
        path.write_bytes(CORRUPTIONS[corruption](path.read_bytes()))
        reset_telemetry()
        assert store.load(chain.key) is None
        assert traced.counter("chain.cache.load.miss") == 1
        assert traced.counter("chain.cache.load.hit") == 0

    def test_every_single_byte_flip_is_a_counted_miss(self, tmp_path, traced):
        # The unverified loader let ~13% of single-bit flips through as a
        # chain with the right key and a different transition table; with
        # the digest, damage anywhere in the file is a miss.
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        chain = compile_chain(alpha, use_memo=False)
        store = ChainDiskCache(tmp_path / "chains")
        path = store.store(chain)
        clean = path.read_bytes()
        reset_telemetry()
        for at in range(len(clean)):
            bit = 1 << (at % 8)
            path.write_bytes(
                clean[:at] + bytes([clean[at] ^ bit]) + clean[at + 1:]
            )
            assert store.load(chain.key) is None, at
        assert traced.counter("chain.cache.load.miss") == len(clean)
        assert traced.counter("chain.cache.load.hit") == 0

    @pytest.mark.parametrize(
        "corruption", ["magic-byte", "digest-byte", "empty", "foreign-object"]
    )
    def test_read_raises_value_error_for_a_bad_file(
        self, tmp_path, corruption
    ):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        store = ChainDiskCache(tmp_path / "chains")
        path = store.store(compile_chain(alpha, use_memo=False))
        path.write_bytes(CORRUPTIONS[corruption](path.read_bytes()))
        with pytest.raises(ValueError):
            store.read(path)

    def test_storing_again_heals_a_damaged_entry(self, tmp_path, traced):
        alpha = RandomnessConfiguration.from_group_sizes((1, 1, 2))
        chain = compile_chain(alpha, use_memo=False)
        store = ChainDiskCache(tmp_path / "chains")
        path = store.store(chain)
        path.write_bytes(_flip_transition_byte(path.read_bytes()))
        assert store.load(chain.key) is None
        assert store.store(chain) == path
        reloaded = store.load(chain.key)
        assert reloaded is not None
        assert reloaded.out_table() == chain.out_table()
        assert traced.counter("chain.cache.load.miss") == 1
        assert traced.counter("chain.cache.load.hit") == 1

    def test_chains_inspect_reads_through_the_verified_loader(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        store = ChainDiskCache(tmp_path / "chains")
        for shape in ((1, 2), (1, 1, 2)):
            alpha = RandomnessConfiguration.from_group_sizes(shape)
            store.store(compile_chain(alpha, use_memo=False))
        damaged = store.path_for(
            chain_key(RandomnessConfiguration.from_group_sizes((1, 1, 2)))
        )
        damaged.write_bytes(_flip_transition_byte(damaged.read_bytes()))
        assert main(["chains", "inspect", str(tmp_path / "chains")]) == 0
        out = capsys.readouterr().out
        assert out.count("unreadable") == 1
        assert "n=3" in out

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_resume_over_corrupted_chains_matches_clean_records(
        self, tmp_path, corruption
    ):
        sweep = SweepSpec.for_total_size(
            4, models=("blackboard", "clique"),
            ports=("adversarial", "round-robin"),
        )

        def lines(run_dir):
            return [
                {k: v for k, v in json.loads(line).items() if k != "elapsed"}
                for line in (run_dir / "records.jsonl").read_text().splitlines()
            ]

        clean, damaged = tmp_path / "clean", tmp_path / "damaged"
        for run_dir in (clean, damaged):
            clear_memo()
            run_sweep(sweep, engine=SerialEngine(), run_dir=run_dir,
                      warehouse=False)
        files = list((damaged / "chains").glob("*.chain.pkl"))
        assert files
        for path in files:
            path.write_bytes(CORRUPTIONS[corruption](path.read_bytes()))
        # Interrupt: keep the first two records, resume the rest from the
        # corrupted chain cache.
        records = (damaged / "records.jsonl").read_text().splitlines()
        (damaged / "records.jsonl").write_text(
            "\n".join(records[:2]) + "\n"
        )
        clear_memo()
        resumed = run_sweep(sweep, engine=SerialEngine(), run_dir=damaged,
                            warehouse=False)
        clear_memo()
        assert resumed.resumed == 2
        assert resumed.executed == len(records) - 2
        assert lines(damaged) == lines(clean)


def _format_grid():
    for n in (2, 3, 4):
        for shape in enumerate_size_shapes(n):
            for name, make in (
                ("blackboard", lambda shape: None),
                ("adversarial", adversarial_assignment),
            ):
                yield pytest.param(shape, make, id=f"{shape}-{name}")


class TestFileFormat:
    @pytest.mark.parametrize("shape,make_ports", list(_format_grid()))
    def test_round_trip_answers_like_the_original(
        self, tmp_path, shape, make_ports
    ):
        alpha = RandomnessConfiguration.from_group_sizes(shape)
        chain = compile_chain(alpha, make_ports(shape), use_memo=False)
        store = ChainDiskCache(tmp_path / "chains")
        path = store.store(chain)
        data = path.read_bytes()
        assert data.startswith(FILE_MAGIC)
        payload = data[_HEADER:]
        assert data[len(FILE_MAGIC):_HEADER] == (
            hashlib.sha256(payload).digest()
        )
        reloaded = store.load(chain.key)
        assert reloaded is not None and reloaded is not chain
        assert reloaded.key == chain.key
        assert reloaded.out_table() == chain.out_table()
        task = leader_election(alpha.n)
        queries = [
            Query.series(task, 4),
            Query.limit(task),
            Query.expected_time(task),
            Query.solvable(task),
        ]
        assert run_queries(reloaded, queries) == run_queries(chain, queries)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
