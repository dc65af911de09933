"""Shared-memory chain store: publish/attach round trips and lookup."""

import numpy as np
import pytest

from repro.chain import (
    SharedChainStore,
    attach_chain,
    chain_key,
    clear_memo,
    compile_chain,
    shared_chain,
)
from repro.chain import shm as shm_module
from repro.chain.cache import ChainDiskCache, key_digest
from repro.core import leader_election
from repro.models import adversarial_assignment
from repro.context import use
from repro.obs import OBS, reset_telemetry
from repro.randomness import RandomnessConfiguration
from repro.runner import (
    ProcessPoolEngine,
    SerialEngine,
    SweepSpec,
    run_sweep,
)


def _chain(shape=(1, 2, 2), ports=None):
    alpha = RandomnessConfiguration.from_group_sizes(shape)
    return compile_chain(alpha, ports)


class TestRoundTrip:
    def test_attach_reproduces_the_chain(self):
        chain = _chain()
        with SharedChainStore() as store:
            attached = attach_chain(store.publish(chain))
            assert attached.key == chain.key
            assert attached.labels == chain.labels
            assert attached.n == chain.n and attached.k == chain.k
            assert attached.num_states == chain.num_states
            assert attached.num_transitions == chain.num_transitions
            assert attached.out_table() == chain.out_table()

    def test_attached_queries_match_exactly(self):
        chain = _chain()
        task = leader_election(5)
        with SharedChainStore() as store:
            attached = attach_chain(store.publish(chain))
            assert attached.solving_probability_series(
                task, 6
            ) == chain.solving_probability_series(task, 6)
            assert attached.limit_solving_probability(
                task
            ) == chain.limit_solving_probability(task)
            assert np.array_equal(
                attached.coo()[2], chain.coo()[2]
            )

    def test_ports_chain_round_trips(self):
        shape = (2, 3)
        chain = _chain(shape, adversarial_assignment(shape))
        task = leader_election(5)
        with SharedChainStore() as store:
            attached = attach_chain(store.publish(chain))
            assert attached.key == chain.key
            assert attached.limit_solving_probability(
                task
            ) == chain.limit_solving_probability(task)

    def test_csr_views_are_zero_copy(self):
        chain = _chain()
        with SharedChainStore() as store:
            attached = attach_chain(store.publish(chain))
            indptr, dst, cnt = attached.csr()
            # Views into the shared segment, not per-process copies.
            for array in (indptr, dst, cnt):
                assert array.base is not None

    def test_publish_is_idempotent(self):
        chain = _chain()
        with SharedChainStore() as store:
            first = store.publish(chain)
            assert store.publish(chain) == first
            assert len(store) == 1


class TestGroupSegments:
    def _chains(self):
        from repro.randomness import enumerate_size_shapes

        chains = []
        for shape in enumerate_size_shapes(4):
            alpha = RandomnessConfiguration.from_group_sizes(shape)
            chains.append(compile_chain(alpha))
            chains.append(compile_chain(alpha, adversarial_assignment(shape)))
        return chains

    def test_group_round_trips_every_chain_at_its_offset(self):
        chains = self._chains()
        with SharedChainStore() as store:
            name = store.publish_group(chains)
            assert name is not None
            assert len(store) == len(chains)
            manifest = store.manifest
            assert all("@" in locator for locator in manifest.values())
            with use(chain_shm=manifest):
                task = leader_election(4)
                for chain in chains:
                    got = shared_chain(chain.key)
                    assert got is not None and got.key == chain.key
                    assert got.labels == chain.labels
                    assert got.out_table() == chain.out_table()
                    assert got.limit_solving_probability(
                        task
                    ) == chain.limit_solving_probability(task)

    def test_one_segment_mapping_serves_the_whole_group(self):
        chains = self._chains()
        with SharedChainStore() as store:
            store.publish_group(chains)
            with use(chain_shm=store.manifest):
                segments = {
                    id(shared_chain(chain.key)._shm) for chain in chains
                }
                assert len(segments) == 1

    def test_publish_group_skips_already_published_chains(self):
        chains = self._chains()
        with SharedChainStore() as store:
            store.publish(chains[0])
            store.publish_group(chains)
            assert len(store) == len(chains)
            assert store.publish_group(chains) is None  # nothing fresh

    def test_close_unlinks_the_group_segment(self):
        chains = self._chains()
        store = SharedChainStore()
        name = store.publish_group(chains)
        store.close()
        with pytest.raises(OSError):
            attach_chain(name)


class TestLifecycle:
    def test_close_unlinks_segments(self):
        chain = _chain()
        store = SharedChainStore()
        name = store.publish(chain)
        store.close()
        with pytest.raises(OSError):
            attach_chain(name)
        store.close()  # idempotent

    def test_pickling_an_attached_chain_materializes_arrays(self):
        import pickle

        chain = _chain()
        with SharedChainStore() as store:
            attached = attach_chain(store.publish(chain))
            clone = pickle.loads(pickle.dumps(attached))
        assert clone.key == chain.key
        assert clone.out_table() == chain.out_table()


class TestWorkerLookup:
    def test_compile_chain_attaches_before_touching_disk(
        self, tmp_path, monkeypatch
    ):
        chain = _chain()
        alpha = RandomnessConfiguration.from_group_sizes((1, 2, 2))
        with SharedChainStore() as store:
            store.publish(chain)
            with use(chain_shm=store.manifest, chain_cache=str(tmp_path)):
                monkeypatch.setattr(
                    ChainDiskCache,
                    "load",
                    lambda self, key: pytest.fail(
                        "worker consulted the disk cache despite a "
                        "shared-memory hit"
                    ),
                )
                clear_memo()
                got = compile_chain(alpha)
                assert got.key == chain.key
                assert hasattr(got, "_shm")
                # Second compile hits the per-process memo, not a re-attach.
                assert compile_chain(alpha) is got

    def test_missing_segment_degrades_to_a_miss(self):
        chain = _chain()
        with use(chain_shm={key_digest(chain.key): "psm_gone_stale"}):
            assert shared_chain(chain.key) is None

    def test_unlisted_key_is_a_miss(self):
        with use(chain_shm={}):
            assert shared_chain(chain_key(
                RandomnessConfiguration.from_group_sizes((1, 2))
            )) is None

    def test_digest_collision_is_rejected_by_full_key(self):
        chain = _chain()
        other = _chain((2, 3))
        with SharedChainStore() as store:
            name = store.publish(other)
            # Lie: map chain's digest at the *other* chain's segment.
            with use(chain_shm={key_digest(chain.key): name}):
                assert shared_chain(chain.key) is None


def _array_offsets(buf, offset=0):
    """Byte offsets of one block's four arrays (layout version 2)."""
    words = shm_module._HEADER_WORDS - shm_module._DIGEST_WORDS
    _, n, _, states, nnz, _ = np.frombuffer(
        bytes(buf[offset:offset + words * 8]), dtype=np.int64
    ).tolist()
    labels = offset + shm_module._HEADER_WORDS * 8
    indptr = labels + states * n * 8
    dst = indptr + (states + 1) * 8
    cnt = dst + nnz * 8
    return {"labels": labels, "indptr": indptr, "dst": dst, "cnt": cnt}


def _flip(buf, at):
    buf[at] = buf[at] ^ 1


def _block_offset(locator):
    """The byte offset of a ``"name@offset"`` manifest locator."""
    return int(locator.partition("@")[2])


class TestFailClosed:
    """A damaged segment is a counted miss, never a chain with the right
    key and different arrays."""

    @pytest.fixture
    def traced(self):
        reset_telemetry()
        with use(trace=True):
            yield OBS.metrics
        reset_telemetry()

    @pytest.mark.parametrize("array", ["labels", "indptr", "dst", "cnt"])
    def test_one_flipped_byte_is_a_counted_miss(self, traced, array):
        chain = _chain()
        with SharedChainStore() as store:
            name = store.publish(chain)
            with use(chain_shm=store.manifest):
                assert shared_chain(chain.key) is not None
                assert traced.counter("chain.shm.load.miss") == 0
                buf = store._segments[0].buf
                _flip(buf, _array_offsets(buf)[array])
                assert shared_chain(chain.key) is None
                assert traced.counter("chain.shm.load.miss") == 1
                with pytest.raises(ValueError):
                    attach_chain(name)

    def test_damage_misses_only_the_damaged_group_member(self, traced):
        chains = TestGroupSegments()._chains()
        with SharedChainStore() as store:
            store.publish_group(chains)
            with use(chain_shm=store.manifest):
                victim = chains[3]
                locator = store.manifest[key_digest(victim.key)]
                buf = store._segments[0].buf
                _flip(buf, _array_offsets(buf, _block_offset(locator))["cnt"])
                for chain in chains:
                    got = shared_chain(chain.key)
                    if chain is victim:
                        assert got is None
                    else:
                        assert got.out_table() == chain.out_table()
                assert traced.counter("chain.shm.load.miss") == 1

    def test_compile_chain_recompiles_past_a_damaged_segment(self, traced):
        chain = _chain()
        alpha = RandomnessConfiguration.from_group_sizes((1, 2, 2))
        with SharedChainStore() as store:
            store.publish(chain)
            with use(chain_shm=store.manifest):
                buf = store._segments[0].buf
                _flip(buf, _array_offsets(buf)["cnt"])
                clear_memo()
                got = compile_chain(alpha)
                assert not hasattr(got, "_shm")
                assert got.out_table() == chain.out_table()
                assert traced.counter("chain.compile.hit.shm") == 0
                assert traced.counter("chain.compile.miss") == 1

    def test_pooled_sweep_over_a_damaged_store_matches_a_clean_run(
        self, traced, monkeypatch
    ):
        """Every chain the sweep publishes gets one flipped ``cnt`` byte;
        2 workers must miss, recompile, and write the clean records.

        The parent's memo is dropped after publishing, so forked workers
        start cold (as spawned ones would) and must consult the store."""
        sweep = SweepSpec.for_total_size(
            4, models=("blackboard", "clique"), ports=("adversarial",)
        )
        clean = run_sweep(sweep, engine=SerialEngine())
        publish_group = SharedChainStore.publish_group
        damaged = []

        def publish_damaged(self, chains):
            name = publish_group(self, chains)
            buf = self._segments[-1].buf
            for locator in self.manifest.values():
                _flip(buf, _array_offsets(buf, _block_offset(locator))["cnt"])
                damaged.append(locator)
            clear_memo()
            return name

        monkeypatch.setattr(
            SharedChainStore, "publish_group", publish_damaged
        )
        clear_memo()
        reset_telemetry()
        pooled = run_sweep(sweep, engine=ProcessPoolEngine(workers=2))

        def strip(records):
            return [
                {k: v for k, v in record.items() if k != "elapsed"}
                for record in records
            ]

        assert damaged
        assert strip(pooled.records) == strip(clean.records)
        assert traced.counter("chain.shm.load.miss") >= len(damaged)
        assert traced.counter("chain.compile.hit.shm") == 0
