"""The execution context: scoped, restorable, and carried into workers."""

from dataclasses import replace

import pytest

from repro.chain import (
    ChainDiskCache,
    Query,
    clear_memo,
    compile_chain,
    disk_cache,
    is_quotient_key,
    run_queries,
)
from repro.context import Context, current, update, use
from repro.core import leader_election
from repro.obs import OBS
from repro.randomness import RandomnessConfiguration
from repro.results.memo import query_memo
from repro.runner import ProcessPoolEngine, SerialEngine, SweepSpec, run_sweep


def _compiled_key():
    """The key of the (1, 1, 2) chain under the active context."""
    alpha = RandomnessConfiguration.from_group_sizes((1, 1, 2))
    return compile_chain(alpha, use_memo=False).key


def _memo_answer():
    """One exact limit and whether the active context memoized it."""
    alpha = RandomnessConfiguration.from_group_sizes((2, 3))
    chain = compile_chain(alpha)
    value = run_queries(chain, [Query.limit(leader_election(5))])[0]
    memo = query_memo()
    return value, None if memo is None else len(memo)


class TestScoping:
    def test_use_applies_changes_and_restores_the_previous_context(self):
        before = current()
        with use(quotient="on", trace=True) as inside:
            assert current() is inside
            assert inside.quotient == "on" and OBS.enabled
            assert inside == replace(before, quotient="on", trace=True)
        assert current() is before
        assert OBS.enabled is before.trace

    def test_contexts_in_sequence_give_independent_results(self, tmp_path):
        with use(quotient="off"):
            full = _compiled_key()
        with use(quotient="on"):
            folded = _compiled_key()
        with use(quotient="off"):
            assert _compiled_key() == full
        assert full != folded and folded[-1] == "quotient"

        with use(results_memo=str(tmp_path / "memo")):
            memoized, entries = _memo_answer()
        plain, no_memo = _memo_answer()
        assert memoized == plain
        assert entries == 1 and no_memo is None

    def test_nested_contexts_restore_each_level(self, tmp_path):
        with use(quotient="on"):
            with use(quotient="off", results_memo=str(tmp_path / "memo")):
                full = _compiled_key()
                assert _memo_answer()[1] == 1
            assert _compiled_key()[-1] == "quotient"
            assert query_memo() is None
        assert full[-1] != "quotient"

    def test_exit_restores_after_an_exception(self, tmp_path):
        before = current()
        with pytest.raises(RuntimeError):
            with use(
                quotient="on",
                trace=True,
                chain_cache=str(tmp_path / "chains"),
                results_memo=str(tmp_path / "memo"),
            ):
                raise RuntimeError("boom")
        assert current() is before
        assert disk_cache() is None and query_memo() is None
        assert OBS.enabled is before.trace

    def test_update_is_scoped_by_an_enclosing_use(self):
        before = current()
        with use():
            assert update(quotient="auto") is before
            assert current().quotient == "auto"
        assert current() is before

    def test_unknown_quotient_mode_is_rejected(self):
        with pytest.raises(ValueError):
            Context(quotient="sometimes")

    def test_fields_are_the_execution_switches(self):
        """Every field is a switch some tier reads; a new one needs a
        consumer on both sides of the pool boundary."""
        from dataclasses import fields

        assert [field.name for field in fields(Context)] == [
            "quotient", "trace", "chain_cache", "results_memo",
            "heartbeat_dir", "heartbeat_interval",
        ]


class TestCallersContextSurvives:
    @pytest.mark.parametrize(
        "engine",
        [SerialEngine(), ProcessPoolEngine(workers=2)],
        ids=["serial", "pool"],
    )
    def test_sweep_keeps_the_callers_caches(self, tmp_path, engine):
        """The sweep's own chain cache and memo (under its run
        directory) live only in its job payloads, also when the serial
        engine runs those jobs in this process: afterwards the caller
        reads and writes its own directories again."""
        sweep = SweepSpec.for_total_size(3, models=("blackboard",))
        chains, memo = tmp_path / "chains", tmp_path / "memo"
        with use(chain_cache=str(chains), results_memo=str(memo)):
            run_sweep(sweep, engine=engine, run_dir=tmp_path / "run")
            assert disk_cache().root == chains
            assert query_memo().root == memo


    def test_pooled_worst_case_search_keeps_the_callers_caches(
        self, tmp_path
    ):
        from repro.analysis import exhaustive_worst_case

        chains, memo = tmp_path / "chains", tmp_path / "memo"
        with use(chain_cache=str(chains), results_memo=str(memo)):
            before = current()
            pooled = exhaustive_worst_case(
                (1, 2), engine=ProcessPoolEngine(workers=2), chunk=2
            )
            assert current() == before
            assert disk_cache().root == chains
            assert query_memo().root == memo
        assert pooled == exhaustive_worst_case((1, 2))


class TestContextCrossesThePool:
    def test_no_quotient_pool_sweep_matches_serial_full_chains(
        self, tmp_path
    ):
        class ForkedUnderQuotient(ProcessPoolEngine):
            """Workers fork while quotient compilation is on, so only the
            payload's context can make them compile full chains."""

            def map(self, fn, payloads):
                with use(quotient="on"):
                    return iter(list(super().map(fn, payloads)))

        sweep = SweepSpec.for_total_size(
            4, models=("blackboard", "clique"), ports=("adversarial",)
        )

        def records(engine, run_dir):
            clear_memo()  # forked workers inherit no compiled chains
            outcome = run_sweep(sweep, engine=engine, run_dir=run_dir)
            return [
                {k: v for k, v in record.items() if k != "elapsed"}
                for record in outcome.records
            ]

        with use(quotient="off"):
            pooled = records(ForkedUnderQuotient(workers=2), tmp_path / "p")
            serial = records(SerialEngine(), tmp_path / "s")
        assert pooled == serial
        cache = ChainDiskCache(tmp_path / "p" / "chains")
        keys = [cache.read(entry.path).key for entry in cache.entries()]
        assert keys and not any(is_quotient_key(key) for key in keys)
