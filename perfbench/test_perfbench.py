"""Tests of the benchmark's own code: span folding, the percentile rule,
entry-point rebinding and the output checks that feed ``failed``."""

import hashlib
import json
import pathlib
import sys
import types

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_children_once():
    rows = [
        ["cli.main", 0.0, 10.0, -1],
        ["chain.compile", 1.0, 4.0, 0],
        ["chain.quotient", 2.0, 3.0, 1],
        # Overlapping children (two threads) are counted once.
        ["runner.pool.wait", 5.0, 8.0, 0],
        ["runner.pool.wait", 7.0, 9.0, 0],
    ]
    assert spans.self_times(rows) == pytest.approx([3.0, 2.0, 1.0, 3.0, 2.0])
    folded = spans.fold_by_name(rows)
    assert folded["runner.pool.wait"] == (2, pytest.approx(5.0))
    assert spans.fold_by_layer(rows) == pytest.approx(
        {"cli": 3.0, "chain": 3.0, "runner": 5.0})
    # Self times of a tree add up to the time its root covers.
    assert sum(spans.self_times(rows[:3])) == pytest.approx(10.0)


def test_unattributed_share_counts_wall_outside_every_span():
    first = [["cli.import", 0.0, 1.0, -1], ["cli.main", 2.0, 3.0, -1]]
    second = [["cli.main", 10.0, 14.0, -1]]
    # 1s of 4s and 0s of 4s uncovered.
    assert spans.unattributed_share([(4.0, first), (4.0, second)]) == (
        pytest.approx(2.0 / 8.0))


def test_recorder_nests_wrapped_calls():
    recorder = spans.SpanRecorder()
    inner = recorder.wrap("chain.query", lambda x: x + 1)
    outer = recorder.wrap("chain.compile", lambda x: inner(x) * 2)
    assert outer(1) == 4
    names = [(name, parent) for name, _, _, parent in recorder.rows()]
    assert names == [("chain.compile", -1), ("chain.query", 0)]


def test_tail_percentile_needs_ten_samples_beyond():
    assert spans.tail_percentile(range(19)) is None
    assert spans.tail_percentile(range(1, 21)) == (50.0, 10)
    assert spans.tail_percentile(range(1, 41)) == (75.0, 30)
    assert spans.tail_percentile(range(1, 101)) == (90.0, 90)
    assert spans.tail_percentile(range(1, 1001)) == (99.0, 990)


def test_rebind_replaces_every_binding(monkeypatch):
    def original():
        return "original"

    holder = types.ModuleType("repro._perfbench_probe")
    holder.alias = original
    monkeypatch.setitem(sys.modules, holder.__name__, holder)
    traced.rebind(original, lambda: "wrapped")
    assert holder.alias() == "wrapped"


class FakeBench:
    """Stands in for ``run.Bench``: the report 'writes' fixed bytes."""

    def __init__(self, root, payload):
        self.root = root
        self.payload = payload

    def fresh_dir(self, name):
        path = self.root / name
        path.mkdir()
        return path

    def invoke(self, label, argv, traced):
        (pathlib.Path(argv[1]) / "experiments.json").write_bytes(self.payload)
        return run.Invocation(label, argv, 0, 1.0, 1024,
                              "21/21 experiments pass\n", "")


def test_corrupted_digest_counts_as_failed_invocation(tmp_path, monkeypatch):
    payload = b'{"experiments": []}\n'
    bench = FakeBench(tmp_path, payload)
    report = workloads.Report(0)
    monkeypatch.setitem(workloads.EXPECTED, "report_experiments_json",
                        hashlib.sha256(payload).hexdigest())
    assert [r.ok for r in report.iteration(bench, 0, False)] == [True]
    monkeypatch.setitem(workloads.EXPECTED, "report_experiments_json", "0" * 64)
    assert [r.ok for r in report.iteration(bench, 1, False)] == [False]


def test_nonzero_exit_fails_and_oneshot_answers_parse():
    failed = run.Invocation("solve", ["solve", "1,2"], 1, 1.0, 1024, "", "")
    assert not failed.ok
    stdout = "expected rounds to a solving state: 4/3 (~1.3333)\n"
    assert workloads.parse_oneshot("expected-time", stdout) == (
        workloads.Fraction(4, 3))
    assert workloads.parse_oneshot("solve", "garbage") == "unparsable"
    query = "model  kind  count\n-----  ----  -----\nclique  exact  90\n"
    assert workloads.parse_group_counts(query) == {("clique", "exact"): 90}


def test_benchmark_json_matches_what_runs_report():
    here = pathlib.Path(__file__).resolve().parent
    bench = json.loads((here.parent / "BENCHMARK.json").read_text())
    attribution = json.loads((here / "attribution.json").read_text())
    reported = (
        set(run.layer_metrics([]))
        | {"cli.modules_loaded", "cli.networkx_loaded"}
        | {f"cli.import.{short}_s" for short in run.CENSUS_MODULES}
        | {"trace.overhead_ratio", "trace.unattributed_share"}
    )
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert set(per_layer) == reported == set(attribution)
    assert all(run.unit_of(name) == unit for name, unit in per_layer.items())
    assert {w["name"]: w["why"] for w in bench["workloads"]} == workloads.WHY
    names = {m["name"] for m in bench["end_to_end"]}
    assert names == {"wall_s", "setup_s", "peak_rss_mb"}
