"""Unit tests for the command-line interface."""

import pytest

from repro.cli import _make_task, _parse_sizes, main


class TestParsing:
    def test_parse_sizes(self):
        assert _parse_sizes("2,3") == (2, 3)
        assert _parse_sizes("1") == (1,)

    def test_parse_sizes_rejects_garbage(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_sizes("two,three")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_sizes("0,2")

    def test_make_task_variants(self):
        assert _make_task("leader", 4).n == 4
        assert _make_task("k-leader:2", 4).count_multisets() == ((2, 2),)
        assert _make_task("weak-sb", 3).n == 3
        assert _make_task("unique-ids", 3).count_multisets() == ((1, 1, 1),)
        assert _make_task("deputy", 4).count_multisets() == ((1, 1, 2),)
        assert _make_task("threshold:1,2", 4).n == 4
        assert _make_task("teams:2,2", 4).n == 4

    def test_make_task_unknown(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _make_task("bogus", 3)


class TestCommands:
    def test_solve_blackboard(self, capsys):
        assert main(["solve", "1,2"]) == 0
        out = capsys.readouterr().out
        assert "eventually solvable: YES" in out

    def test_solve_clique_unsolvable(self, capsys):
        assert main(["solve", "2,2", "--model", "clique"]) == 0
        out = capsys.readouterr().out
        assert "eventually solvable: NO" in out

    def test_series(self, capsys):
        assert main(["series", "1,1", "--t-max", "3"]) == 0
        out = capsys.readouterr().out
        assert "1/2" in out and "7/8" in out

    def test_expected_time(self, capsys):
        assert main(["expected-time", "1,1"]) == 0
        out = capsys.readouterr().out
        assert "expected rounds" in out
        assert "2" in out

    def test_expected_time_infinite(self, capsys):
        assert main(["expected-time", "3"]) == 0
        assert "infinite" in capsys.readouterr().out

    def test_phase_diagram(self, capsys):
        assert main(["phase-diagram", "3"]) == 0
        out = capsys.readouterr().out
        assert "(1, 2)" in out
        assert "(3,)" in out

    def test_protocol_success(self, capsys):
        assert main(
            ["protocol", "2,3", "--model", "clique", "--seed", "1"]
        ) == 0
        assert "elected" in capsys.readouterr().out

    def test_protocol_failure_exit_code(self, capsys):
        assert main(
            ["protocol", "2,2", "--model", "clique", "--max-rounds", "12"]
        ) == 1
        assert "no election" in capsys.readouterr().out

    def test_protocol_two_leaders(self, capsys):
        assert main(
            ["protocol", "2,4", "--model", "clique", "--k", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "k=2" in out

    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "O_LE" in out and "P(0)" in out

    def test_experiments_selected(self, capsys):
        assert main(["experiments", "figure-3"]) == 0
        out = capsys.readouterr().out
        assert "figure-3" in out
        assert "theorem-4.1" not in out

    def test_tasks_through_solve(self, capsys):
        assert main(
            ["solve", "2,4", "--model", "clique", "--task", "k-leader:2"]
        ) == 0
        assert "YES" in capsys.readouterr().out

    def test_graphs_ring(self, capsys):
        assert main(["graphs", "ring:4"]) == 0
        out = capsys.readouterr().out
        assert "NO" in out

    def test_graphs_bipartite(self, capsys):
        assert main(["graphs", "bipartite:2,3"]) == 0
        assert "YES" in capsys.readouterr().out

    def test_graphs_star_and_path(self, capsys):
        assert main(["graphs", "star:4"]) == 0
        assert "YES" in capsys.readouterr().out
        assert main(["graphs", "path:4"]) == 0
        assert "NO" in capsys.readouterr().out

    def test_graphs_labeling_limit(self, capsys):
        assert main(["graphs", "clique:6", "--labeling-limit", "10"]) == 0
        assert "skipped" in capsys.readouterr().out

    def test_graphs_unknown(self):
        with pytest.raises(SystemExit):
            main(["graphs", "torus:4"])

    def test_mermaid(self, capsys):
        assert main(["mermaid", "1,2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("stateDiagram-v2")
        assert "[solves]" in out

    def test_mermaid_max_states(self):
        with pytest.raises(ValueError):
            main(["mermaid", "1,1,1,1", "--max-states", "2"])

    def test_quotient_flag_leaves_answers_unchanged(self, capsys):
        assert main(["solve", "1,1,1", "--no-quotient"]) == 0
        full = capsys.readouterr().out
        assert main(["solve", "1,1,1", "--quotient"]) == 0
        assert capsys.readouterr().out == full
        assert main(["series", "2,3", "--t-max", "4", "--no-quotient"]) == 0
        series_full = capsys.readouterr().out
        assert main(["series", "2,3", "--t-max", "4", "--quotient"]) == 0
        assert capsys.readouterr().out == series_full

    def test_quotient_flag_sets_the_commands_mode(self, monkeypatch):
        from repro.chain import quotient_mode
        from repro.commands import queries

        seen = []
        monkeypatch.setattr(
            queries, "cmd_solve",
            lambda args: seen.append(quotient_mode()) or 0,
        )
        assert main(["solve", "1,1", "--quotient"]) == 0
        assert main(["solve", "1,1", "--no-quotient"]) == 0
        # Flag absent on a quotient-aware command: auto.
        assert main(["solve", "1,1"]) == 0
        assert seen == ["on", "off", "auto"]

    def test_report(self, tmp_path, capsys):
        # Running all experiments is slow-ish; limit via direct call is
        # covered elsewhere -- here just verify the wiring end to end.
        assert main(["report", str(tmp_path)]) == 0
        assert (tmp_path / "experiments.json").exists()
        assert "experiments pass" in capsys.readouterr().out


class TestCommandsLeaveNoState:
    """A command's flags apply to that command only: after ``main``
    returns, the process computes exactly as before it was called."""

    def test_solve_leaves_the_quotient_mode_alone(self, capsys):
        from repro.chain import quotient_mode

        assert main(["solve", "1,2"]) == 0
        assert quotient_mode() == "off"

    def test_trace_flag_leaves_tracing_off(self, capsys):
        from repro.obs import OBS

        assert main(["--trace", "solve", "1,2"]) == 0
        assert "repro.solve" in capsys.readouterr().out
        assert OBS.enabled is False

    def test_run_leaves_no_warehouse_memo_installed(self, tmp_path, capsys):
        from repro.results.memo import query_memo

        assert main(["run", "1,2", "--warehouse", str(tmp_path)]) == 0
        assert query_memo() is None
