"""Error types, edge cases, and defensive paths across modules."""

import pytest

import repro
from repro.errors import (
    AnalysisError,
    ExplorationLimitError,
    LexError,
    ParseError,
    ReproError,
    SimulationError,
    ValidationError,
)
from repro.lang.ast_nodes import Accept
from repro.lang.parser import parse_program
from repro.syncgraph.build import build_sync_graph


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            AnalysisError,
            ExplorationLimitError,
            LexError,
            ParseError,
            SimulationError,
            ValidationError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_exploration_limit_message(self):
        err = ExplorationLimitError(42)
        assert "42" in str(err)
        assert err.limit == 42

    def test_lex_error_location(self):
        err = LexError("bad", 3, 7)
        assert err.line == 3 and err.column == 7
        assert "line 3" in str(err)

    def test_parse_error_without_location(self):
        err = ParseError("oops")
        assert "oops" in str(err)
        assert "line" not in str(err)


class TestEdgeCasePrograms:
    def test_single_task_program(self):
        result = repro.analyze("program p; task only is begin null; end;")
        assert result.deadlock.deadlock_free
        assert result.stall.stall_free

    def test_all_tasks_rendezvous_free(self):
        result = repro.analyze(
            "program p; task a is begin x := 1; end;"
            "task b is begin null; null; end;"
        )
        assert result.deadlock.deadlock_free

    def test_empty_bodies(self):
        result = repro.analyze(
            "program p; task a is begin end; task b is begin end;"
        )
        assert result.deadlock.deadlock_free

    def test_rendezvous_only_in_dead_branch_arm(self):
        # accept reachable only via one arm; analysis must not crash
        result = repro.analyze(
            "program p;"
            "task a is begin if ? then send b.m; end if; end;"
            "task b is begin if ? then accept m; end if; end;"
        )
        assert result.deadlock.deadlock_free
        assert result.stall.verdict == "unknown"

    def test_deeply_nested_conditionals(self):
        depth = 20
        open_ifs = "if ? then " * depth
        close_ifs = "end if; " * depth
        src = (
            "program p; task a is begin "
            + open_ifs
            + "send b.m; "
            + close_ifs
            + "end; task b is begin "
            + open_ifs
            + "accept m; "
            + close_ifs
            + "end;"
        )
        result = repro.analyze(src)
        assert result.deadlock.deadlock_free

    def test_wide_fanout_signal(self):
        senders = "".join(
            f"task s{i} is begin send hub.m; end;" for i in range(12)
        )
        accepts = "accept m; " * 12
        src = f"program p; {senders} task hub is begin {accepts} end;"
        result = repro.analyze(src)
        assert result.deadlock.deadlock_free
        assert result.stall.stall_free

    def test_long_straight_line_program(self):
        n = 300
        a = " ".join(f"send b.m{i};" for i in range(n))
        b = " ".join(f"accept m{i};" for i in range(n))
        src = f"program p; task a is begin {a} end; task b is begin {b} end;"
        result = repro.analyze(src)
        assert result.deadlock.deadlock_free
        assert result.stall.stall_free

    def test_message_name_reuse_across_tasks(self):
        # same message name to different tasks = different signals
        src = (
            "program p;"
            "task a is begin send b.go; send c.go; end;"
            "task b is begin accept go; end;"
            "task c is begin accept go; end;"
        )
        result = repro.analyze(src)
        assert result.deadlock.deadlock_free


class TestAnalyzeRobustness:
    def test_analyze_raises_on_validation_error(self):
        with pytest.raises(ValidationError):
            repro.analyze("program p; task a is begin send a.m; end;")

    def test_analyze_raises_on_parse_error(self):
        with pytest.raises(ParseError):
            repro.analyze("program ;")

    def test_exact_state_limit_is_budget_faithful(self):
        # Exhausting the exact-path budget no longer raises: analyze
        # returns a conservative partial report instead.
        from repro.workloads.patterns import dining_philosophers

        result = repro.analyze(
            dining_philosophers(4, True),
            algorithm="exact",
            state_limit=3,
        )
        report = result.deadlock
        assert not report.deadlock_free
        assert report.stats["exploration_limited"] is True
        assert report.stats["feasible_waves"] <= 3

    @pytest.mark.parametrize(
        "source",
        [
            # 245 nested ifs and a 491-arm elsif chain: the deepest
            # nesting an analysis reached before the front half was
            # rewritten; it may grow, never shrink.
            "program p; task a is begin "
            + "if ? then " * 245
            + "send b.m; "
            + "end if; " * 245
            + "end; task b is begin accept m; end;",
            "program p; task a is begin if ? then send b.m; "
            + "elsif ? then send b.m; " * 490
            + "end if; end; task b is begin accept m; accept m; end;",
        ],
        ids=["nested-if-245", "elsif-491"],
    )
    def test_deep_nesting_analyzes(self, source):
        result = repro.analyze(source)
        assert result.deadlock.deadlock_free
