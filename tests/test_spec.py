"""Tests for the property specification language: lexer, parser, units,
and validator."""

import pytest

from repro.core.actions import ActionType
from repro.core.properties import Collect, DpData, MITD, MaxDuration, MaxTries
from repro.errors import SpecSyntaxError, SpecValidationError
from repro.spec.ast import Clause, PropertyDecl
from repro.spec.lexer import tokenize
from repro.spec.parser import parse_spec
from repro.spec.units import format_duration, parse_duration
from repro.spec.validator import load_properties, validate
from repro.taskgraph.builder import AppBuilder
from repro.workloads.health import BENCHMARK_SPEC, FIGURE5_SPEC, build_health_app


class TestUnits:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("100ms", 0.1),
            ("3s", 3.0),
            ("2sec", 2.0),
            ("5min", 300.0),
            ("1h", 3600.0),
            ("2hour", 7200.0),
            ("1.5s", 1.5),
        ],
    )
    def test_parse_duration(self, text, expected):
        assert parse_duration(text) == pytest.approx(expected)

    def test_invalid_duration_rejected(self):
        with pytest.raises(SpecSyntaxError):
            parse_duration("5parsecs")

    @pytest.mark.parametrize(
        "seconds,expected",
        [(0.1, "100ms"), (3.0, "3s"), (300.0, "5min"), (3600.0, "1h"), (90.0, "90s")],
    )
    def test_format_duration(self, seconds, expected):
        assert format_duration(seconds) == expected

    def test_format_parse_roundtrip(self):
        for seconds in (0.05, 0.5, 2.0, 42.0, 300.0, 7200.0):
            assert parse_duration(format_duration(seconds)) == pytest.approx(seconds)


class TestLexer:
    def test_duration_token(self):
        tokens = tokenize("5min")
        assert tokens[0].kind == "duration"

    def test_number_vs_duration(self):
        tokens = tokenize("10 10ms")
        assert [t.kind for t in tokens[:2]] == ["number", "duration"]

    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_comments_skipped(self):
        tokens = tokenize("a // comment\n# another\nb")
        assert [t.text for t in tokens[:-1]] == ["a", "b"]

    def test_unknown_character_rejected(self):
        with pytest.raises(SpecSyntaxError):
            tokenize("task { $bad }")

    def test_eof_token_terminates(self):
        assert tokenize("")[-1].kind == "eof"


class TestParser:
    def test_block_with_and_without_colon(self):
        model = parse_spec("a: { maxTries: 1 onFail: skipPath; }\n"
                           "b { maxTries: 2 onFail: skipTask; }")
        assert [b.task for b in model.blocks] == ["a", "b"]

    def test_property_values_typed(self):
        model = parse_spec("t { maxTries: 10 onFail: skipPath; "
                           "maxDuration: 100ms onFail: skipTask; }")
        decls = model.blocks[0].properties
        assert decls[0].value == 10
        assert decls[1].value == pytest.approx(0.1)

    def test_clause_ordering_preserved(self):
        model = parse_spec(
            "send { MITD: 5min dpTask: accel onFail: restartPath "
            "maxAttempt: 3 onFail: skipPath Path: 2; }"
        )
        clauses = model.blocks[0].properties[0].clauses
        assert [c.key for c in clauses] == [
            "dpTask", "onFail", "maxAttempt", "onFail", "Path"]

    def test_range_clause(self):
        model = parse_spec("t { dpData: x Range: [36, 38] onFail: completePath; }")
        (decl,) = model.blocks[0].properties
        assert decl.clauses_named("Range")[0].value == (36.0, 38.0)

    def test_negative_range_bounds(self):
        model = parse_spec("t { dpData: x Range: [-5, 5] onFail: skipTask; }")
        assert model.blocks[0].properties[0].clauses_named("Range")[0].value == (-5.0, 5.0)

    def test_missing_semicolon_rejected(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("t { maxTries: 3 onFail: skipPath }")

    def test_missing_brace_rejected(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("t { maxTries: 3 onFail: skipPath;")

    def test_figure5_spec_parses(self):
        model = parse_spec(FIGURE5_SPEC)
        assert {b.task for b in model.blocks} == {"micSense", "send", "calcAvg", "accel"}
        assert model.property_count == 8

    def test_benchmark_spec_parses(self):
        assert parse_spec(BENCHMARK_SPEC).property_count == 5

    def test_property_count_helper(self):
        model = parse_spec("a { maxTries: 1 onFail: skipPath; }")
        assert model.property_count == 1
        assert model.block_for("a") is not None
        assert model.block_for("zzz") is None


class TestValidator:
    def test_full_figure5_binding(self, health_app):
        props = load_properties(FIGURE5_SPEC, health_app)
        kinds = sorted(p.kind for p in props)
        assert kinds == sorted(
            ["maxTries", "MITD", "maxDuration", "collect", "collect",
             "collect", "dpData", "maxTries"])

    def test_mitd_fields(self, health_app):
        props = load_properties(BENCHMARK_SPEC, health_app)
        (mitd,) = [p for p in props if p.kind == "MITD"]
        assert mitd.task == "send"
        assert mitd.dep_task == "accel"
        assert mitd.limit_s == 300.0
        assert mitd.on_fail is ActionType.RESTART_PATH
        assert mitd.max_attempt == 3
        assert mitd.max_attempt_action is ActionType.SKIP_PATH
        assert mitd.path == 2

    def test_unknown_task_rejected(self, health_app):
        with pytest.raises(SpecValidationError):
            load_properties("ghost { maxTries: 1 onFail: skipPath; }", health_app)

    def test_unknown_property_kind_rejected(self, health_app):
        with pytest.raises(SpecValidationError):
            load_properties("accel { teleport: 1 onFail: skipPath; }", health_app)

    def test_unknown_action_rejected(self, health_app):
        with pytest.raises(SpecValidationError):
            load_properties("accel { maxTries: 1 onFail: explode; }", health_app)

    def test_missing_onfail_rejected(self, health_app):
        with pytest.raises(SpecValidationError):
            load_properties("accel { maxTries: 1 Path: 2; }", health_app)

    def test_missing_dptask_rejected(self, health_app):
        with pytest.raises(SpecValidationError):
            load_properties("send { collect: 1 onFail: restartPath Path: 2; }",
                            health_app)

    def test_unknown_dptask_rejected(self, health_app):
        with pytest.raises(SpecValidationError):
            load_properties(
                "send { collect: 1 dpTask: ghost onFail: restartPath Path: 2; }",
                health_app)

    def test_merge_task_requires_path(self, health_app):
        # send is on all three paths: path-scoped properties need Path.
        with pytest.raises(SpecValidationError) as exc:
            load_properties(
                "send { collect: 1 dpTask: accel onFail: restartPath; }",
                health_app)
        assert "path merging" in str(exc.value)

    def test_single_path_task_needs_no_path(self, health_app):
        props = load_properties(
            "calcAvg { collect: 10 dpTask: bodyTemp onFail: restartPath; }",
            health_app)
        assert props.properties[0].path is None

    def test_path_not_containing_task_rejected(self, health_app):
        with pytest.raises(SpecValidationError):
            load_properties(
                "accel { maxTries: 5 onFail: skipPath Path: 3; }", health_app)

    def test_nonexistent_path_rejected(self, health_app):
        with pytest.raises(SpecValidationError):
            load_properties(
                "send { collect: 1 dpTask: accel onFail: restartPath Path: 9; }",
                health_app)

    def test_maxattempt_requires_following_onfail(self, health_app):
        with pytest.raises(SpecValidationError):
            load_properties(
                "send { MITD: 5min dpTask: accel onFail: restartPath "
                "maxAttempt: 3 Path: 2; }",
                health_app)

    def test_maxattempt_binding_order_independent(self, health_app):
        # maxAttempt/onFail pair placed before the property's own onFail.
        props = load_properties(
            "send { MITD: 5min dpTask: accel maxAttempt: 2 onFail: skipPath "
            "onFail: restartPath Path: 2; }",
            health_app)
        (mitd,) = list(props)
        assert mitd.on_fail is ActionType.RESTART_PATH
        assert mitd.max_attempt_action is ActionType.SKIP_PATH

    def test_dpdata_requires_monitored_var(self, health_app):
        with pytest.raises(SpecValidationError) as exc:
            load_properties(
                "heartRate { dpData: hr Range: [40, 180] onFail: skipTask; }",
                health_app)
        assert "monitored" in str(exc.value)

    def test_dpdata_happy_path(self, health_app):
        props = load_properties(
            "calcAvg { dpData: avgTemp Range: [36, 38] onFail: completePath; }",
            health_app)
        (prop,) = list(props)
        assert isinstance(prop, DpData)
        assert (prop.low, prop.high) == (36.0, 38.0)

    def test_dpdata_empty_range_rejected(self, health_app):
        with pytest.raises(SpecValidationError):
            load_properties(
                "calcAvg { dpData: avgTemp Range: [38, 36] onFail: skipTask; }",
                health_app)

    def test_duplicate_property_rejected(self, health_app):
        with pytest.raises(SpecValidationError):
            load_properties(
                "accel { maxTries: 1 onFail: skipPath Path: 2; "
                "maxTries: 2 onFail: skipPath Path: 2; }",
                health_app)

    def test_unexpected_clause_rejected(self, health_app):
        with pytest.raises(SpecValidationError):
            load_properties(
                "accel { maxTries: 1 onFail: skipPath Range: [1, 2] Path: 2; }",
                health_app)

    def test_period_with_jitter(self, health_app):
        props = load_properties(
            "accel { period: 10s jitter: 500ms onFail: restartTask Path: 2; }",
            health_app)
        (prop,) = list(props)
        assert prop.period_s == 10.0
        assert prop.jitter_s == 0.5

    def test_energy_extension_property(self, health_app):
        props = load_properties(
            "accel { energyAtLeast: 0.012 onFail: skipTask Path: 2; }", health_app)
        (prop,) = list(props)
        assert prop.min_energy_j == pytest.approx(0.012)

    def test_energy_nonpositive_rejected(self, health_app):
        with pytest.raises(SpecValidationError):
            load_properties(
                "accel { energyAtLeast: 0 onFail: skipTask Path: 2; }", health_app)

    def test_wrong_value_type_rejected(self, health_app):
        with pytest.raises(SpecValidationError):
            load_properties("accel { maxTries: 2.5 onFail: skipPath Path: 2; }",
                            health_app)
        with pytest.raises(SpecValidationError):
            load_properties("accel { maxDuration: fast onFail: skipTask Path: 2; }",
                            health_app)


class TestPropertyModelInvariants:
    def test_machine_names_unique_per_property(self, health_app):
        props = load_properties(FIGURE5_SPEC, health_app)
        names = [p.machine_name() for p in props]
        assert len(names) == len(set(names))

    def test_propertyset_queries(self, health_app):
        props = load_properties(BENCHMARK_SPEC, health_app)
        assert len(props.for_task("send")) == 2
        assert len(props.of_kind("maxTries")) == 2
        assert set(props.tasks()) == {"micSense", "send", "calcAvg", "accel"}

    def test_invalid_limits_rejected(self):
        with pytest.raises(SpecValidationError):
            MaxTries(task="a", on_fail=ActionType.SKIP_PATH, limit=0)
        with pytest.raises(SpecValidationError):
            MaxDuration(task="a", on_fail=ActionType.SKIP_TASK, limit_s=0)
        with pytest.raises(SpecValidationError):
            Collect(task="a", on_fail=ActionType.RESTART_PATH, dep_task="b", count=0)
        with pytest.raises(SpecValidationError):
            MITD(task="a", on_fail=ActionType.RESTART_PATH, dep_task="", limit_s=1.0)


class TestParseMemo:
    """``load_properties`` parses each source text once per process;
    validation against the app still runs on every call."""

    SPEC = "accel { maxTries: 3 onFail: skipPath Path: 2; }"

    @pytest.fixture
    def parses(self, monkeypatch):
        import repro.spec.validator as validator

        validator._parsed.cache_clear()
        calls = []

        def counting(source):
            calls.append(source)
            return parse_spec(source)

        monkeypatch.setattr(validator, "parse_spec", counting)
        yield calls
        validator._parsed.cache_clear()

    def test_repeated_loads_parse_once(self, parses, health_app):
        first = load_properties(self.SPEC, health_app)
        second = load_properties(self.SPEC, build_health_app())
        assert parses == [self.SPEC]
        assert list(first) == list(second)
        assert first is not second
        assert first.properties is not second.properties

    def test_validation_runs_against_every_app(self, parses, health_app):
        load_properties(self.SPEC, health_app)
        other = (AppBuilder("other").task("sense").task("send")
                 .path(1, ["sense", "send"]).build())
        with pytest.raises(SpecValidationError, match="unknown task 'accel'"):
            load_properties(self.SPEC, other)
        assert parses == [self.SPEC]

    def test_parse_error_raised_on_every_call(self, parses, health_app):
        broken = "accel { maxTries: 3 onFail: skipPath Path: 2; "
        for _ in range(3):
            with pytest.raises(SpecSyntaxError):
                load_properties(broken, health_app)
        assert parses == [broken] * 3

    def test_models_from_parse_spec_stay_private(self, parses, health_app):
        want = list(load_properties(self.SPEC, health_app))
        model = parse_spec(self.SPEC)
        model.blocks.clear()
        assert list(load_properties(self.SPEC, health_app)) == want
        assert parse_spec(self.SPEC).blocks
