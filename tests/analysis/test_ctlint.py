"""ctlint: every rule ID firing — and *not* firing — plus plumbing."""

from repro import params
from repro.analysis.ctlint import RULES, Finding, lint, max_severity
from repro.ct.ds import DataflowLinearizationSet
from repro.lang.ir import (
    ArrayDecl,
    BinOp,
    Const,
    For,
    If,
    Load,
    Program,
    Select,
    Store,
)
from repro.lang.programs import histogram_program, lookup_program


def prog(body, secret_inputs=(), inputs=(), arrays=(), outputs=(),
         output_arrays=()):
    return Program(
        name="t",
        inputs=tuple(inputs),
        secret_inputs=tuple(secret_inputs),
        arrays=tuple(arrays),
        body=tuple(body),
        outputs=tuple(outputs),
        output_arrays=tuple(output_arrays),
    )


def rules_of(findings):
    return {f.rule for f in findings}


class TestRuleTable:
    def test_severities_are_known(self):
        for rule, (severity, _) in RULES.items():
            assert severity in ("error", "warning", "info"), rule

    def test_findings_use_registered_rules(self):
        program, _ = histogram_program(16, 8)
        for finding in lint(program):
            assert finding.rule in RULES
            assert finding.severity == RULES[finding.rule][0]

    def test_max_severity(self):
        assert max_severity([]) is None
        findings = [
            Finding("CT-DFL", "info", "p", "", ""),
            Finding("DS-COVERAGE", "error", "p", "", ""),
            Finding("CT-VARLAT", "warning", "p", "", ""),
        ]
        assert max_severity(findings) == "error"


class TestVarlat:
    def test_fires_on_secret_div(self):
        findings = lint(
            prog([BinOp("x", "div", "k", 3)], secret_inputs=("k",))
        )
        assert "CT-VARLAT" in rules_of(findings)

    def test_fires_on_secret_mod(self):
        findings = lint(
            prog([BinOp("x", "mod", "k", 3)], secret_inputs=("k",))
        )
        assert "CT-VARLAT" in rules_of(findings)

    def test_silent_on_public_div(self):
        findings = lint(
            prog([Const("a", 9), BinOp("x", "div", "a", 3)],
                 secret_inputs=("k",))
        )
        assert "CT-VARLAT" not in rules_of(findings)

    def test_silent_on_secret_fixed_latency_op(self):
        findings = lint(
            prog([BinOp("x", "xor", "k", 3)], secret_inputs=("k",))
        )
        assert "CT-VARLAT" not in rules_of(findings)


class TestTripcount:
    def test_fires_on_secret_trip_count(self):
        findings = lint(prog([For("i", "k", ())], secret_inputs=("k",)))
        hits = [f for f in findings if f.rule == "CT-TRIPCOUNT"]
        assert hits and hits[0].severity == "error"

    def test_fires_on_loop_under_secret_branch(self):
        findings = lint(
            prog(
                [If("k", then_body=(For("i", 4, ()),))],
                secret_inputs=("k",),
            )
        )
        assert "CT-TRIPCOUNT" in rules_of(findings)

    def test_silent_on_public_loop(self):
        findings = lint(prog([For("i", 4, ())], secret_inputs=("k",)))
        assert "CT-TRIPCOUNT" not in rules_of(findings)


class TestDSCoverageRule:
    def test_fires_on_unbounded_secret_index(self):
        findings = lint(
            prog(
                [Load("v", "a", "k")],
                secret_inputs=("k",),
                arrays=(ArrayDecl("a", 16),),
            )
        )
        hits = [f for f in findings if f.rule == "DS-COVERAGE"]
        assert hits and hits[0].severity == "error"
        assert hits[0].path == "body[0]"

    def test_silent_when_mod_bounds_the_index(self):
        program, _ = lookup_program(64)
        assert "DS-COVERAGE" not in rules_of(lint(program))

    def test_fires_against_underregistered_custom_ds(self):
        program, _ = lookup_program(64)
        base = 0x40000
        half = DataflowLinearizationSet.from_range(
            base, 32 * params.WORD_SIZE, name="half"
        )
        findings = lint(program, ds_map={"table": (half, base)})
        assert "DS-COVERAGE" in rules_of(findings)

    def test_silent_against_full_custom_ds(self):
        program, _ = lookup_program(64)
        base = 0x40000
        full = DataflowLinearizationSet.from_range(
            base, 64 * params.WORD_SIZE, name="full"
        )
        findings = lint(program, ds_map={"table": (full, base)})
        assert "DS-COVERAGE" not in rules_of(findings)


class TestOOB:
    def test_fires_on_public_overflow(self):
        # i + 14 can reach 17 in a 16-word array, with a public index.
        findings = lint(
            prog(
                [For("i", 4, (BinOp("j", "add", "i", 14),
                              Load("v", "a", "j")))],
                arrays=(ArrayDecl("a", 16),),
            )
        )
        hits = [f for f in findings if f.rule == "CT-OOB"]
        assert hits and hits[0].severity == "warning"

    def test_silent_when_bounded(self):
        findings = lint(
            prog(
                [For("i", 16, (Load("v", "a", "i"),))],
                arrays=(ArrayDecl("a", 16),),
            )
        )
        assert "CT-OOB" not in rules_of(findings)


class TestDeclass:
    def test_fires_on_tainted_store_to_output_array(self):
        findings = lint(
            prog(
                [Store("out", 0, "k")],
                secret_inputs=("k",),
                arrays=(ArrayDecl("out", 4),),
                output_arrays=("out",),
            )
        )
        assert "CT-DECLASS" in rules_of(findings)

    def test_silent_on_non_output_array(self):
        findings = lint(
            prog(
                [Store("tmp", 0, "k")],
                secret_inputs=("k",),
                arrays=(ArrayDecl("tmp", 4),),
            )
        )
        assert "CT-DECLASS" not in rules_of(findings)

    def test_silent_on_public_store_to_output(self):
        findings = lint(
            prog(
                [Const("x", 7), Store("out", 0, "x")],
                secret_inputs=("k",),
                arrays=(ArrayDecl("out", 4),),
                output_arrays=("out",),
            )
        )
        assert "CT-DECLASS" not in rules_of(findings)


class TestDeadMitigation:
    def test_fires_on_never_secret_accessed_array(self):
        findings = lint(
            prog(
                [Load("v", "a", 0)],
                secret_inputs=("k",),
                arrays=(ArrayDecl("a", 4),),
            )
        )
        assert "CT-DEADMIT" in rules_of(findings)

    def test_silent_on_secret_indexed_array(self):
        program, _ = lookup_program(64)
        assert "CT-DEADMIT" not in rules_of(lint(program))

    def test_predicated_access_counts_as_used(self):
        # An access under a secret branch is mitigated even with a
        # public index: the registration is NOT dead.
        findings = lint(
            prog(
                [If("k", then_body=(Store("a", 0, 1),))],
                secret_inputs=("k",),
                arrays=(ArrayDecl("a", 4),),
            )
        )
        assert "CT-DEADMIT" not in rules_of(findings)


class TestInfoRules:
    def test_linearize_fires_on_secret_branch(self):
        findings = lint(
            prog([If("k", then_body=(Const("x", 1),))],
                 secret_inputs=("k",))
        )
        assert "CT-LINEARIZE" in rules_of(findings)

    def test_linearize_silent_on_public_branch(self):
        findings = lint(
            prog(
                [Const("p", 1), If("p", then_body=(Const("x", 1),))],
                secret_inputs=("k",),
            )
        )
        assert "CT-LINEARIZE" not in rules_of(findings)

    def test_dfl_fires_on_secret_indexed_access(self):
        program, _ = lookup_program(64)
        assert "CT-DFL" in rules_of(lint(program))

    def test_select_fires_only_on_secret_condition(self):
        secret_cond = lint(
            prog(
                [Const("a", 1), Const("b", 2), Select("s", "k", "a", "b")],
                secret_inputs=("k",),
            )
        )
        assert "CT-SELECT" in rules_of(secret_cond)
        data_taint = lint(
            prog(
                [Const("p", 1), Select("s", "p", "k", 0)],
                secret_inputs=("k",),
            )
        )
        assert "CT-SELECT" not in rules_of(data_taint)

    def test_summary_always_present(self):
        findings = lint(prog([]))
        assert "CT-SUMMARY" in rules_of(findings)


class TestSymrelRules:
    def test_relational_rules_registered(self):
        for rule in ("CT-REL", "CT-SPEC", "CT-PROVED", "CT-UNKNOWN"):
            assert rule in RULES
        assert RULES["CT-REL"][0] == "error"
        assert RULES["CT-SPEC"][0] == "warning"
        assert RULES["CT-PROVED"][0] == "info"
        assert RULES["CT-UNKNOWN"][0] == "warning"


class TestOrderingAndFormat:
    def test_errors_sort_first(self):
        findings = lint(
            prog(
                [Load("v", "a", "k")],
                secret_inputs=("k",),
                arrays=(ArrayDecl("a", 16),),
            )
        )
        severities = [f.severity for f in findings]
        assert severities == sorted(
            severities,
            key=["error", "warning", "info"].index,
        )

    def test_format_contains_location_and_rule(self):
        program, _ = histogram_program(16, 8)
        findings = lint(program)
        located = [f for f in findings if f.path]
        assert located
        text = located[0].format()
        assert located[0].rule in text
        assert f"histogram:{located[0].path}" in text

    def test_as_dict_round_trip_fields(self):
        finding = lint(prog([For("i", "k", ())], secret_inputs=("k",)))[0]
        d = finding.as_dict()
        assert d["rule"] == finding.rule
        assert set(d) == {
            "rule", "severity", "program", "path", "message", "snippet"
        }

    def test_identical_findings_collapse(self):
        # value-equal findings hash equal, so the linter's
        # dict.fromkeys dedupe keeps exactly one copy
        a = Finding("CT-DFL", "info", "p", "body[0]", "m", "s")
        b = Finding("CT-DFL", "info", "p", "body[0]", "m", "s")
        assert a == b and hash(a) == hash(b)
        assert list(dict.fromkeys([a, b, a])) == [a]

    def test_output_has_no_duplicates_and_is_byte_stable(self):
        import json

        program, _ = histogram_program(16, 8)
        first = lint(program)
        second = lint(program)
        assert len(first) == len(set(first))
        assert [f.as_dict() for f in first] == [
            f.as_dict() for f in second
        ]
        assert json.dumps(
            [f.as_dict() for f in first], sort_keys=True
        ) == json.dumps([f.as_dict() for f in second], sort_keys=True)

    def test_sort_key_is_severity_rule_location(self):
        program, _ = histogram_program(16, 8)
        findings = lint(program)
        keys = [
            (["error", "warning", "info"].index(f.severity),
             f.rule, f.path)
            for f in findings
        ]
        assert keys == sorted(keys)
