"""The ctcheck gate: every shipped target is clean, leaks exit 1."""

import json

import pytest

from repro.analysis import api
from repro.analysis.api import (
    CTCheckResult,
    audit_workload_ds,
    builtin_programs,
    check_program,
    run_ctcheck,
)
from repro.cli import main
from repro.lang.ir import ArrayDecl, Load, Program
from repro.workloads import WORKLOADS

pytestmark = pytest.mark.ctcheck


def bad_program():
    """A secret-indexed load with no bounding: DS-COVERAGE error."""
    return Program(
        name="bad",
        secret_inputs=("key",),
        arrays=(ArrayDecl("table", 64),),
        body=(Load("out", "table", "key"),),
        outputs=("out",),
    )


class TestShippedTargetsAreClean:
    @pytest.mark.parametrize("name", sorted(api.BUILTIN_PROGRAM_SPECS))
    def test_builtin_program_has_no_errors(self, name):
        program = builtin_programs()[name]
        errors = [
            f for f in check_program(program) if f.severity == "error"
        ]
        assert not errors, [f.format() for f in errors]

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_workload_ds_audit_has_no_errors(self, name):
        errors = [
            f
            for f in audit_workload_ds(name)
            if f.severity == "error"
        ]
        assert not errors, [f.format() for f in errors]

    def test_run_ctcheck_all_exits_zero(self):
        result = run_ctcheck()
        assert result.exit_code == 0
        assert len(result.checked) == len(api.BUILTIN_PROGRAM_SPECS) + len(
            WORKLOADS
        )


class TestResultAggregation:
    def test_exit_code_tracks_errors(self):
        result = CTCheckResult()
        assert result.exit_code == 0
        result.findings.extend(check_program(bad_program()))
        assert result.errors
        assert result.exit_code == 1

    def test_summary_and_counts(self):
        result = run_ctcheck(
            programs=["lookup"], include_workloads=False
        )
        counts = result.counts()
        assert set(counts) == {"error", "warning", "info"}
        assert "checked 1 target(s)" in result.summary()

    def test_as_dict_is_json_serializable(self):
        result = run_ctcheck(
            programs=["lookup"], include_workloads=False
        )
        payload = json.loads(json.dumps(result.as_dict()))
        assert payload["exit_code"] == 0
        assert payload["checked"] == ["program:lookup"]


class TestCLI:
    def test_all_flag_exits_zero(self, capsys):
        assert main(["ctcheck", "--all"]) == 0
        out = capsys.readouterr().out
        assert "worst severity" in out

    def test_bad_program_exits_one_with_ds_coverage(
        self, capsys, monkeypatch
    ):
        monkeypatch.setitem(
            api.BUILTIN_PROGRAM_SPECS, "bad", bad_program
        )
        code = main(
            ["ctcheck", "--program", "bad", "--no-workloads"]
        )
        assert code == 1
        assert "DS-COVERAGE" in capsys.readouterr().out

    def test_json_output(self, capsys):
        code = main(
            ["ctcheck", "--program", "lookup", "--no-workloads",
             "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["checked"] == ["program:lookup"]
        assert payload["exit_code"] == 0

    def test_min_severity_filters_output(self, capsys):
        main(
            ["ctcheck", "--program", "lookup", "--no-workloads",
             "--min-severity", "error"]
        )
        out = capsys.readouterr().out
        assert "hidden" in out
        assert "CT-DFL" not in out

    def test_unknown_program_rejected(self):
        with pytest.raises(SystemExit):
            main(["ctcheck", "--program", "nope"])

    def test_list_rules_prints_full_catalog(self, capsys):
        from repro.analysis.ctlint import RULES

        assert main(["ctcheck", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule, (severity, _) in RULES.items():
            assert rule in out
            assert severity in out
        # The relational rules ship in the catalog.
        for rule in ("CT-REL", "CT-SPEC", "CT-PROVED", "CT-UNKNOWN"):
            assert rule in out

    def test_symbolic_flag_refutes_native_proves_mitigated(self, capsys):
        code = main(
            ["ctcheck", "--program", "lookup", "--no-workloads",
             "--symbolic", "--no-replay"]
        )
        # The native variant of every builtin leaks by design, so the
        # symbolic mode exits 1 — with a CT-REL carrying a concrete
        # pair and a CT-PROVED for the mitigated variant.
        assert code == 1
        out = capsys.readouterr().out
        assert "CT-REL" in out
        assert "CT-PROVED" in out
        assert "mitigated execution proved constant-time" in out

    def test_single_workload_audit(self, capsys):
        # --workload narrows the audit but the static program checks
        # still run: every builtin program + 1 workload.
        targets = len(api.BUILTIN_PROGRAM_SPECS) + 1
        assert main(["ctcheck", "--workload", "binary_search"]) == 0
        assert (
            f"checked {targets} target(s)" in capsys.readouterr().out
        )


class TestRepairMode:
    def test_repair_flag_fixes_and_exits_zero(self, capsys):
        code = main(
            ["ctcheck", "--program", "lookup", "--no-workloads",
             "--repair"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "CT-REPAIR" in out
        assert "repaired program proved constant-time" in out

    def test_repair_json_carries_repair_results(self, capsys):
        code = main(
            ["ctcheck", "--program", "lookup", "--no-workloads",
             "--repair", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        entry = payload["repairs"]["lookup"]
        assert entry["verdict"] == "proved"
        assert entry["rounds"] >= 1
        assert entry["transforms"]
        assert entry["overhead"]["vs_manual"] <= 1.5
        # One CT-REPAIR finding per applied transform.
        repairs = [
            f for f in payload["findings"] if f["rule"] == "CT-REPAIR"
        ]
        assert len(repairs) == len(entry["transforms"])

    def test_json_without_repair_has_no_repairs_key(self, capsys):
        # Byte-stability: adding the feature must not change the JSON
        # shape of non-repair runs.
        main(
            ["ctcheck", "--program", "lookup", "--no-workloads",
             "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert "repairs" not in payload

    def test_repair_out_dumps_repaired_ir(self, capsys, tmp_path):
        out_file = tmp_path / "repaired.txt"
        code = main(
            ["ctcheck", "--program", "lookup", "--no-workloads",
             "--repair", "--repair-out", str(out_file)]
        )
        assert code == 0
        text = out_file.read_text()
        assert "lookup" in text
        assert "# " in text  # the summary header line
        assert "[ds]" in text  # the routed access in the dumped IR

    def test_max_rounds_is_threaded_through(self, capsys):
        # A 0-round budget cannot repair anything: the terminal
        # finding degrades to the inconclusive warning.
        code = main(
            ["ctcheck", "--program", "lookup", "--no-workloads",
             "--repair", "--max-rounds", "0"]
        )
        out = capsys.readouterr().out
        assert code == 0  # warnings do not fail the gate
        assert "automatic repair inconclusive" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--symbolic", "--spec-window", "-1"],
            ["--repair", "--max-rounds", "-1"],
            ["--spec-window", "two"],
        ],
        ids=["negative-spec-window", "negative-max-rounds", "non-int"],
    )
    def test_negative_counts_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["ctcheck"] + argv)
        assert excinfo.value.code == 2
        assert "expected an integer >= 0" in capsys.readouterr().err

    def test_ct_repair_rule_ships_in_catalog(self):
        from repro.analysis.ctlint import RULES

        severity, _ = RULES["CT-REPAIR"]
        assert severity == "info"

    def test_run_ctcheck_computes_facts_once_per_program(
        self, monkeypatch
    ):
        calls = []
        real = api.program_facts

        def counting(program):
            calls.append(program.name)
            return real(program)

        monkeypatch.setattr(api, "program_facts", counting)
        run_ctcheck(
            programs=["lookup"],
            include_workloads=False,
            symbolic=True,
            replay=False,
        )
        assert calls == ["lookup"]
