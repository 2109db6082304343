"""The claims table and how the experiment runner checks it."""

from collections import Counter

from repro.core.machine import MachineConfig
from repro.experiments import figures
from repro.experiments.__main__ import TARGETS, main
from repro.experiments.claims import CLAIMS
from repro.experiments.tables import table1_rows


def _claim_lines(out):
    return [line for line in out.splitlines() if line.startswith("[claim ")]


class TestTable:
    def test_ids_are_unique(self):
        counts = Counter(claim.id for claim in CLAIMS)
        assert [i for i, n in counts.items() if n > 1] == []

    def test_claims_name_every_target_but_json(self):
        """Each claim names a target, and each target but json has one."""
        claimed = {claim.target for claim in CLAIMS}
        assert claimed == set(TARGETS) - {"json"}

    def test_every_section_is_named(self):
        assert all(claim.section.strip() for claim in CLAIMS)


class TestRunner:
    def test_table1_claims_hold(self, capsys):
        assert main(["table1"]) == 0
        lines = _claim_lines(capsys.readouterr().out)
        assert len(lines) == 5
        assert all(line.endswith(": holds]") for line in lines)

    def test_failed_claim_exits_1_and_the_run_continues(
        self, monkeypatch, capsys
    ):
        l1d_32k = MachineConfig(l1d_size=32 * 1024)
        monkeypatch.setitem(
            TARGETS,
            "table1",
            TARGETS["table1"]._replace(data=lambda: table1_rows(l1d_32k)),
        )
        assert main(["--no-cache", "table1", "fig9"]) == 1
        out = capsys.readouterr().out
        lines = _claim_lines(out)
        failed = [line for line in lines if not line.endswith(": holds]")]
        assert failed == ["[claim table1.l1d (Table 1): FAILED]"]
        assert "32 KB" in out
        assert "Figure 9" in out and "fig9 done in" in out
        assert any(line.startswith("[claim fig9.") for line in lines)

    def test_a_target_computes_its_data_once(self, monkeypatch, capsys):
        """Rendering and checking fig10 reuse the one value computed."""
        calls = []
        real = figures.figure10

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(figures, "figure10", counting)
        monkeypatch.setitem(
            TARGETS, "fig10", TARGETS["fig10"]._replace(data=counting)
        )
        assert main(["--no-cache", "fig10"]) == 0
        assert len(calls) == 1
        lines = _claim_lines(capsys.readouterr().out)
        assert lines and all(line.endswith(": holds]") for line in lines)
