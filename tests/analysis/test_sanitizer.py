"""Relational sanitizer: leaks flagged, mitigations proven clean."""

import pytest

from repro.analysis.sanitizer import (
    SanitizerReport,
    TraceDivergence,
    sanitize,
    sanitize_program,
    sanitize_workload,
)
from repro.lang.programs import lookup_program
from repro.workloads import histogram

SIZE = 64
# Far enough apart to land on different cache lines.
SECRETS = (1, 33)


def lookup_inputs(secret):
    return {"key": secret}, {"table": list(range(SIZE))}


#: Figure 10's run: hist_1k under 10 random secrets.
FIG10_BINS = 1000
FIG10_SECRETS = tuple(range(1, 11))


def _run_whole_profile(ctx, seed):
    # Whole-program profile (no warm-up reset), matching the published
    # figure: every access of the run is counted.
    return histogram.run(ctx, FIG10_BINS, seed, reset_warmup=False)


class TestSanitizeProgram:
    def test_insecure_lookup_leaks(self):
        program, _ = lookup_program(SIZE)
        report = sanitize_program(
            program,
            lookup_inputs,
            scheme="insecure",
            mitigate=False,
            secrets=SECRETS,
        )
        assert not report.clean
        assert not bool(report)
        kinds = {d.kind for d in report.divergences}
        assert kinds & {"event-trace", "set-profile"}

    def test_mitigated_lookup_is_clean(self):
        program, _ = lookup_program(SIZE)
        report = sanitize_program(
            program,
            lookup_inputs,
            scheme="bia-l1d",
            mitigate=True,
            secrets=SECRETS,
        )
        assert report.clean, report.describe()
        assert bool(report)

    def test_results_are_functionally_correct(self):
        # The sanitizer must not perturb program semantics.
        program, reference = lookup_program(SIZE)
        report = sanitize_program(
            program,
            lookup_inputs,
            scheme="bia-l1d",
            mitigate=True,
            secrets=SECRETS,
        )
        for obs in report.observations:
            inputs, arrays = lookup_inputs(obs.secret)
            assert obs.result["out"] == reference(inputs, arrays)["out"]


class TestSanitizeWorkload:
    """The acceptance pairs: binary search and Fig. 10's histogram,
    insecure vs BIA-mitigated."""

    def test_insecure_binary_search_is_flagged(self):
        report = sanitize_workload(
            "binary_search", 256, "insecure", secrets=(1, 2)
        )
        assert not report.clean
        assert any(
            d.kind in ("event-trace", "event-count")
            for d in report.divergences
        ), report.describe()

    def test_bia_binary_search_is_clean(self):
        report = sanitize_workload(
            "binary_search", 256, "bia-l1d", secrets=(1, 2)
        )
        assert report.clean, report.describe()

    def test_insecure_fig10_histogram_is_flagged(self):
        """Fig. 10's left panel: the insecure per-set counts vary."""
        insecure = sanitize_workload(
            "histogram",
            FIG10_BINS,
            "insecure",
            secrets=FIG10_SECRETS,
            run_fn=_run_whole_profile,
        )
        assert not insecure.clean, "insecure victim should vary with secret"
        assert any(
            d.kind == "set-profile" for d in insecure.divergences
        ), "the figure's per-set counts should already distinguish secrets"

    def test_bia_fig10_histogram_is_clean(self):
        """Fig. 10's right panel: the BIA run's trace is flat."""
        secure = sanitize_workload(
            "histogram",
            FIG10_BINS,
            "bia-l1d",
            secrets=FIG10_SECRETS,
            run_fn=_run_whole_profile,
        )
        assert secure.clean, secure.describe()

    def test_deterministic_across_repeats(self):
        # Same seeds, fresh machines: the verdict must not flap.
        verdicts = [
            sanitize_workload(
                "binary_search", 256, "insecure", secrets=(1, 2)
            ).clean
            for _ in range(2)
        ]
        assert verdicts == [False, False]


class TestCoreAPI:
    def test_rejects_fewer_than_two_secrets(self):
        program, _ = lookup_program(SIZE)
        with pytest.raises(ValueError):
            sanitize_program(program, lookup_inputs, secrets=(1,))

    def test_three_secrets_compare_against_first(self):
        program, _ = lookup_program(SIZE)
        report = sanitize_program(
            program,
            lookup_inputs,
            scheme="insecure",
            mitigate=False,
            secrets=(1, 17, 33),
        )
        assert len(report.observations) == 3
        pairs = {d.secrets for d in report.divergences}
        assert all(pair[0] == 1 for pair in pairs)

    def test_cycles_property_and_describe(self):
        program, _ = lookup_program(SIZE)
        report = sanitize_program(
            program, lookup_inputs, scheme="bia-l1d", secrets=SECRETS
        )
        assert set(report.cycles) == set(SECRETS)
        assert "clean" in report.describe()

    def test_dirty_describe_names_divergence(self):
        report = SanitizerReport(secrets=(1, 2), levels=("L1D",))
        report.divergences.append(
            TraceDivergence(
                kind="event-trace",
                secrets=(1, 2),
                detail="x != y",
                index=7,
            )
        )
        text = report.describe()
        assert "VIOLATION" in text
        assert "at event 7" in text

    def test_check_cycles_flag_suppresses_cycle_divergence(self):
        # A run_fn whose only difference is timing: with cycle checking
        # off the report is clean, with it on it is not.
        from repro.experiments.config import build_context

        def run_fn(ctx, secret):
            machine = ctx.machine
            for i in range(int(secret)):
                machine.load_word(0x9000 + 64 * (i % 4))

        factory = lambda: build_context("insecure")  # noqa: E731
        loud = sanitize(factory, run_fn, secrets=(4, 8))
        assert not loud.clean
        quiet_kinds = {
            d.kind
            for d in sanitize(
                factory, run_fn, secrets=(4, 8), check_cycles=False
            ).divergences
        }
        assert "cycles" not in quiet_kinds
