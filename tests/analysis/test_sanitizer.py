"""Relational sanitizer: leaks flagged, mitigations proven clean."""

import pytest

from repro.analysis.sanitizer import (
    DEFAULT_LEVELS,
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

    def test_cycle_divergence_is_reported(self):
        # The second secret re-loads the same four lines: the extra
        # hits cost cycles, and the report names the timing difference.
        from repro.experiments.config import build_context

        def run_fn(ctx, secret):
            machine = ctx.machine
            for i in range(int(secret)):
                machine.load_word(0x9000 + 64 * (i % 4))

        factory = lambda: build_context("insecure")  # noqa: E731
        report = sanitize(factory, run_fn, secrets=(4, 8))
        assert not report.clean
        assert "cycles" in {d.kind for d in report.divergences}


def _insecure():
    from repro.experiments.config import build_context

    return build_context("insecure")


LINE_A = 0x10000
LINE_B = 0x10040  # the next line: a different set on every level


def _load_a(ctx, secret):
    ctx.machine.load_word(LINE_A)


def _load_a_then_b_for_two(ctx, secret):
    # Secret 2's trace extends secret 1's by one more line.
    ctx.machine.load_word(LINE_A)
    if secret == 2:
        ctx.machine.load_word(LINE_B)


class TestVerdicts:
    """Clean stays clean, a leak is flagged, and the report says how."""

    def test_secret_independent_victim_is_clean(self):
        report = sanitize(_insecure, _load_a, secrets=(1, 2, 3))
        assert report.clean, report.describe()
        assert len(report.observations) == 3
        events = [o.events for o in report.observations]
        assert events[0]
        assert events == [events[0]] * 3

    def test_secret_dependent_victim_names_first_event(self):
        report = sanitize(
            _insecure,
            lambda ctx, s: ctx.machine.load_word(LINE_A + 4096 * s),
            secrets=(1, 2),
        )
        assert not report.clean
        first = report.divergences[0]
        assert first.kind == "event-trace"
        assert first.index == 0
        assert first.secrets == (1, 2)
        assert "final-state" in {d.kind for d in report.divergences}

    def test_set_profile_divergence_names_each_level(self):
        report = sanitize(
            _insecure,
            lambda ctx, s: ctx.machine.load_word(LINE_A + 4096 * s),
            secrets=(1, 2),
        )
        details = [
            d.detail for d in report.divergences if d.kind == "set-profile"
        ]
        assert [d.split()[0] for d in details] == list(DEFAULT_LEVELS)

    def test_untouched_set_counts_as_zero(self):
        # Secret 1 never touches LINE_B's set: its missing profile entry
        # differs from secret 2's one access.
        report = sanitize(_insecure, _load_a_then_b_for_two, secrets=(1, 2))
        l1d = _insecure().machine.hierarchy.level("L1D")
        want = (
            "L1D per-set access counts differ on 1 set(s) "
            f"(first: [{l1d.set_index(LINE_B)}])"
        )
        assert want in [d.detail for d in report.divergences]

    def test_trace_prefix_is_an_event_count_divergence(self):
        report = sanitize(_insecure, _load_a_then_b_for_two, secrets=(1, 2))
        kinds = {d.kind for d in report.divergences}
        assert "event-count" in kinds
        assert "event-trace" not in kinds
        a, b = report.observations
        assert b.events[: len(a.events)] == a.events

    def test_extra_hit_leaks_with_the_same_final_state(self):
        # A second load of a resident line changes nothing the final
        # cache state shows, but the hit is an event and costs cycles.
        def run_fn(ctx, secret):
            for _ in range(secret):
                ctx.machine.load_word(LINE_A)

        report = sanitize(_insecure, run_fn, secrets=(1, 2))
        kinds = {d.kind for d in report.divergences}
        assert {"event-count", "cycles"} <= kinds
        assert "final-state" not in kinds
        profiles = [
            d.detail.split()[0]
            for d in report.divergences
            if d.kind == "set-profile"
        ]
        assert profiles == ["L1D"]


class TestRecording:
    """What one secret's observation holds."""

    def test_one_load_counts_once_on_every_level(self):
        report = sanitize(_insecure, _load_a, secrets=(1, 2))
        assert report.levels == DEFAULT_LEVELS
        for obs in report.observations:
            assert tuple(obs.set_profiles) == DEFAULT_LEVELS
            for counts in obs.set_profiles.values():
                assert sum(counts.values()) == 1

    def test_observation_keeps_secret_and_result(self):
        report = sanitize(
            _insecure,
            lambda ctx, s: ctx.machine.load_word(LINE_A) + s,
            secrets=(7, 9),
        )
        assert [o.secret for o in report.observations] == [7, 9]
        assert [o.result for o in report.observations] == [7, 9]

    def test_each_secret_runs_on_a_fresh_context(self):
        made = []

        def factory():
            made.append(_insecure())
            return made[-1]

        seen = []
        report = sanitize(
            factory,
            lambda ctx, s: seen.append(ctx) or _load_a(ctx, s),
            secrets=(1, 2, 3),
        )
        assert report.clean
        assert seen == made
        assert len({id(ctx.machine) for ctx in made}) == 3

    def test_clean_describe_counts_events(self):
        report = sanitize(_insecure, _load_a, secrets=(1, 2))
        events = len(report.observations[0].events)
        assert f"{events} observable events each" in report.describe()


class TestWarmup:
    def _warm(self, calls):
        def warm(ctx):
            calls.append(ctx)
            ctx.machine.load_word(0x20000)

        return warm

    def test_warmup_runs_once_on_each_fresh_context(self):
        calls = []
        seen = []
        sanitize(
            _insecure,
            lambda ctx, s: seen.append(ctx),
            secrets=(1, 2, 3),
            warmup=self._warm(calls),
        )
        assert calls == seen
        assert len({id(ctx) for ctx in calls}) == 3

    def test_warmup_stays_out_of_the_recorded_events(self):
        # The warm-up's events happen before the observers attach; its
        # cycles and set-profile counts are in every run alike.
        report = sanitize(
            _insecure,
            lambda ctx, s: None,
            secrets=(1, 2),
            warmup=self._warm([]),
        )
        assert report.clean
        for obs in report.observations:
            assert obs.events == []
            assert obs.cycles > 0
            assert sum(obs.set_profiles["L1D"].values()) == 1


class TestPerSecretImages:
    """``sanitize_program`` with a different array image per secret:
    each run sets up its own arrays inside the observed window."""

    @staticmethod
    def _table(secret):
        return {"table": [10 * secret + i for i in range(SIZE)]}

    @pytest.mark.parametrize(
        "scheme,mitigate", [("insecure", False), ("bia-l1d", True)]
    )
    def test_secret_table_values_are_invisible(self, scheme, mitigate):
        # Only the values differ; the public key picks the same line.
        program, reference = lookup_program(SIZE)

        def inputs_for_secret(secret):
            return {"key": 5}, self._table(secret)

        report = sanitize_program(
            program,
            inputs_for_secret,
            scheme=scheme,
            mitigate=mitigate,
            secrets=(1, 2),
        )
        assert report.clean, report.describe()
        for obs in report.observations:
            inputs, arrays = inputs_for_secret(obs.secret)
            assert obs.result["out"] == reference(inputs, arrays)["out"]

    @pytest.mark.parametrize(
        "scheme,mitigate,clean",
        [("insecure", False, False), ("bia-l1d", True, True)],
    )
    def test_secret_key_leaks_only_unmitigated(self, scheme, mitigate, clean):
        program, _ = lookup_program(SIZE)
        report = sanitize_program(
            program,
            lambda secret: ({"key": secret}, self._table(secret)),
            scheme=scheme,
            mitigate=mitigate,
            secrets=SECRETS,
        )
        assert report.clean is clean, report.describe()


class TestDescribe:
    def test_long_divergence_list_is_truncated(self):
        report = SanitizerReport(secrets=(1, 2), levels=("L1D",))
        report.divergences.extend(
            TraceDivergence(kind="cycles", secrets=(1, 2), detail=str(i))
            for i in range(8)
        )
        text = report.describe(limit=6)
        assert "8 divergence(s)" in text
        assert text.count("  - ") == 6
        assert text.endswith("... 2 more")

    def test_divergence_without_index_names_no_event(self):
        div = TraceDivergence(kind="final-state", secrets=(1, 2), detail="d")
        assert div.describe() == "[final-state] secrets 1 vs 2: d"
