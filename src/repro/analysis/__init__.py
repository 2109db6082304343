"""Constant-time checking: static lint, interval proofs, trace sanitizer.

The simulator's mitigation layers (:mod:`repro.ct`) *transform* secret
dependent behaviour away; this package *verifies* that discipline at
three layers:

* :mod:`repro.analysis.ctlint` — structured diagnostics over
  :mod:`repro.lang.ir` programs (stable rule IDs, severities, exact
  program points via :func:`repro.lang.pretty.statement_paths`);
* :mod:`repro.analysis.intervals` — a value-range abstract interpreter
  (widening over loops) that bounds every ``Load``/``Store`` index and
  proves whether a dataflow linearization set covers every address an
  access can reach (:func:`~repro.analysis.intervals.prove_ds_covers`);
* :mod:`repro.analysis.sanitizer` — a dynamic relational checker that
  runs a program twice under differing secrets and diffs the
  attacker-observable line-granularity traces and cycle counts
  (Binsec/Rel-style self-composition, operationalized on the
  simulated machine);
* :mod:`repro.analysis.repair` — automatic mitigation synthesis: maps
  relational counterexamples to the responsible IR statements, applies
  the cheapest sufficient transform (:mod:`repro.lang.transforms`),
  and re-proves until ``CT-PROVED``.

:mod:`repro.analysis.api` ties the layers into the ``python -m repro
ctcheck`` CLI subcommand and the ``ctcheck`` pytest marker.
"""
