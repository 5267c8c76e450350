"""``repro.ledger`` — persistent cross-run telemetry and regression gating.

PR-1's telemetry (:mod:`repro.telemetry`) answers questions about *one*
run and dies with the process.  The ledger is the longitudinal layer on
top: every simulation/benchmark run is reduced to a :class:`RunRecord`
— a deterministic fingerprint (workload config, precision policy,
machine spec, git sha, seed), per-kernel span/counter summaries, and
fidelity metrics (conservation drift, asymmetry amplitude, numerical
event counts) — and appended to an append-only, schema-versioned JSONL
ledger.  With runs persisted, the questions RAPTOR-style profiling
actually pays off on become answerable:

* "did the mixed-precision MUSCL kernel get slower since last week?" —
  :func:`trend_table` (per-kernel medians + unicode sparklines),
* "what changed between these two configurations?" —
  :func:`compare_table` (per-kernel deltas with a MAD noise model),
* "is this PR a regression?" — :func:`gate_ledger` (median-of-k +
  MAD-based thresholds over a committed baseline; perf *and* fidelity).

Usage::

    ledger = Ledger("runs/ledger.jsonl")
    record, tel = run_workload(JobSpec("clamr", nx=24, steps=40, policy="mixed"))
    ledger.append(record)
    print(trend_table(ledger).render())

where ``JobSpec`` (:mod:`repro.service.jobs`) is the one description of
a traced workload run.  The ``repro ledger`` CLI family (``record`` /
``report`` / ``compare`` / ``gate`` / ``export-bench``) wraps exactly
these calls; see ``docs/observatory.md``.
"""

from __future__ import annotations

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "LEDGER_SCHEMA_VERSION": "repro.ledger.record",
    "RunRecord": "repro.ledger.record",
    "KernelSummary": "repro.ledger.record",
    "Ledger": "repro.ledger.store",
    "fingerprint_of": "repro.ledger.record",
    "workload_key_of": "repro.ledger.record",
    "machine_spec": "repro.ledger.record",
    "record_from_clamr": "repro.ledger.record",
    "record_from_self": "repro.ledger.record",
    "record_job": "repro.ledger.runner",
    "run_workload": "repro.ledger.runner",
    "NoiseModel": "repro.ledger.stats",
    "median": "repro.ledger.stats",
    "mad": "repro.ledger.stats",
    "noise_model": "repro.ledger.stats",
    "regression_threshold": "repro.ledger.stats",
    "GateConfig": "repro.ledger.gate",
    "GateFinding": "repro.ledger.gate",
    "GateResult": "repro.ledger.gate",
    "gate_record": "repro.ledger.gate",
    "gate_ledger": "repro.ledger.gate",
    "sparkline": "repro.ledger.report",
    "trend_table": "repro.ledger.report",
    "ledger_summary": "repro.ledger.report",
    "compare_table": "repro.ledger.report",
    "BENCH_SCHEMA": "repro.ledger.bench",
    "bench_document": "repro.ledger.bench",
    "validate_bench_document": "repro.ledger.bench",
    "write_bench": "repro.ledger.bench",
})
