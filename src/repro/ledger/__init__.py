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

from repro.ledger.bench import (
    BENCH_SCHEMA,
    bench_document,
    validate_bench_document,
    write_bench,
)
from repro.ledger.gate import GateConfig, GateFinding, GateResult, gate_ledger, gate_record
from repro.ledger.record import (
    LEDGER_SCHEMA_VERSION,
    KernelSummary,
    RunRecord,
    fingerprint_of,
    machine_spec,
    record_from_clamr,
    record_from_self,
    workload_key_of,
)
from repro.ledger.report import compare_table, ledger_summary, sparkline, trend_table
from repro.ledger.runner import record_job, run_workload
from repro.ledger.stats import NoiseModel, mad, median, noise_model, regression_threshold
from repro.ledger.store import Ledger

__all__ = [
    "LEDGER_SCHEMA_VERSION",
    "RunRecord",
    "KernelSummary",
    "Ledger",
    "fingerprint_of",
    "workload_key_of",
    "machine_spec",
    "record_from_clamr",
    "record_from_self",
    "record_job",
    "run_workload",
    "NoiseModel",
    "median",
    "mad",
    "noise_model",
    "regression_threshold",
    "GateConfig",
    "GateFinding",
    "GateResult",
    "gate_record",
    "gate_ledger",
    "sparkline",
    "trend_table",
    "ledger_summary",
    "compare_table",
    "BENCH_SCHEMA",
    "bench_document",
    "validate_bench_document",
    "write_bench",
]
