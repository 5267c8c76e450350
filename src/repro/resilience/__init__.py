"""Resilience subsystem: fault injection, detection, and recovery.

Reduced precision shrinks every safety margin the paper's mini-apps
rely on — dynamic-range headroom, conservation drift, physical
invariants — so a robustness story has to answer two questions the
precision sweeps alone cannot: *when state corrupts, do we notice?* and
*having noticed, can we still finish the run?*  This package answers
both experimentally:

* :mod:`repro.resilience.faults` — deterministic, seeded, step-addressed
  injection of bit-flips, NaN/Inf, and overflow-scale values into named
  state arrays;
* :mod:`repro.resilience.detectors` — non-finite scans (via the
  telemetry watchpoints), conservation-drift bounds, and physical
  invariant checks;
* :mod:`repro.resilience.adapters` — a uniform supervision surface over
  the CLAMR and SELF drivers (step, snapshot/restore, escalate,
  halve dt);
* :mod:`repro.resilience.runner` — the checkpoint / detect / rollback /
  retry supervisor with its recovery ladder and abort budget;
* :mod:`repro.resilience.campaign` — sweeps of fault sites × precision
  levels producing the vulnerability report and ledger records.

CLI: ``repro resilience inject|run|campaign``.
"""

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "FAULT_KINDS": "repro.resilience.faults",
    "RECOVERY_ACTIONS": "repro.resilience.runner",
    "FaultSpec": "repro.resilience.faults",
    "FaultPlan": "repro.resilience.faults",
    "InjectedFault": "repro.resilience.faults",
    "FaultInjector": "repro.resilience.faults",
    "Detection": "repro.resilience.detectors",
    "NonFiniteDetector": "repro.resilience.detectors",
    "ConservationDetector": "repro.resilience.detectors",
    "InvariantDetector": "repro.resilience.detectors",
    "DetectorSuite": "repro.resilience.detectors",
    "ClamrAdapter": "repro.resilience.adapters",
    "SelfAdapter": "repro.resilience.adapters",
    "make_adapter": "repro.resilience.adapters",
    "RecoveryPolicy": "repro.resilience.runner",
    "ResilienceReport": "repro.resilience.runner",
    "ResilientRunner": "repro.resilience.runner",
    "probe": "repro.resilience.runner",
    "CampaignConfig": "repro.resilience.campaign",
    "CellOutcome": "repro.resilience.campaign",
    "CampaignResult": "repro.resilience.campaign",
    "run_cell": "repro.resilience.campaign",
    "run_campaign": "repro.resilience.campaign",
    "record_resilient_run": "repro.resilience.campaign",
    "vulnerability_table": "repro.resilience.campaign",
})
