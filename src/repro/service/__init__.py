"""Sweep-as-a-service: a crash-safe job queue serving tradespace queries.

The ledger reduced every run to a machine-independent ``workload_key``
plus a fingerprint — a free memoization key.  This subpackage is the
serving layer built on that fact: submit sweep jobs into a disk-backed
queue, run any number of workers against it, and let identical requests
be served from a content-addressed cache of finished run records instead
of recomputed.  Robustness is the design center, proven the same way
PR 4 proved numerical resilience — by injecting the faults:

* :mod:`repro.service.jobs` — job specs whose ``workload_key`` is
  computable *before* the run (pinned against the ledger's identity);
* :mod:`repro.service.queue` — atomic per-job JSON files moving
  ``pending → claimed → running → done/failed``, claimed by atomic
  rename, with scope-based claiming so duplicate submissions wait for
  the cache instead of recomputing, and quarantine for torn files and
  poison jobs;
* :mod:`repro.service.lease` — owner-pid + heartbeat leases, so a
  ``kill -9``'d worker's job is re-queued, not lost;
* :mod:`repro.service.retry` — capped exponential backoff with
  deterministic jitter, shared with the resilience recovery ladder;
* :mod:`repro.service.cache` — ``.cache/<workload_key>.json`` entries
  validated against their own digests and fingerprints on every read
  (tamper ⇒ recompute, never serve);
* :mod:`repro.service.worker` — the claim/serve/compute/record loop
  behind ``repro serve`` and ``repro queue drain``.

The fault-injection harness that kills workers mid-job, tears queue
files and corrupts cache entries, then asserts every job completes
exactly once with records bit-identical to a serial baseline, lives with
the tests (``tests/service_chaos.py``).

See ``docs/service.md`` for the lifecycle diagram and the exactly-once
fine print.
"""

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "Heartbeat": "repro.service.lease",
    "Job": "repro.service.queue",
    "JobLost": "repro.service.queue",
    "JobQueue": "repro.service.queue",
    "JobSpec": "repro.service.jobs",
    "JOB_STATES": "repro.service.queue",
    "Lease": "repro.service.lease",
    "ResultCache": "repro.service.cache",
    "RetryPolicy": "repro.service.retry",
    "WorkerOptions": "repro.service.worker",
    "WorkerReport": "repro.service.worker",
    "execute_job": "repro.service.jobs",
    "run_worker": "repro.service.worker",
    "walk_ladder": "repro.service.retry",
})
