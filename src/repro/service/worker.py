"""The sweep-service worker: claim, check the cache, execute, record.

One worker is one loop over the queue:

1. **Reclaim** — every pass first re-queues jobs whose worker died or
   hung (:meth:`~repro.service.queue.JobQueue.reclaim_stale`), so a
   fleet heals itself without a dedicated janitor process.
2. **Claim** — the oldest eligible pending job, scope-deduplicated by
   workload key.
3. **Serve or compute** — a valid cache entry for the job's workload key
   is served as-is (the record is bit-identical to what recomputation
   would produce, minus wall-clock — the ledger proved that invariant);
   otherwise the job runs in-process
   (:func:`~repro.service.jobs.execute_job`) under a heartbeat lease, its
   record is appended to the ledger *under the advisory file
   lock* (concurrent workers cannot interleave JSONL writes), and the
   cache is populated for every future duplicate.
4. **Record the outcome** — done with a result summary, re-queued with
   capped-backoff on an ordinary error, failed once the retry policy is
   exhausted.

Workers hold no private state the queue does not: killing one at any
instant loses at most the in-flight computation, which the lease
machinery returns to pending.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.ledger.store import Ledger
from repro.service.cache import ResultCache
from repro.service.jobs import execute_job
from repro.service.lease import Heartbeat, Lease
from repro.service.queue import Job, JobLost, JobQueue
from repro.service.retry import RetryPolicy

__all__ = ["WorkerOptions", "WorkerReport", "run_worker"]


@dataclass(frozen=True)
class WorkerOptions:
    """One worker's configuration; paths default next to the queue root."""

    queue: Path
    ledger: Path | None = None
    cache: Path | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    lease_ttl_s: float = 30.0
    poll_s: float = 0.2
    max_jobs: int = 0  # 0 = unlimited
    idle_timeout_s: float = 0.0  # 0 = only stop when told (or drained)
    drain: bool = False  # stop once nothing is pending/claimed/running

    def cache_dir(self) -> Path:
        return Path(self.cache) if self.cache else Path(self.queue) / ".cache"


@dataclass
class WorkerReport:
    """What one worker loop did, for logs and assertions."""

    pid: int = 0
    completed: int = 0
    computed: int = 0
    cache_hits: int = 0
    retried: int = 0
    failed: int = 0
    lost: int = 0
    reclaim_actions: list[str] = field(default_factory=list)
    wall_s: float = 0.0

    def summary(self) -> str:
        lines = [
            f"worker {self.pid}: {self.completed} job(s) completed "
            f"({self.computed} computed, {self.cache_hits} cache hit(s))",
            f"  retried      : {self.retried}",
            f"  failed       : {self.failed}",
            f"  lost leases  : {self.lost}",
            f"  reclaims     : {len(self.reclaim_actions)}",
            f"  wall         : {self.wall_s:.2f}s",
        ]
        for action in self.reclaim_actions:
            lines.append(f"  reclaim      : {action}")
        return "\n".join(lines)


def _result_summary(record, cached: bool) -> dict:
    """The JSON-safe outcome a done job file carries."""
    fidelity = record.fidelity or {}
    return {
        "workload_key": record.workload_key,
        "fingerprint": record.fingerprint,
        "cached": cached,
        "policy": record.policy,
        "conservation_last_hex": fidelity.get("conservation_last_hex", ""),
        "wall_s": record.wall_s,
    }


def process_one(
    queue: JobQueue,
    job: Job,
    lease: Lease,
    cache: ResultCache,
    opts: WorkerOptions,
    report: WorkerReport,
) -> None:
    """Serve one claimed job from cache or compute it; never raises."""
    hit = cache.get(job.workload_key)
    if hit is not None:
        try:
            queue.finish(job, _result_summary(hit, cached=True))
        except JobLost:
            report.lost += 1
            return
        report.completed += 1
        report.cache_hits += 1
        return

    try:
        job = queue.start(job)
    except JobLost:
        report.lost += 1
        return
    heartbeat = Heartbeat(queue.lease_path(job.id), lease).start()
    try:
        record = execute_job(job.spec_doc)
    except Exception as exc:  # noqa: BLE001 — any job error must not kill the worker
        heartbeat.stop()
        error = f"{type(exc).__name__}: {exc}"
        try:
            _job, outcome = queue.fail(job, error, opts.retry)
        except JobLost:
            report.lost += 1
            return
        if outcome == "failed":
            report.failed += 1
        else:
            report.retried += 1
        return
    heartbeat.stop()

    if opts.ledger is not None:
        Ledger(opts.ledger).append(record)
    cache.put(record)
    try:
        queue.finish(job, _result_summary(record, cached=False))
    except JobLost:
        # the computation is not wasted — the record is in the ledger and
        # cache, so the reclaimed twin will be served as a cache hit
        report.lost += 1
        return
    report.completed += 1
    report.computed += 1


def run_worker(opts: WorkerOptions, should_stop=None) -> WorkerReport:
    """Run one worker loop until drained, idle-timed-out, or told to stop.

    ``should_stop`` is an optional zero-argument callable polled between
    jobs (the CLI wires SIGTERM/SIGINT to it so a supervised worker
    finishes its current job before exiting).
    """
    queue = JobQueue(opts.queue).ensure()
    cache = ResultCache(opts.cache_dir())
    report = WorkerReport(pid=os.getpid())
    t_start = time.perf_counter()
    last_work = time.monotonic()

    while True:
        if should_stop is not None and should_stop():
            break
        report.reclaim_actions.extend(queue.reclaim_stale(opts.retry))
        claimed = queue.claim(lease_ttl_s=opts.lease_ttl_s)
        if claimed is None:
            if opts.drain and queue.active_count() == 0:
                break
            if (
                opts.idle_timeout_s > 0
                and time.monotonic() - last_work > opts.idle_timeout_s
            ):
                break
            time.sleep(opts.poll_s)
            continue
        job, lease = claimed
        process_one(queue, job, lease, cache, opts, report)
        last_work = time.monotonic()
        if opts.max_jobs and report.completed + report.failed >= opts.max_jobs:
            break

    report.wall_s = time.perf_counter() - t_start
    return report
