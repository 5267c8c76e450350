"""Fault-injection harness for the sweep service: break it, then audit it.

A test harness, run by ``tests/test_service_chaos.py``; no program path
imports it.

The service's claims — exactly-once completion, tamper-proof caching,
damage quarantine — are cheap to state and easy to get subtly wrong, so
this module earns them the way the resilience subsystem earned its
recovery claims: by injecting the faults and auditing the wreckage.

One :func:`run_chaos` pass, against a throwaway queue directory:

1. computes a **serial baseline** for every unique job (the ground truth
   fingerprints and conservation hashes);
2. **corrupts a cache entry** for one of the jobs (valid JSON, wrong
   digest — the hardest tamper to notice);
3. **tears a queue file** (invalid JSON dropped straight into
   ``pending/``, as a crash mid-write would);
4. submits the real jobs — slowest first, plus duplicate submissions —
   and starts two ``repro serve`` worker processes;
5. **kills one worker with SIGKILL** while it is mid-computation on the
   slow job (caught via its lease file);
6. drains the queue and audits: every submitted job done exactly once,
   duplicates served from cache, the tampered entry recomputed (never
   served), the torn file quarantined with a one-line reason, the ledger
   parseable with exactly one record per unique key, every fingerprint
   and conservation hash identical to the serial baseline, and every
   cache entry byte-identical to the ledger record it mirrors.

The report lists every violated expectation; ``report.ok`` is the single
bit CI and tests assert on.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.ledger.store import Ledger
from repro.service.cache import ResultCache
from repro.service.jobs import JobSpec, execute_job
from repro.service.lease import read_lease
from repro.service.queue import JobQueue
from repro.service.retry import RetryPolicy
from repro.service.worker import WorkerOptions, run_worker

__all__ = ["ChaosOptions", "ChaosReport", "run_chaos"]


@dataclass(frozen=True)
class ChaosOptions:
    """Knobs for one chaos pass; defaults run in tens of seconds.

    The slow job must outlive worker startup plus the kill window —
    shrink it only if the harness still reports the kill landed while
    the job was ``running``.
    """

    slow_nx: int = 64
    slow_steps: int = 400
    tiny_nx: int = 12
    tiny_steps: int = 12
    workers: int = 2
    lease_ttl_s: float = 2.0
    idle_timeout_s: float = 3.0
    kill_delay_s: float = 0.3
    deadline_s: float = 300.0


@dataclass
class ChaosReport:
    """Everything one chaos pass observed, plus the violated expectations."""

    problems: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    done_computed: int = 0
    done_cached: int = 0
    ledger_records: int = 0
    unique_keys: int = 0
    killed_pid: int = 0
    kill_state: str = ""
    quarantined: dict = field(default_factory=dict)
    worker_returncodes: list = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.problems

    def expect(self, condition: bool, problem: str) -> None:
        if not condition:
            self.problems.append(problem)

    def summary(self) -> str:
        verdict = "OK" if self.ok else f"{len(self.problems)} problem(s)"
        lines = [
            f"chaos: {verdict} in {self.wall_s:.1f}s",
            f"  done         : {self.done_computed} computed, "
            f"{self.done_cached} cache hit(s)",
            f"  ledger       : {self.ledger_records} record(s), "
            f"{self.unique_keys} unique key(s)",
            f"  killed       : pid {self.killed_pid} while job {self.kill_state}",
            f"  quarantined  : {len(self.quarantined)}",
        ]
        lines.extend(f"  PROBLEM      : {p}" for p in self.problems)
        return "\n".join(lines)


def _chaos_specs(opts: ChaosOptions) -> tuple[JobSpec, list[JobSpec]]:
    """(the slow kill target, all four unique specs slowest-first)."""
    slow = JobSpec(
        "clamr", nx=opts.slow_nx, steps=opts.slow_steps, policy="mixed", label="chaos-slow"
    )
    tiny = [
        JobSpec("clamr", nx=opts.tiny_nx, steps=opts.tiny_steps, policy="mixed"),
        JobSpec("clamr", nx=opts.tiny_nx, steps=opts.tiny_steps, policy="full"),
        JobSpec("self", elems=3, order=3, steps=6, watch_stride=2),
    ]
    return slow, [slow, *tiny]


def _tamper_cache_entry(cache: ResultCache, key: str) -> None:
    """Modify the cached *record* without updating the envelope digest.

    Valid JSON, plausible content, stale digest — the corruption a
    naive ``json.loads``-and-go cache would happily serve.
    """
    path = cache.path_for(key)
    envelope = json.loads(path.read_text(encoding="utf-8"))
    envelope["record"]["wall_s"] = 123456.0
    path.write_text(json.dumps(envelope, sort_keys=True), encoding="utf-8")


def _spawn_worker(queue_root: Path, ledger: Path, opts: ChaosOptions) -> subprocess.Popen:
    src_dir = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src_dir), env.get("PYTHONPATH", "")) if p
    )
    cmd = [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--queue",
        str(queue_root),
        "--ledger",
        str(ledger),
        "--idle-timeout",
        str(opts.idle_timeout_s),
        "--poll",
        "0.05",
        "--lease-ttl",
        str(opts.lease_ttl_s),
    ]
    return subprocess.Popen(
        cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )


def _kill_mid_job(
    queue: JobQueue, job_id: str, opts: ChaosOptions, report: ChaosReport
) -> None:
    """SIGKILL whichever worker holds ``job_id``'s lease, mid-computation."""
    deadline = time.monotonic() + opts.deadline_s
    while time.monotonic() < deadline:
        job = queue.find(job_id)
        if job is None:
            time.sleep(0.02)  # mid-rename; re-poll
            continue
        if job.state in ("done", "failed", "quarantine"):
            report.problems.append(
                f"slow job reached {job.state} before the kill landed — "
                f"raise slow_steps so the kill window exists"
            )
            return
        lease = read_lease(queue.lease_path(job_id))
        if job.state == "running" and lease is not None:
            time.sleep(opts.kill_delay_s)  # let it get properly mid-computation
            job = queue.find(job_id)
            if job is None or job.state != "running":
                continue  # finished or moved during the delay; re-poll
            report.killed_pid = lease.pid
            report.kill_state = job.state
            try:
                os.kill(lease.pid, signal.SIGKILL)
            except OSError as exc:
                report.problems.append(f"could not SIGKILL worker {lease.pid}: {exc}")
            return
        time.sleep(0.02)
    report.problems.append("slow job never reached running; nothing was killed")


def run_chaos(root: str | Path, opts: ChaosOptions | None = None) -> ChaosReport:
    """One full fault-injection pass against a fresh queue under ``root``."""
    opts = opts or ChaosOptions()
    report = ChaosReport()
    t_start = time.perf_counter()

    root = Path(root)
    queue = JobQueue(root / "queue").ensure()
    ledger_path = root / "ledger"
    cache = ResultCache(root / "queue" / ".cache")

    # 1. serial baseline: ground truth for every unique key
    slow_spec, unique_specs = _chaos_specs(opts)
    baseline = {}
    for spec in unique_specs:
        record = execute_job(spec.to_dict())
        baseline[record.workload_key] = record
    report.unique_keys = len(baseline)
    report.expect(
        len(baseline) == len(unique_specs),
        f"spec collision: {len(unique_specs)} specs hash to {len(baseline)} keys",
    )

    # 2. a tampered cache entry for a unique, non-duplicated key: if the
    #    validator misses it, the stale record is served and that key
    #    never reaches the ledger — the audit below would catch both
    tamper_key = unique_specs[2].workload_key()
    cache.put(baseline[tamper_key])
    _tamper_cache_entry(cache, tamper_key)

    # 3. a torn job file, as a crash mid-write would leave it
    torn = queue.dir("pending") / "torn-job.json"
    torn.write_text('{"schema": 1, "id": "torn-job", "workload_', encoding="utf-8")

    # 4. submit slowest-first, then duplicates of two tiny keys last
    submitted = [queue.submit(spec) for spec in unique_specs]
    slow_id = submitted[0].id
    duplicates = [queue.submit(unique_specs[1]), queue.submit(unique_specs[3])]
    expected_done = len(submitted) + len(duplicates)

    workers = [_spawn_worker(queue.root, ledger_path, opts) for _ in range(opts.workers)]
    try:
        # 5. kill one worker mid-computation on the slow job
        _kill_mid_job(queue, slow_id, opts, report)

        deadline = time.monotonic() + opts.deadline_s
        for proc in workers:
            try:
                proc.wait(timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                report.problems.append(f"worker {proc.pid} overstayed the deadline")
        report.worker_returncodes = [proc.returncode for proc in workers]
    finally:
        for proc in workers:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    # 6. mop up whatever the surviving worker left (e.g. the reclaimed
    #    slow job still in its backoff window when the fleet went idle)
    drain = run_worker(
        WorkerOptions(
            queue=queue.root,
            ledger=ledger_path,
            retry=RetryPolicy(),
            lease_ttl_s=opts.lease_ttl_s,
            poll_s=0.05,
            drain=True,
        ),
        should_stop=lambda: time.perf_counter() - t_start > opts.deadline_s,
    )
    report.expect(
        drain.failed == 0, f"drain saw {drain.failed} job(s) exhaust their retries"
    )

    # -- audit -------------------------------------------------------------

    report.counts = queue.counts()
    status = queue.status()
    report.done_computed = status["done_computed"]
    report.done_cached = status["done_cached"]
    report.quarantined = dict(status["quarantine"])

    report.expect(
        report.counts["done"] == expected_done,
        f"{report.counts['done']} done, expected {expected_done} "
        f"(every submitted job must complete exactly once)",
    )
    report.expect(
        queue.active_count() == 0,
        f"{queue.active_count()} job(s) still active after drain",
    )
    report.expect(
        report.counts["failed"] == 0, f"{report.counts['failed']} job(s) in failed/"
    )
    report.expect(
        report.done_computed == len(unique_specs),
        f"{report.done_computed} computed, expected {len(unique_specs)} "
        f"(tampered cache must recompute, duplicates must not)",
    )
    report.expect(
        report.done_cached == len(duplicates),
        f"{report.done_cached} cache hit(s), expected {len(duplicates)}",
    )

    # the torn file — and nothing else — is quarantined, with one line
    report.expect(
        report.counts["quarantine"] == 1 and "torn-job" in report.quarantined,
        f"quarantine holds {sorted(report.quarantined)}, expected exactly ['torn-job']",
    )
    torn_reason = report.quarantined.get("torn-job", "")
    report.expect(
        bool(torn_reason) and "\n" not in torn_reason,
        f"torn-job reason must be one line, got {torn_reason!r}",
    )

    # the ledger survived concurrent writers and a SIGKILL: parseable,
    # exactly one record per unique key, bit-for-bit the baseline physics
    try:
        records = Ledger(ledger_path).load().records()
    except ValueError as exc:
        report.problems.append(f"ledger unreadable after chaos: {exc}")
        records = []
    report.ledger_records = len(records)
    by_key: dict[str, list] = {}
    for record in records:
        by_key.setdefault(record.workload_key, []).append(record)
    report.expect(
        sorted(by_key) == sorted(baseline),
        f"ledger keys {sorted(by_key)} != submitted keys {sorted(baseline)}",
    )
    for key, runs in by_key.items():
        report.expect(
            len(runs) == 1,
            f"workload {key} has {len(runs)} ledger records (ran more than once)",
        )
    for key, expected in baseline.items():
        got = by_key.get(key, [None])[0]
        if got is None:
            continue  # already reported by the key-set check
        report.expect(
            got.fingerprint == expected.fingerprint,
            f"workload {key}: fingerprint {got.fingerprint} != baseline "
            f"{expected.fingerprint}",
        )
        got_hex = (got.fidelity or {}).get("conservation_last_hex")
        want_hex = (expected.fidelity or {}).get("conservation_last_hex")
        report.expect(
            got_hex == want_hex,
            f"workload {key}: conservation hash {got_hex} != baseline {want_hex}",
        )

    # every cache entry validates and is byte-identical to its ledger twin
    for key, runs in by_key.items():
        entry = cache.get(key)
        if entry is None:
            report.problems.append(f"workload {key}: no valid cache entry after run")
            continue
        report.expect(
            entry.to_json() == runs[0].to_json(),
            f"workload {key}: cache entry differs from its ledger record",
        )

    report.wall_s = time.perf_counter() - t_start
    return report
