"""The chaos harness is itself the test: one full fault-injection pass.

``run_chaos`` kills a worker with SIGKILL mid-computation, tears a queue
file, and corrupts a cache entry, then audits exactly-once completion,
baseline-identical physics, quarantine hygiene, and cache/ledger
bit-identity.  Slow by this suite's standards (several seconds of real
workload, twice) but it is the test that makes every robustness claim in
docs/service.md falsifiable.
"""

from tests.service_chaos import ChaosOptions, run_chaos


def test_chaos_pass_survives_every_fault(tmp_path):
    report = run_chaos(tmp_path, ChaosOptions())
    assert report.ok, report.summary()
    # the kill really landed mid-computation (otherwise the pass proved
    # less than it claims) ...
    assert report.kill_state == "running"
    assert report.killed_pid > 0
    # ... and the audit saw the full expected shape, not a vacuous pass
    assert report.done_computed == 4
    assert report.done_cached == 2
    assert report.ledger_records == 4
    assert list(report.quarantined) == ["torn-job"]
    assert -9 in report.worker_returncodes  # one worker died by SIGKILL
