"""The process-parallel sweep executor: determinism is the contract.

A parallel sweep must be a *pure accelerator*: same results, same order,
same ledger records (minus wall-clock fields), same telemetry files as
the serial run.  These tests pin that contract for the executor itself
and for each wired consumer (harness sweeps, resilience campaign,
tradespace enumeration), plus the CLI's --jobs argument hygiene.
"""

import dataclasses
import json
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.machine.counters import WorkloadProfile
from repro.parallel.executor import (
    SweepExecutor,
    SweepTask,
    SweepWorkerError,
    TelemetrySpec,
    TracedResult,
    derive_seed,
    resolve_jobs,
)

#: run-record fields that legitimately differ between serial and
#: parallel executions of the same workload
TIMING_FIELDS = {"wall_s", "kernel_s", "created_unix"}


def normalized(record: dict) -> dict:
    """A ledger record minus its wall-clock timing fields."""
    out = {k: v for k, v in record.items() if k not in TIMING_FIELDS}
    out["kernels"] = {
        name: {k: v for k, v in summary.items() if k not in ("total_s", "mean_ms")}
        for name, summary in record.get("kernels", {}).items()
    }
    return out


def read_records(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def _square(x):
    return x * x


def _slow_inverse(i, n):
    # later tasks finish first: completion order is the reverse of
    # submission order, so any ordering bug would show
    time.sleep(0.01 * (n - i))
    return i


def _boom(i):
    if i == 2:
        raise RuntimeError("task 2 exploded")
    return i


class TestExecutor:
    def test_inline_matches_pool(self):
        tasks = [SweepTask(name=f"t{i}", fn=_square, args=(i,)) for i in range(9)]
        assert SweepExecutor(1).map(tasks) == SweepExecutor(4).map(tasks)

    def test_results_in_submission_order(self):
        n = 6
        tasks = [SweepTask(name=f"t{i}", fn=_slow_inverse, args=(i, n)) for i in range(n)]
        assert SweepExecutor(n).map(tasks) == list(range(n))

    def test_stream_pairs_tasks_with_results(self):
        tasks = [SweepTask(name=f"t{i}", fn=_square, args=(i,)) for i in range(4)]
        for jobs in (1, 2):
            for task, result in SweepExecutor(jobs).stream(tasks):
                assert result == task.args[0] ** 2

    def test_worker_exception_propagates(self):
        tasks = [SweepTask(name=f"t{i}", fn=_boom, args=(i,)) for i in range(4)]
        for jobs in (1, 3):
            with pytest.raises(RuntimeError, match="task 2 exploded"):
                SweepExecutor(jobs).map(tasks)

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ValueError):
            SweepExecutor(0)
        with pytest.raises(ValueError):
            SweepExecutor(-2)

    def test_empty_task_list(self):
        assert SweepExecutor(4).map([]) == []


class TestResolveJobs:
    def test_clamps_silently_to_sweep_size(self):
        assert resolve_jobs(16, 3) == 3
        assert resolve_jobs(2, 3) == 2

    def test_rejects_nonpositive(self):
        for bad in (0, -1, -99):
            with pytest.raises(ValueError):
                resolve_jobs(bad, 10)


class TestDeriveSeed:
    def test_matches_campaign_formula(self):
        # the historical inline formula the campaign used; parallel runs
        # must reproduce it exactly or re-runs replay different faults
        for seed, coords in [(0, ("H", "nan", "min", 1)), (42, ("U", "bitflip", "full", 0))]:
            text = "/".join(str(p) for p in (seed, *coords))
            assert derive_seed(seed, *coords) == zlib.crc32(text.encode()) & 0x7FFFFFFF

    def test_stable_and_distinct(self):
        a = derive_seed(7, "x", 1)
        assert a == derive_seed(7, "x", 1)
        assert a != derive_seed(7, "x", 2)
        assert 0 <= a <= 0x7FFFFFFF


def _traced_clamr(cfg, steps, telemetry=None):
    from repro.clamr import ClamrSimulation

    result = ClamrSimulation(cfg, policy="mixed", telemetry=telemetry).run(steps)
    return result.mass_drift


def _strip_clock(trace: dict) -> dict:
    """A merged Chrome trace minus its wall-clock fields (ts/dur).

    pid/tid/name/args and event order are submission-order-deterministic;
    only the timestamps depend on which worker ran when.
    """
    events = []
    for e in trace["traceEvents"]:
        events.append({k: v for k, v in e.items() if k not in ("ts", "dur")})
    return {**trace, "traceEvents": events}


class TestTracedTasks:
    def _tasks(self):
        from repro.clamr import DamBreakConfig

        cfg = DamBreakConfig(nx=10, ny=10, max_level=1)
        return [
            SweepTask(
                name=f"t{i}",
                fn=_traced_clamr,
                args=(cfg, 6),
                telemetry=TelemetrySpec(label=f"lane/{i}", flight_stride=2),
            )
            for i in range(3)
        ]

    def test_workers_ship_bundles(self):
        for jobs in (1, 3):
            results = SweepExecutor(jobs).map(self._tasks())
            assert all(isinstance(r, TracedResult) for r in results)
            for i, r in enumerate(results):
                assert r.bundle.label == f"lane/{i}"
                assert r.bundle.spans, "worker spans must come home"
                assert r.bundle.flight is not None and r.bundle.flight.nsamples == 3

    def test_parallel_bundles_match_serial(self):
        from repro.telemetry.flight import flight_digest

        serial = SweepExecutor(1).map(self._tasks())
        parallel = SweepExecutor(3).map(self._tasks())
        for a, b in zip(serial, parallel):
            assert a.value == b.value
            assert [s.name for s in a.bundle.spans] == [s.name for s in b.bundle.spans]
            assert a.bundle.metrics == b.bundle.metrics
            assert flight_digest(a.bundle.flight) == flight_digest(b.bundle.flight)

    def test_merged_trace_serial_equals_parallel_modulo_clock(self):
        from repro.telemetry import merged_chrome_trace

        serial = merged_chrome_trace([r.bundle for r in SweepExecutor(1).map(self._tasks())])
        parallel = merged_chrome_trace([r.bundle for r in SweepExecutor(3).map(self._tasks())])
        assert _strip_clock(serial) == _strip_clock(parallel)

    def test_merged_trace_lanes_are_submission_ordered(self, tmp_path):
        from repro.telemetry import write_merged_chrome_trace

        bundles = [r.bundle for r in SweepExecutor(2).map(self._tasks())]
        path = write_merged_chrome_trace(bundles, tmp_path / "m.trace.json")
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        names = {e["pid"]: e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert names == {1: "lane/0", 2: "lane/1", 3: "lane/2"}
        # every lane carries spans, and lane blocks appear in pid order
        span_pids = [e["pid"] for e in events if e["ph"] == "X"]
        assert sorted(set(span_pids)) == [1, 2, 3]
        assert span_pids == sorted(span_pids)
        assert doc["otherData"]["workers"] == ["lane/0", "lane/1", "lane/2"]

    def test_untraced_task_unchanged(self):
        task = SweepTask(name="plain", fn=_square, args=(3,))
        assert task.run() == 9


class TestHarnessSweeps:
    def test_clamr_levels_parallel_parity(self, tmp_path):
        from repro.harness.experiments import run_clamr_levels

        serial = run_clamr_levels(
            nx=12, steps=12, max_level=1,
            ledger=tmp_path / "serial.jsonl", telemetry_dir=tmp_path / "tel_s",
        )
        parallel = run_clamr_levels(
            nx=12, steps=12, max_level=1,
            ledger=tmp_path / "par.jsonl", telemetry_dir=tmp_path / "tel_p",
            jobs=3,
        )
        assert list(serial) == list(parallel)
        for level in serial:
            assert serial[level].mass_drift == parallel[level].mass_drift
            assert np.array_equal(serial[level].slice_precise, parallel[level].slice_precise)
        a = read_records(tmp_path / "serial.jsonl")
        b = read_records(tmp_path / "par.jsonl")
        assert [r["fingerprint"] for r in a] == [r["fingerprint"] for r in b]
        assert [normalized(r) for r in a] == [normalized(r) for r in b]
        # telemetry trees identical, staging dirs cleaned up
        names_s = sorted(p.name for p in (tmp_path / "tel_s").iterdir())
        names_p = sorted(p.name for p in (tmp_path / "tel_p").iterdir())
        assert names_s == names_p
        assert not [n for n in names_p if n.startswith(".stage-")]

    def test_self_precisions_parallel_parity(self, tmp_path):
        from repro.harness.experiments import run_self_precisions

        serial = run_self_precisions(elems=2, order=2, steps=8, ledger=tmp_path / "s.jsonl")
        parallel = run_self_precisions(
            elems=2, order=2, steps=8, ledger=tmp_path / "p.jsonl", jobs=2
        )
        for prec in serial:
            assert serial[prec].max_vertical_velocity == parallel[prec].max_vertical_velocity
        a = read_records(tmp_path / "s.jsonl")
        b = read_records(tmp_path / "p.jsonl")
        assert [normalized(r) for r in a] == [normalized(r) for r in b]

    def test_jobs_zero_raises(self):
        from repro.harness.experiments import run_clamr_levels

        with pytest.raises(ValueError):
            run_clamr_levels(nx=8, steps=2, jobs=0)

    def test_flight_digests_identical_across_jobs(self, tmp_path):
        from repro.harness.experiments import run_clamr_levels

        run_clamr_levels(
            nx=12, steps=12, max_level=1, ledger=tmp_path / "s.jsonl",
            flight_stride=2,
        )
        run_clamr_levels(
            nx=12, steps=12, max_level=1, ledger=tmp_path / "p.jsonl",
            flight_stride=2, jobs=3,
        )
        a = read_records(tmp_path / "s.jsonl")
        b = read_records(tmp_path / "p.jsonl")
        assert [normalized(r) for r in a] == [normalized(r) for r in b]
        for r in a:
            assert r["fidelity"]["flight"]["hash"]
            assert r["config"]["run"]["flight"] == {"stride": 2, "capacity": 512}

    def test_sweep_trace_out_merges_every_lane(self, tmp_path):
        from repro.harness.experiments import run_clamr_levels

        out_s = tmp_path / "serial.trace.json"
        out_p = tmp_path / "par.trace.json"
        run_clamr_levels(nx=12, steps=8, max_level=1, trace_out=out_s)
        run_clamr_levels(nx=12, steps=8, max_level=1, trace_out=out_p, jobs=2)
        serial = json.loads(out_s.read_text())
        parallel = json.loads(out_p.read_text())
        assert _strip_clock(serial) == _strip_clock(parallel)
        pids = {e["pid"] for e in parallel["traceEvents"] if e["ph"] == "X"}
        assert pids == {1, 2, 3}  # one lane per precision level


class TestCampaignParallel:
    def _config(self):
        from repro.resilience import CampaignConfig

        return CampaignConfig(
            workload="clamr", steps=10, nx=8, max_level=1,
            kinds=("nan", "bitflip"), levels=("min",), trials=1,
        )

    def test_outcomes_and_records_match_serial(self, tmp_path):
        from repro.ledger import Ledger
        from repro.resilience import run_campaign

        cfg = self._config()
        serial = run_campaign(cfg, ledger=Ledger(tmp_path / "s.jsonl"))
        parallel = run_campaign(cfg, ledger=Ledger(tmp_path / "p.jsonl"), jobs=2)
        assert len(serial.cells) == len(parallel.cells)
        for a, b in zip(serial.cells, parallel.cells):
            assert dataclasses.replace(a, wall_s=0.0) == dataclasses.replace(b, wall_s=0.0)
        ra = read_records(tmp_path / "s.jsonl")
        rb = read_records(tmp_path / "p.jsonl")
        assert [normalized(r) for r in ra] == [normalized(r) for r in rb]

    def test_progress_called_in_sweep_order(self):
        from repro.resilience import run_campaign

        seen = []
        run_campaign(self._config(), progress=lambda c: seen.append((c.array, c.kind)), jobs=2)
        serial_seen = []
        run_campaign(self._config(), progress=lambda c: serial_seen.append((c.array, c.kind)))
        assert seen == serial_seen

    def test_campaign_trace_out_has_one_lane_per_cell(self, tmp_path):
        from repro.resilience import run_campaign

        out = tmp_path / "campaign.trace.json"
        result = run_campaign(self._config(), jobs=2, trace_out=out)
        doc = json.loads(out.read_text())
        labels = doc["otherData"]["workers"]
        assert len(labels) == len(result.cells)
        assert all(label.startswith("resilience/clamr/") for label in labels)


class TestTradespaceParallel:
    def _space(self):
        from repro.tradespace import TradeSpace

        profile = WorkloadProfile(
            name="t", flops=5 * 10**11, state_bytes=10**11,
            state_itemsize=4, compute_itemsize=8, resident_state_bytes=10**8,
        )
        return TradeSpace({"mixed": profile}, devices=("haswell", "titanx"),
                          resolutions=(0.5, 1.0, 2.0))

    def test_enumerate_parallel_parity(self):
        space = self._space()
        assert space.enumerate() == space.enumerate(jobs=3)

    def test_enumerate_jobs_zero_raises(self):
        with pytest.raises(ValueError):
            self._space().enumerate(jobs=0)


class TestCliJobsHygiene:
    def test_jobs_zero_exits_2_one_line(self, capsys):
        from repro.cli import main

        code = main(["table", "1", "--jobs", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.strip().startswith("repro: error:")
        assert len(captured.err.strip().splitlines()) == 1

    def test_campaign_jobs_negative_exits_2(self, capsys):
        from repro.cli import main

        code = main([
            "resilience", "campaign", "clamr", "--steps", "4", "--nx", "8",
            "--levels", "min", "--kinds", "nan", "--jobs", "-3",
        ])
        assert code == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_jobs_above_sweep_size_clamps_silently(self, capsys):
        from repro.cli import main

        # 3 precision levels, --jobs 99: clamps, runs, exits 0
        code = main(["table", "1", "--jobs", "99"])
        assert code == 0


def _suicide(i):
    if i == 1:
        import os
        import signal

        os.kill(os.getpid(), signal.SIGKILL)  # a genuine worker death
    return i


def _suicide_once_released(i, release):
    # task 1 kills its worker only once the file ``release`` exists
    if i == 1:
        deadline = time.monotonic() + 30.0
        while not Path(release).exists() and time.monotonic() < deadline:
            time.sleep(0.005)
    return _suicide(i)


class TestWorkerFailureModes:
    """SweepWorkerError: typed worker deaths, and continue-past-failures."""

    def _tasks(self, fn, n=4, *extra):
        return [SweepTask(name=f"t{i}", fn=fn, args=(i, *extra)) for i in range(n)]

    def test_pool_crash_raises_typed_error_naming_the_task(self, tmp_path):
        # t1's worker dies only after t0's result has been collected: a
        # death while t0 is still pending breaks t0's future as well, and
        # the error then names t0, the earliest unfinished task
        release = tmp_path / "release"
        stream = SweepExecutor(2).stream(self._tasks(_suicide_once_released, 4, str(release)))
        with pytest.raises(SweepWorkerError) as err:
            task, result = next(stream)
            assert (task.name, result) == ("t0", 0)
            release.touch()
            list(stream)
        assert err.value.task_name == "t1"
        assert err.value.index == 1
        assert err.value.crashed
        assert "t1" in str(err.value)

    def test_ordinary_exception_still_propagates_unchanged(self):
        # the historical contract: a task raising is NOT wrapped on the
        # default raise path (CLI error hygiene catches the raw type)
        for jobs in (1, 3):
            with pytest.raises(RuntimeError, match="task 2 exploded") as err:
                SweepExecutor(jobs).map(self._tasks(_boom))
            assert not isinstance(err.value, SweepWorkerError)

    def test_continue_inline_yields_failures_in_place(self):
        results = SweepExecutor(1).map(self._tasks(_boom), on_error="continue")
        assert results[0] == 0 and results[1] == 1 and results[3] == 3
        failure = results[2]
        assert isinstance(failure, SweepWorkerError)
        assert failure.task_name == "t2" and not failure.crashed
        assert isinstance(failure.cause, RuntimeError)

    def test_continue_survives_a_pool_crash(self):
        # task 1 kills its worker; the pool is rebuilt and the remaining
        # tasks still produce results, in order
        results = SweepExecutor(2).map(self._tasks(_suicide, n=5), on_error="continue")
        assert isinstance(results[1], SweepWorkerError) and results[1].crashed
        clean = [r for r in results if not isinstance(r, SweepWorkerError)]
        # tasks in flight when the pool broke may be re-run (at-least-
        # once past a crash), but every surviving position reports its
        # own value in order
        assert clean == [i for i in range(5) if i != 1]

    def test_on_error_argument_validated(self):
        with pytest.raises(ValueError, match="on_error"):
            SweepExecutor(1).map([], on_error="ignore")
