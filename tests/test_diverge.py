"""Tests for the divergence microscope (repro.diverge).

The contract under test: identical seed/config produce byte-identical
hash streams (within and across processes), an injected fault is
localized to its exact step/site/field, a stride > 1 ladder brackets the
divergence to the correct window, and the ULP machinery is a faithful
monotone distance.
"""

import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.diverge import (
    STATE_SITE,
    DivergenceReport,
    StateHashLadder,
    compare_ladders,
    compare_paths,
    fault_footprint,
    hash_array,
    onset_curve,
    read_hashes,
    record_run,
    replay,
    ulp_distance,
    ulp_stats,
    write_hashes,
)
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.service import JobSpec

SRC = Path(__file__).resolve().parent.parent / "src"

QUICK = JobSpec("clamr", steps=10, nx=8, max_level=1, policy="mixed")
LONG = replace(QUICK, steps=16)


def plan_of(*specs, seed=0):
    return FaultPlan(specs=tuple(FaultSpec.parse(s) for s in specs), seed=seed)


class TestHashArray:
    def test_deterministic(self):
        a = np.linspace(0.0, 1.0, 100)
        assert hash_array(a).hash == hash_array(a.copy()).hash

    def test_single_bit_changes_hash(self):
        a = np.linspace(0.0, 1.0, 100)
        b = a.copy()
        b[50] = np.nextafter(b[50], 2.0)
        assert hash_array(a).hash != hash_array(b).hash

    def test_dtype_in_hash(self):
        a = np.zeros(8, dtype=np.float32)
        assert hash_array(a).hash != hash_array(a.astype(np.float64)).hash

    def test_shape_in_hash(self):
        a = np.zeros(12)
        assert hash_array(a).hash != hash_array(a.reshape(3, 4)).hash

    def test_chunk_localization(self):
        a = np.zeros(10_000)
        b = a.copy()
        b[9_000] = 1.0
        fa, fb = hash_array(a, chunk=4096), hash_array(b, chunk=4096)
        differing = [i for i, (x, y) in enumerate(zip(fa.chunks, fb.chunks)) if x != y]
        assert differing == [9_000 // 4096]

    def test_scalar_hashable(self):
        assert hash_array(np.float64(0.5)).shape == (1,)

    def test_byte_order_fixed(self):
        # the hash is defined over little-endian bytes regardless of the
        # in-memory byte order
        a = np.linspace(0.0, 1.0, 16)
        swapped = a.astype(a.dtype.newbyteorder(">"))
        assert hash_array(a).hash == hash_array(swapped).hash


class TestLadder:
    def test_stride_controls_hashed_steps(self):
        ladder = StateHashLadder(stride=4)
        hashed = [s for s in range(1, 13) if ladder.should_hash(s)]
        assert hashed == [4, 8, 12]

    def test_root_changes_with_any_chunk(self):
        a = StateHashLadder()
        b = StateHashLadder()
        x = np.linspace(0, 1, 32)
        y = x.copy()
        y[-1] = np.nextafter(y[-1], 2.0)
        a.record_site(1, "k", {"H": x})
        b.record_site(1, "k", {"H": y})
        assert a.root() != b.root()

    def test_steps_must_not_decrease(self):
        ladder = StateHashLadder()
        ladder.record_site(2, "k", {"H": np.zeros(4)})
        with pytest.raises(ValueError, match="non-decreasing"):
            ladder.record_site(1, "k", {"H": np.zeros(4)})

    def test_roundtrip_through_file(self, tmp_path):
        ladder = StateHashLadder(stride=2, label="t")
        ladder.record_site(2, "k", {"H": np.arange(8.0), "U": np.ones(8)})
        ladder.record_site(4, "k", {"H": np.arange(8.0) * 2, "U": np.ones(8)})
        path = tmp_path / "hashes.jsonl"
        write_hashes(ladder, path)
        loaded = read_hashes(path)
        assert loaded.root() == ladder.root()
        assert loaded.stride == 2 and loaded.nsteps == 2

    def test_write_is_byte_deterministic(self, tmp_path):
        ladder = StateHashLadder()
        ladder.record_site(1, "k", {"H": np.arange(16.0)})
        write_hashes(ladder, tmp_path / "a.jsonl")
        write_hashes(ladder, tmp_path / "b.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_newer_schema_refused(self, tmp_path):
        ladder = StateHashLadder()
        ladder.record_site(1, "k", {"H": np.zeros(4)})
        path = tmp_path / "hashes.jsonl"
        write_hashes(ladder, path)
        lines = path.read_text().splitlines()
        meta = json.loads(lines[0])
        meta["version"] = 999
        path.write_text("\n".join([json.dumps(meta)] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match="upgrade repro"):
            read_hashes(path)

    def test_tampered_stream_detected(self, tmp_path):
        ladder = StateHashLadder()
        ladder.record_site(1, "k", {"H": np.zeros(4)})
        ladder.record_site(2, "k", {"H": np.ones(4)})
        path = tmp_path / "hashes.jsonl"
        write_hashes(ladder, path)
        lines = path.read_text().splitlines()
        doc = json.loads(lines[1])
        doc["sites"][0]["fields"][0]["chunks"][0] = "0" * 16
        path.write_text("\n".join([lines[0], json.dumps(doc)] + lines[2:]) + "\n")
        with pytest.raises(ValueError, match="hash"):
            read_hashes(path)


class TestUlp:
    def test_zero_for_identical(self):
        a = np.linspace(-1, 1, 64)
        assert int(ulp_distance(a, a.copy()).max()) == 0

    def test_one_for_adjacent(self):
        a = np.array([1.0, -2.0, 1e-300])
        b = np.array([np.nextafter(x, np.inf) for x in a])
        np.testing.assert_array_equal(ulp_distance(a, b), [1, 1, 1])

    def test_crosses_zero(self):
        # +0.0 and -0.0 are distinct representations, so the walk
        # -tiny -> -0.0 -> +0.0 -> +tiny is three key increments
        tiny = np.float64(5e-324)  # smallest subnormal
        assert int(ulp_distance(np.array([tiny]), np.array([-tiny]))[0]) == 3

    def test_mixed_precision_measured_in_coarser(self):
        a = np.array([1.0], dtype=np.float32)
        b = a.astype(np.float64)
        b[0] = np.nextafter(np.float32(1.0), np.float32(2.0))
        assert int(ulp_distance(a, b)[0]) == 1

    def test_both_nan_is_zero_distance(self):
        a = np.array([np.nan, 1.0])
        b = np.array([np.nan, 1.0])
        assert int(ulp_distance(a, b).max()) == 0

    def test_stats_locate_worst(self):
        a = np.zeros(10)
        b = np.zeros(10)
        b[3] = np.nextafter(0.0, 1.0)
        b[7] = 1e-300
        st = ulp_stats(a, b)
        assert st["count_diff"] == 2
        assert st["first_diff_index"] == 3
        assert st["worst_index"] == 7

    def test_shape_mismatch_not_comparable(self):
        st = ulp_stats(np.zeros(4), np.zeros(5))
        assert st["comparable"] is False


class TestRecordCompare:
    def test_identical_runs_bit_identical(self, tmp_path):
        a = record_run(tmp_path / "a", QUICK)
        b = record_run(tmp_path / "b", QUICK)
        assert a.root == b.root
        assert (tmp_path / "a/hashes.jsonl").read_bytes() == (
            tmp_path / "b/hashes.jsonl"
        ).read_bytes()
        report = compare_paths(tmp_path / "a", tmp_path / "b")
        assert not report.diverged

    def test_cross_process_byte_identity(self, tmp_path):
        """Same seed/config in two fresh interpreters → same bytes on disk."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        for name in ("p1", "p2"):
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "diverge", "record",
                 str(tmp_path / name), "--workload", "clamr", "--steps", "8",
                 "--nx", "8", "--policy", "mixed"],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr[-2000:]
        assert (tmp_path / "p1/hashes.jsonl").read_bytes() == (
            tmp_path / "p2/hashes.jsonl"
        ).read_bytes()

    def test_bitflip_localized_to_exact_site(self, tmp_path):
        clean = record_run(tmp_path / "clean", QUICK)
        plan = plan_of("bitflip:H:6:87:21", seed=5)
        faulted = record_run(tmp_path / "faulted", QUICK, plan=plan)
        assert [e.step for e in faulted.injected] == [6]
        report = compare_paths(tmp_path / "clean", tmp_path / "faulted")
        assert report.diverged
        d = report.divergence
        assert (d.step, d.site, d.field) == (6, STATE_SITE, "H")
        assert d.chunk == 87 // 4096  # == 0: the flipped element's chunk
        assert "step 6" in report.summary() and "field H" in report.summary()

    def test_stride_brackets_divergence_window(self, tmp_path):
        record_run(tmp_path / "clean", LONG, hash_stride=4)
        record_run(tmp_path / "faulted", LONG, hash_stride=4, plan=plan_of("bitflip:H:6"))
        report = compare_paths(tmp_path / "clean", tmp_path / "faulted")
        assert report.diverged
        # fault at 6 → last clean hashed step 4, first divergent hashed step 8
        assert report.divergence.step == 8
        assert report.divergence.window == (4, 8)

    def test_fault_after_last_hash_of_window(self, tmp_path):
        # fault exactly on a hashed step diverges at that step
        record_run(tmp_path / "clean", LONG, hash_stride=4)
        record_run(tmp_path / "faulted", LONG, hash_stride=4, plan=plan_of("bitflip:H:8"))
        report = compare_paths(tmp_path / "clean", tmp_path / "faulted")
        assert report.divergence.step == 8
        assert report.divergence.window == (4, 8)

    def test_knob_mismatch_reported(self, tmp_path):
        record_run(tmp_path / "a", QUICK)
        record_run(tmp_path / "b", QUICK, hash_stride=2)
        report = compare_paths(tmp_path / "a", tmp_path / "b")
        assert any("stride" in line for line in report.meta_mismatch)

    def test_different_policies_diverge_with_meta_note(self, tmp_path):
        record_run(tmp_path / "a", QUICK)
        record_run(tmp_path / "b", replace(QUICK, policy="full"))
        report = compare_paths(tmp_path / "a", tmp_path / "b")
        assert report.diverged
        assert any("policy" in line for line in report.meta_mismatch)

    def test_report_json_roundtrips(self, tmp_path):
        record_run(tmp_path / "a", QUICK)
        record_run(tmp_path / "b", QUICK, plan=plan_of("bitflip:H:3"))
        report = compare_paths(tmp_path / "a", tmp_path / "b")
        doc = json.loads(report.to_json())
        assert doc["diverged"] is True
        assert doc["divergence"]["step"] == 3

    def test_self_workload_roundtrip(self, tmp_path):
        spec = JobSpec("self", steps=6, elems=2, order=2, precision="double")
        a = record_run(tmp_path / "a", spec)
        b = record_run(tmp_path / "b", spec)
        assert a.root == b.root
        record_run(tmp_path / "c", spec, plan=plan_of("bitflip:rho:4"))
        report = compare_paths(tmp_path / "a", tmp_path / "c")
        assert report.diverged
        assert (report.divergence.step, report.divergence.field) == (4, "rho")


class TestInSimSites:
    """The simulation-loop ladder hooks hash per-kernel-site state."""

    def test_clamr_sites_present(self):
        run = record_run(None, QUICK)
        entry = run.ladder.step_entry(1)
        names = [s.name for s in entry.sites]
        assert "clamr/compute_timestep" in names
        assert any(n.startswith("clamr/step_") or "kernel" in n or "/" in n
                   for n in names)
        assert STATE_SITE in names

    def test_self_sites_present(self):
        run = record_run(None, JobSpec("self", steps=2, elems=2, order=2))
        names = [s.name for s in run.ladder.step_entry(1).sites]
        assert "self/stable_dt" in names
        assert "self/rk3_step" in names
        assert STATE_SITE in names

    def test_in_sim_sites_bisect_below_state(self, tmp_path):
        # two different scatter backends must be bit-identical (CSR plan
        # kernels were built for exactly this); the ladder proves it at
        # kernel-site granularity
        a = record_run(None, QUICK, scatter="plan")
        b = record_run(None, QUICK, scatter="add_at")
        report = compare_ladders(a.ladder, b.ladder)
        assert not report.diverged, report.summary()


class TestReplay:
    def test_replay_refines_and_quantifies(self, tmp_path):
        kwargs = dict(hash_stride=4, checkpoint_interval=4)
        record_run(tmp_path / "clean", LONG, **kwargs)
        record_run(tmp_path / "faulted", LONG, plan=plan_of("bitflip:H:6"), **kwargs)
        report = replay(tmp_path / "clean", tmp_path / "faulted")
        assert report.diverged
        # coarse bracket was (4, 8]; refined pins the exact step
        assert report.refined is not None
        assert report.refined.divergence.step == 6
        assert report.refined.divergence.field == "H"
        assert report.ckpt_a == 4 and report.ckpt_b == 4
        by_step = {p["step"]: p["max_ulp"] for p in report.ulp_curve}
        assert by_step[5] == 0  # clean before the fault
        assert by_step[6] > 0  # corrupted at the fault step
        assert report.offending is not None
        assert report.offending["field"] == "H"
        assert report.offending["stats"]["count_diff"] >= 1

    def test_replay_without_checkpoints_starts_from_zero(self, tmp_path):
        spec = replace(QUICK, steps=8)
        record_run(tmp_path / "clean", spec, hash_stride=4)
        record_run(tmp_path / "faulted", spec, hash_stride=4, plan=plan_of("bitflip:H:2"))
        report = replay(tmp_path / "clean", tmp_path / "faulted")
        assert report.ckpt_a is None and report.ckpt_b is None
        assert report.refined.divergence.step == 2

    def test_replay_rebuilds_a_scenario_run(self, tmp_path):
        spec = replace(QUICK, steps=8, scenario="clamr/lake-at-rest")
        record_run(tmp_path / "clean", spec, checkpoint_interval=4)
        record_run(tmp_path / "faulted", spec, checkpoint_interval=4,
                   plan=plan_of("bitflip:H:6"))
        report = replay(tmp_path / "clean", tmp_path / "faulted")
        assert report.ckpt_a == 4 and report.refined.divergence.step == 6

    def test_replay_refuses_a_config_its_fields_do_not_rebuild(self, tmp_path):
        record_run(tmp_path / "a", QUICK)
        record_run(tmp_path / "b", QUICK, plan=plan_of("bitflip:H:3"))
        path = tmp_path / "b" / "run.json"
        doc = json.loads(path.read_text())
        doc["config"]["courant"] /= 2
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"run.json: the recorded run does not "
                                             r"rebuild its config \(differs in courant\)$"):
            replay(tmp_path / "a", tmp_path / "b")

    def test_clean_pair_skips_replay(self, tmp_path):
        record_run(tmp_path / "a", QUICK)
        record_run(tmp_path / "b", QUICK)
        report = replay(tmp_path / "a", tmp_path / "b")
        assert not report.diverged and report.ulp_curve == []


ONSET = JobSpec("clamr", steps=6, nx=8, max_level=1)


class TestOnset:
    def test_min_vs_full_monotone_cummax(self):
        report = onset_curve(ONSET)
        assert len(report.curve) == 6
        cummax = report.cummax
        assert all(b >= a for a, b in zip(cummax, cummax[1:]))
        assert cummax[-1] > 0  # min vs full must diverge in ULP terms

    def test_onset_steps_are_first_crossings(self):
        report = onset_curve(ONSET)
        for threshold, step in report.onset_steps.items():
            if step is None:
                continue
            assert report.cummax[step - 1] >= float(threshold)
            if step > 1:
                assert report.cummax[step - 2] < float(threshold)

    def test_identical_pair_never_onsets(self):
        report = onset_curve(replace(ONSET, steps=3), pair=("full", "full"))
        assert report.cummax[-1] == 0
        assert all(s is None for s in report.onset_steps.values())


class TestFootprint:
    def test_footprint_matches_injection(self):
        plan = plan_of("bitflip:H:6", seed=2)
        fp = fault_footprint(plan, QUICK)
        assert fp["diverged"]
        assert fp["latency_steps"] == 0
        assert fp["site_match"] is True
        assert fp["first_divergence"]["field"] == "H"

    def test_empty_plan_has_no_footprint(self):
        fp = fault_footprint(FaultPlan(specs=(), seed=0), QUICK)
        assert not fp["diverged"] and fp["injected"] == []


class TestLedgerIntegration:
    def test_ladder_joins_identity_and_fidelity(self):
        from repro.clamr import ClamrSimulation, DamBreakConfig
        from repro.ledger.record import record_from_clamr
        from repro.telemetry import Telemetry

        ladder = StateHashLadder(stride=2)
        tel = Telemetry(label="t", ladder=ladder)
        cfg = DamBreakConfig(nx=8, ny=8, max_level=1)
        res = ClamrSimulation(cfg, policy="mixed", telemetry=tel).run(6)
        record = record_from_clamr(res, tel, cfg, label="t")
        assert record.config["run"]["hash_ladder"] == {"stride": 2, "chunk": 4096}
        digest = record.fidelity["state_hash"]
        assert digest["steps"] == 3 and digest["last_step"] == 6
        assert digest["root"] == ladder.root()

    def test_no_ladder_keeps_record_shape(self):
        # pre-ladder baseline fingerprints must stay valid
        from repro.clamr import ClamrSimulation, DamBreakConfig
        from repro.ledger.record import record_from_clamr
        from repro.telemetry import Telemetry

        tel = Telemetry(label="t")
        cfg = DamBreakConfig(nx=8, ny=8, max_level=1)
        res = ClamrSimulation(cfg, policy="mixed", telemetry=tel).run(4)
        record = record_from_clamr(res, tel, cfg, label="t")
        assert "hash_ladder" not in record.config["run"]
        assert "state_hash" not in record.fidelity


class TestExecutorIntegration:
    def test_spec_builds_ladder_and_bundle_ships_it(self):
        from repro.telemetry import TelemetrySpec
        from repro.telemetry import TelemetryBundle

        tel = TelemetrySpec(label="w", hash_stride=2, hash_chunk=128).build()
        assert tel.ladder is not None and tel.ladder.stride == 2
        tel.ladder.record_site(2, "k", {"H": np.zeros(4)})
        bundle = TelemetryBundle.of(tel)
        assert bundle.ladder is tel.ladder

    def test_jobs2_lanes_bit_identical_to_serial(self, tmp_path):
        from repro.harness.experiments import run_clamr_levels

        run_clamr_levels(nx=8, steps=6, max_level=1, jobs=1,
                         hash_dir=tmp_path / "serial", label="lane")
        run_clamr_levels(nx=8, steps=6, max_level=1, jobs=2,
                         hash_dir=tmp_path / "par", label="lane")
        serial = sorted((tmp_path / "serial").glob("*.hashes.jsonl"))
        par = sorted((tmp_path / "par").glob("*.hashes.jsonl"))
        assert [p.name for p in serial] == [p.name for p in par] and serial
        for s, p in zip(serial, par):
            assert s.read_bytes() == p.read_bytes(), s.name
            report = compare_paths(s, p)
            assert not report.diverged
