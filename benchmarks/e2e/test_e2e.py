"""Smoke tests of the end-to-end benchmark, at ``--smoke`` sizes (~40 s on 2 cores).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import layers
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, env=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], env=env,
                          capture_output=True, text=True, timeout=300)


def load_summary(out: Path) -> dict:
    return json.loads((out / "summary.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def smoke_out(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("smoke")
    proc = run_bench("--smoke", "--rounds", "1", "--seed", "0", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return out


def test_every_benchmark_metric_is_emitted_with_its_unit(smoke_out):
    summary = load_summary(smoke_out)
    assert list(summary["workloads"]) == [w["name"] for w in BENCHMARK["workloads"]]
    for name, w in summary["workloads"].items():
        assert w["failed"] == 0 and w["traced_ok"], (name, w["errors"])
        for metric in BENCHMARK["end_to_end"]:
            emitted = w["end_to_end"][metric["name"]]
            assert emitted["unit"] == metric["unit"] and emitted["n"] == 1
        assert w["end_to_end"]["failed_frac"]["median"] == 0.0
        assert set(w["per_layer"]) == {m["name"] for m in BENCHMARK["per_layer"]}
        for metric in BENCHMARK["per_layer"]:
            assert w["per_layer"][metric["name"]]["unit"] == metric["unit"], metric
        assert (smoke_out / f"trace-{name}.jsonl").stat().st_size > 0


def test_summarize_rebuilds_the_summary_from_raw_files_alone(smoke_out):
    before = load_summary(smoke_out)
    (smoke_out / "summary.json").unlink()
    proc = subprocess.run([sys.executable, str(HERE / "summarize.py"), str(smoke_out)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert load_summary(smoke_out) == before
    assert "solve_s" in proc.stdout and "per-layer" in proc.stdout


def test_single_workload_mode_prints_the_contract_result():
    for trace, wanted in ((0, ("solve_s", "setup_s", "peak_rss_mb")), (1, ("coverage",))):
        proc = run_bench("--workload", "clamr-lake-128", "--seed", "2", "--seconds", "0",
                         "--trace", str(trace), "--smoke")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == 2 + trace
        for name in wanted:
            assert result["metrics"][name]["value"] > 0
        if trace:
            assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}


def test_a_corrupted_digest_fails_that_workload_only(tmp_path):
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    expected["smoke"]["clamr-dambreak-64l2"]["state_sha256"] = "0" * 64
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected), encoding="utf-8")
    out = tmp_path / "out"
    proc = run_bench("--smoke", "--rounds", "1", "--trace", "0", "--seed", "0",
                     "--out", str(out), "--expected", str(path))
    assert proc.returncode == 1
    for name, w in load_summary(out)["workloads"].items():
        frac = w["end_to_end"]["failed_frac"]["median"]
        assert frac == (1.0 if name == "clamr-dambreak-64l2" else 0.0), name


def test_muscl_fails_instead_of_timing_numpy_without_a_compiler(tmp_path):
    # cext falls back from $CC to cc/gcc/clang on PATH, so hide those too
    empty_path = tmp_path / "bin"
    empty_path.mkdir()
    env = dict(os.environ, CC="/nonexistent", PATH=str(empty_path),
               REPRO_CEXT_CACHE=str(tmp_path / "cext"))
    out = tmp_path / "out"
    proc = run_bench("--smoke", "--rounds", "1", "--trace", "0", "--out", str(out),
                     "--workload", "clamr-muscl-128l2", env=env)
    assert proc.returncode == 1
    w = load_summary(out)["workloads"]["clamr-muscl-128l2"]
    assert w["end_to_end"]["failed_frac"]["median"] == 1.0
    assert w["end_to_end"]["solve_s"]["n"] == 0
    assert any("resolved to 'numpy'" in e for e in w["errors"]), w["errors"]


def test_self_time_arithmetic_on_a_nested_call_tree():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b [5, 7]; a second a [11, 12]
    spans = [
        [0, "a", 0.0, 10.0, -1],
        [1, "b", 1.0, 4.0, 0],
        [2, "c", 2.0, 3.0, 1],
        [3, "b", 5.0, 7.0, 0],
        [4, "a", 11.0, 12.0, -1],
    ]
    assert layers.self_times(spans) == {"a": [6.0, 2], "b": [4.0, 2], "c": [1.0, 1]}

    tracer = layers.Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: [inner(), inner()])
    outer()
    assert [(s[1], s[4]) for s in tracer.spans] == [("outer", -1), ("inner", 0), ("inner", 0)]
    summary = tracer.summary()["layers"]
    assert summary["inner"][1] == 2 and summary["outer"][1] == 1

    metrics = layers.layer_metrics(
        {"layers": {"clamr.amr.regrid": [3.0, 2], layers.IDLE: [1.0, 4]}, "counts": {},
         "wall_s": 5.0, "solve_s": 4.4},
        "clamr", untraced_solve_s=4.0,
    )
    assert metrics["clamr.other.self_s"] == pytest.approx(1.0)
    assert metrics["self_.other.self_s"] == 0.0
    assert metrics["coverage"] == pytest.approx(0.8)
    assert metrics["trace_overhead"] == pytest.approx(0.1)
    assert metrics["service.worker.idle_s"] == 1.0

