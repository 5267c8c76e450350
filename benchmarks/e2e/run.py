"""End-to-end benchmark: five named workloads, bit-checked outputs, outside-in layer trace.

Full invocation (3-4 minutes on a 2-core x86-64 container)::

    PYTHONPATH=src python benchmarks/e2e/run.py --seed 0 --out DIR

builds the compiled kernel once, runs one untimed warm-up round and then
``--rounds`` interleaved rounds -- every workload once per round, the
order rotated from round to round -- each repetition in a fresh
single-threaded process with tracing off; then a traced pass of one more
repetition per workload.  It writes ``DIR/raw/round-<r>-<workload>.json``
and ``DIR/raw/traced-<workload>.json`` (the raw samples),
``DIR/trace-<workload>.jsonl`` (the spans) and ``DIR/summary.json``
(``summarize.py DIR`` rebuilds it from the raw files alone), prints every
metric with its unit, and exits 1 if any output check failed.

Single-workload invocation, the form ``BENCHMARK.json`` names::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one smoke-size warm-up, then repetitions of NAME (fresh processes,
tracing off) until S seconds have passed and at least ``MIN_REPS`` ran;
with ``--trace 1`` one traced repetition follows.  The last line of stdout
is one JSON object with keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end medians with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Exit status 1 if any output check failed.

``--record-expected`` re-records ``expected.json`` (seed 0, both sizes).
The program is found at ``src/`` two levels above this file; without it
the benchmark exits 2 before running anything.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import summarize
from layers import PER_LAYER_UNITS, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "e2e"

#: a repetition that takes longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 150.0
#: single-workload mode: at least this many timed repetitions; no new
#: repetition that would end after DEADLINE_S, and every process stopped
#: by TOTAL_S after the start
MIN_REPS = 2
DEADLINE_S = 150.0
TOTAL_S = 170.0


def child_env() -> dict:
    """The children's environment: the program on the path, one thread each."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.setdefault("REPRO_CEXT_CACHE", str(ROOT / ".bench_build" / "cext"))
    env.pop("REPRO_KERNEL_BACKEND", None)  # each workload names its backend itself
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def prebuild_cext(env: dict) -> str:
    """Compile the cext kernel library before any timed repetition."""
    os.environ["REPRO_CEXT_CACHE"] = env["REPRO_CEXT_CACHE"]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.clamr.backends import cext

    return cext.availability()[1]


def run_child(name: str, seed: int, size: str, env: dict, work_root: Path,
              expected: Path | None, spans_out: Path | None = None,
              timeout: float = CHILD_TIMEOUT_S) -> dict:
    """One repetition in a fresh process; a crash or timeout becomes a failure."""
    work_root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", name, "--seed", str(seed),
           "--size", size, "--work", str(work)]
    if expected is not None:
        cmd += ["--expected", str(expected)]
    if spans_out is not None:
        cmd += ["--trace-file", str(work / "spans.jsonl")]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
        problem = None
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
        problem = f"timed out after {timeout:.0f} s"
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if problem is None else None
    except (IndexError, ValueError):
        result = None
    if result is None:
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        result = {"workload": name, "seed": seed, "size": size, "ok": False,
                  "attempted": WORKLOADS[name].attempts, "failed": WORKLOADS[name].attempts,
                  "errors": [problem or f"exit {proc.returncode}: {tail[0]}"]}
    if spans_out is not None and (work / "spans.jsonl").exists():
        shutil.move(str(work / "spans.jsonl"), spans_out)
    shutil.rmtree(work, ignore_errors=True)
    return result


def write_raw(out_dir: Path, stem: str, kind: str, rnd: int, result: dict) -> None:
    raw = {"kind": kind, "round": rnd, "workload": result["workload"],
           "seed": result["seed"], "size": result["size"], "result": result}
    (out_dir / "raw" / f"{stem}.json").write_text(json.dumps(raw, indent=1) + "\n",
                                                   encoding="utf-8")


def full_run(args, names: list[str], env: dict) -> int:
    out_dir = Path(args.out)
    if (out_dir / "raw").exists():
        shutil.rmtree(out_dir / "raw")
    (out_dir / "raw").mkdir(parents=True)
    work = out_dir / "work"
    size = "smoke" if args.smoke else "full"
    for rnd in range(args.rounds + 1):  # round 0 is the untimed warm-up
        order = names[rnd % len(names):] + names[:rnd % len(names)]
        for name in order:
            result = run_child(name, args.seed, size, env, work, args.expected)
            write_raw(out_dir, f"round-{rnd}-{name}", "warmup" if rnd == 0 else "timed",
                      rnd, result)
            print(f"round {rnd} {name}: {'ok' if result['ok'] else 'FAILED'}",
                  file=sys.stderr)
    if args.trace:
        for name in names:
            result = run_child(name, args.seed, size, env, work, args.expected,
                               spans_out=out_dir / f"trace-{name}.jsonl")
            write_raw(out_dir, f"traced-{name}", "traced", args.rounds + 1, result)
    shutil.rmtree(work, ignore_errors=True)
    summary = summarize.summarize(out_dir)
    print(summarize.render(summary))
    return 1 if summarize.failed(summary) else 0


def single_run(args, name: str, env: dict) -> int:
    t_begin = time.perf_counter()
    size = "smoke" if args.smoke else "full"
    work = BUILD / "work"
    spans_out = BUILD / f"trace-{name}.jsonl" if args.trace else None

    def left() -> float:
        return max(1.0, TOTAL_S - (time.perf_counter() - t_begin))

    run_child(name, args.seed, "smoke", env, work, args.expected,  # untimed warm-up
              timeout=left())
    reps: list[dict] = []
    t_reps = time.perf_counter()
    while True:
        t_rep = time.perf_counter()
        reps.append(run_child(name, args.seed, size, env, work, args.expected,
                              timeout=left()))
        now = time.perf_counter()
        if len(reps) >= MIN_REPS and now - t_reps >= args.seconds:
            break
        if now + (now - t_rep) * (1 + args.trace) - t_begin > DEADLINE_S:
            break
    runs = list(reps)
    ok = [r for r in reps if r["ok"]]
    metrics = {}
    if args.trace:
        traced = run_child(name, args.seed, size, env, work, args.expected, spans_out,
                           timeout=left())
        runs.append(traced)
        if ok and "traced" in traced:
            solve = statistics.median(r["solve_s"] for r in ok)
            values = layer_metrics(traced["traced"], WORKLOADS[name].family, solve)
            metrics = {m: {"value": v, "unit": PER_LAYER_UNITS[m]}
                       for m, v in values.items()}
    elif ok:
        metrics = {m: {"value": statistics.median(r[m] for r in ok),
                       "unit": summarize.END_TO_END[m]}
                   for m in ("solve_s", "setup_s", "peak_rss_mb")}
    for r in runs:
        for error in r["errors"]:
            print(f"ERROR {name}: {error}", file=sys.stderr)
    correct = all(r["ok"] for r in runs) and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def record_expected(args, names: list[str], env: dict) -> int:
    """Re-record the seed-0 digests of the selected workloads at both sizes."""
    doc = json.loads(args.expected.read_text(encoding="utf-8")) if args.expected.exists() else {}
    for size in ("full", "smoke"):
        for name in names:
            result = run_child(name, 0, size, env, BUILD / "work", None)
            if not result["ok"]:
                print(f"{name} ({size}) failed: {result['errors']}", file=sys.stderr)
                return 1
            doc.setdefault(size, {})[name] = result["digests"]
    args.expected.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    print(f"wrote {args.expected}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="run only this workload (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0, help="input seed (0 = committed)")
    parser.add_argument("--out", help="output directory of a full invocation")
    parser.add_argument("--seconds", type=float, default=None,
                        help="single-workload mode: measure for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: add a traced repetition for the per-layer metrics")
    parser.add_argument("--rounds", type=int, default=7, help="timed rounds (full mode)")
    parser.add_argument("--smoke", action="store_true", help="small sizes, for tests")
    parser.add_argument("--expected", type=Path, default=HERE / "expected.json",
                        help="seed-0 digests to check against")
    parser.add_argument("--record-expected", action="store_true",
                        help="re-record --expected from seed-0 runs and exit")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program is not at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)
    env = child_env()
    if any(WORKLOADS[n].backend == "cext" for n in names):
        print(f"cext: {prebuild_cext(env)}", file=sys.stderr)
    if args.record_expected:
        return record_expected(args, names, env)
    if args.seconds is not None:
        if len(names) != 1:
            parser.error("--seconds measures exactly one --workload")
        return single_run(args, names[0], env)
    if args.out is None:
        parser.error("--out DIR is required without --seconds")
    return full_run(args, names, env)


if __name__ == "__main__":
    sys.exit(main())
