"""Microbenchmark + regression gate for the compiled kernel backend.

Times the whole hot kernels — :func:`finite_diff_vectorized` (first-order
Rusanov) and :func:`finite_diff_muscl` (second-order MUSCL-Hancock) —
under the compiled ``cext`` backend against the NumPy oracle on a
developed 128x128 level-2 dam break, per precision level, after first *proving*
the backend produces bit-identical state over several steps (the
property that makes the backend admissible at all; see
``tests/test_backends.py`` for the exhaustive version).

What to expect, and what is gated:

* **muscl** — the production second-order scheme fuses slopes, limiter,
  predictor, and per-face flux into one pass over the mesh; the NumPy
  oracle takes one stacked slope pass and a fused face pass.  This is the
  headline number, gated per level at >= 1.75x by default.  The floor
  is re-based on measured spread: over 24 runs of 60 pairs on a shared
  2-core x86-64 host the ``min`` level (the lowest) read 1.80-2.09x, and
  the same runs with the compiled step made 25% slower read 1.43-1.66x.
  The ratio moves when the oracle gets faster, so re-base the floor then.
* **fd** — the first-order kernel is mostly gather + one flux; NumPy is
  already fused and vectorized there, so compiled wins are modest
  (~1.5-3x).  Gated at a conservative floor.

Run directly (CI's perf-smoke job does)::

    python benchmarks/bench_kernel_backends.py --merge BENCH_kernels.json

Exit status: 1 when bit-identity fails, a requested backend is missing,
or a speedup floor is missed; 0 otherwise.  ``--merge`` rewrites only
the ``kernel_backends/`` entries of an existing repro-bench/v1 document,
leaving other benchmarks' entries intact.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

import numpy as np

from repro.clamr import ClamrSimulation, DamBreakConfig
from repro.clamr import backends
from repro.clamr.kernels import FaceLists, compute_timestep, finite_diff_vectorized
from repro.clamr.muscl import finite_diff_muscl
from repro.harness.report import Table

LEVELS = ("min", "mixed", "full")

#: the measurement workload: same developed dam break the scatter
#: benchmark uses, so the two families of numbers are comparable
BENCH_NX = 128
BENCH_MAX_LEVEL = 2
BENCH_WARMUP_STEPS = 12
#: bit-identity is checked over this many further steps per kernel
IDENTITY_STEPS = 8

KERNELS = ("fd", "muscl")


def _prepare(level: str):
    """A developed simulation snapshot: mesh, state, faces, dt."""
    cfg = DamBreakConfig(nx=BENCH_NX, ny=BENCH_NX, max_level=BENCH_MAX_LEVEL)
    sim = ClamrSimulation(cfg, policy=level)
    sim.run(BENCH_WARMUP_STEPS)
    faces = FaceLists.from_mesh(sim.mesh)
    dt = compute_timestep(sim.mesh, sim.state, cfg.courant)
    return sim.mesh, sim.state, faces, dt


def _step_fn(kernel: str):
    if kernel == "fd":
        return lambda mesh, s, dt, faces: finite_diff_vectorized(mesh, s, dt, faces=faces)
    return lambda mesh, s, dt, faces: finite_diff_muscl(mesh, s, dt, faces=faces)


def _check_identity(mesh, state, faces, backend: str) -> bool:
    """Backend vs oracle over IDENTITY_STEPS of fd + muscl: same bits?"""
    runs = {}
    for name in (backend, "numpy"):
        s = state.copy()
        dts = []
        with backends.kernel_backend(name):
            for _ in range(IDENTITY_STEPS):
                step_dt = compute_timestep(mesh, s, 0.25)
                dts.append(step_dt)
                finite_diff_vectorized(mesh, s, step_dt, faces=faces)
                finite_diff_muscl(mesh, s, step_dt, faces=faces)
        runs[name] = (s, dts)
    (a, adts), (b, bdts) = runs[backend], runs["numpy"]
    return (
        adts == bdts
        and np.array_equal(a.H, b.H, equal_nan=True)
        and np.array_equal(a.U, b.U, equal_nan=True)
        and np.array_equal(a.V, b.V, equal_nan=True)
    )


def _time_pair(mesh, state, faces, dt, kernel: str, backend: str, reps: int):
    """``(oracle_s, compiled_s, speedup)`` from ``reps`` interleaved pairs.

    Each rep times one oracle call and one compiled call back to back
    (alternating which goes first), and the speedup is the median of the
    per-pair ratios: a load spike on a shared host slows both calls of a
    pair alike, so it cancels in the ratio instead of landing on one side.
    Each backend steps its own copy of the state; the backends are
    bit-identical, so both time the *same* sequence of states.
    """
    step = _step_fn(kernel)
    states = {"numpy": state.copy(), backend: state.copy()}
    for name, s in states.items():
        with backends.kernel_backend(name):
            backends.warmup(state.policy.compute_dtype)  # C build outside timing
            step(mesh, s, dt, faces)  # warm caches and dispatch
    times: dict[str, list[float]] = {"numpy": [], backend: []}
    for rep in range(reps):
        order = ("numpy", backend) if rep % 2 == 0 else (backend, "numpy")
        for name in order:
            s = states[name]
            with backends.kernel_backend(name):
                t0 = time.perf_counter()
                step(mesh, s, dt, faces)
                times[name].append(time.perf_counter() - t0)
    oracle, compiled = np.array(times["numpy"]), np.array(times[backend])
    return (float(np.median(oracle)), float(np.median(compiled)),
            float(np.median(oracle / compiled)))


def _bench_entries(rows, reps: int) -> list[dict]:
    """repro-bench/v1 entries from the per-(level, backend) rows."""
    shape = {"nx": BENCH_NX, "max_level": BENCH_MAX_LEVEL, "warmup": BENCH_WARMUP_STEPS}
    entries = []
    for row in rows:
        ident = dict(shape, level=row["level"], backend=row["backend"])
        key = hashlib.sha256(json.dumps(ident, sort_keys=True).encode()).hexdigest()[:16]
        prefix = (f"kernel_backends/nx{BENCH_NX}L{BENCH_MAX_LEVEL}/"
                  f"{row['level']}/{row['backend']}")
        for kernel in KERNELS:
            for metric, value, unit in (
                (f"{kernel}/oracle_ms", 1e3 * row[f"{kernel}_oracle_s"], "ms"),
                (f"{kernel}/compiled_ms", 1e3 * row[f"{kernel}_compiled_s"], "ms"),
                (f"{kernel}/speedup", row[f"{kernel}_speedup"], "1"),
            ):
                entries.append(
                    {
                        "name": f"{prefix}/{metric}",
                        "value": float(value),
                        "unit": unit,
                        "samples": reps,
                        "workload_key": key,
                        "fingerprint": key,
                    }
                )
    return entries


def _write_doc(entries: list[dict], out: str, merge: bool) -> None:
    from repro.ledger import validate_bench_document
    from repro.ledger.record import git_sha, machine_spec

    doc = {
        "schema": "repro-bench/v1",
        "generated_unix": time.time(),
        "git_sha": git_sha(),
        "machine": machine_spec(),
        "entries": entries,
    }
    if merge:
        try:
            with open(out, encoding="utf-8") as fh:
                existing = json.load(fh)
        except (OSError, json.JSONDecodeError):
            existing = None
        if existing is not None:
            kept = [e for e in existing.get("entries", [])
                    if not e["name"].startswith("kernel_backends/")]
            doc["entries"] = kept + entries
    validate_bench_document(doc)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}: {len(doc['entries'])} entries")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backends", default=None, metavar="A,B",
                        help="comma-separated backends to measure (default: "
                             "cext if available); naming an unavailable one "
                             "fails")
    parser.add_argument("--reps", type=int, default=60,
                        help="timed oracle/compiled pairs per measurement (default 60)")
    parser.add_argument("--min-muscl-speedup", type=float, default=1.75,
                        help="fail below this whole-kernel MUSCL speedup at any "
                             "level (default 1.75 — the headline gate)")
    parser.add_argument("--min-fd-speedup", type=float, default=1.3,
                        help="fail below this whole-kernel Rusanov speedup "
                             "(default 1.3; the fd kernel is gather-bound)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write a validated repro-bench/v1 document here")
    parser.add_argument("--merge", default=None, metavar="FILE",
                        help="like --out, but keep the file's non-"
                             "kernel_backends entries (BENCH_kernels.json)")
    args = parser.parse_args(argv)

    if args.backends:
        requested = [b.strip() for b in args.backends.split(",") if b.strip()]
    else:
        requested = None

    available = {r["name"]: r for r in backends.available_backends()}
    names = requested or [n for n in ("cext",) if available[n]["available"]]
    failures = []
    for name in names:
        if name not in available or name == "numpy":
            print(f"FAIL: not a measurable backend: {name!r}", file=sys.stderr)
            return 1
        if not available[name]["available"]:
            failures.append(f"{name}: unavailable ({available[name]['detail']})")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    if not names:
        print("no compiled backend available (no C compiler); nothing to measure")
        return 0

    rows = []
    table = Table(
        title=(f"Compiled backends vs NumPy oracle — {BENCH_NX}^2 "
               f"level-{BENCH_MAX_LEVEL} dam break after {BENCH_WARMUP_STEPS} "
               f"steps (median of {args.reps})"),
        headers=["Level", "Backend", "Bits", "fd x", "muscl x",
                 "muscl oracle (ms)", "muscl compiled (ms)"],
    )
    for level in LEVELS:
        mesh, state, faces, dt = _prepare(level)
        for backend in names:
            identical = _check_identity(mesh, state, faces, backend)
            if not identical:
                failures.append(
                    f"{level}/{backend}: state diverged from the oracle "
                    f"(bit-identity broken)"
                )
            row = {"level": level, "backend": backend}
            for kernel in KERNELS:
                (row[f"{kernel}_oracle_s"], row[f"{kernel}_compiled_s"],
                 row[f"{kernel}_speedup"]) = _time_pair(
                    mesh, state, faces, dt, kernel, backend, args.reps)
            rows.append(row)
            table.add_row(
                level, backend, "identical" if identical else "DIVERGED",
                round(row["fd_speedup"], 2),
                round(row["muscl_speedup"], 2),
                round(1e3 * row["muscl_oracle_s"], 3),
                round(1e3 * row["muscl_compiled_s"], 3),
            )
            if row["muscl_speedup"] < args.min_muscl_speedup:
                failures.append(
                    f"{level}/{backend}: muscl speedup {row['muscl_speedup']:.2f}x "
                    f"< floor {args.min_muscl_speedup}x"
                )
            if row["fd_speedup"] < args.min_fd_speedup:
                failures.append(
                    f"{level}/{backend}: fd speedup {row['fd_speedup']:.2f}x "
                    f"< floor {args.min_fd_speedup}x"
                )
    print(table.render())

    entries = _bench_entries(rows, args.reps)
    if args.merge:
        _write_doc(entries, args.merge, merge=True)
    elif args.out:
        _write_doc(entries, args.out, merge=False)

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
