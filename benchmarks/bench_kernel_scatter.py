"""Microbenchmark + regression gate for the deterministic scatter kernels.

Times :func:`finite_diff_vectorized` with the production ``ScatterPlan``
(CSR segment scatter, see docs/performance.md) against the same kernel
with ``scatter_mode("add_at")``, which forces the original ``np.add.at``
scatter (the "legacy" rows), on a developed 128x128 level-2 dam break,
per precision level — after first *proving* the two produce bit-identical
state, which is the property that makes the optimization admissible at
all.

Two speedups are reported per level:

* **kernel** — whole :func:`finite_diff_vectorized` call.  The float64
  flux evaluation (an exact replay of the legacy op sequence, required
  for bit-identity) bounds this: on NumPy >= 2 — whose buffered
  ``np.add.at`` fast path is far quicker than the NumPy 1.x scatter the
  historical "3x from removing add.at" folklore assumes — expect ~1.2-1.5x.
* **scatter** — the six-scatter stage alone (the part the plan actually
  replaces); expect ~2x.

Run directly (CI's perf-smoke job does)::

    python benchmarks/bench_kernel_scatter.py --out BENCH_kernels.json \
        --ledger runs

Exit status: 1 when bit-identity fails or a speedup floor is missed,
0 otherwise.  ``--ledger`` additionally records an instrumented
``kernel_scatter`` workload run per level, which CI gates against the
committed baseline ledger like any other workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

import numpy as np

from repro.clamr import ClamrSimulation, DamBreakConfig
from repro.clamr.kernels import (
    FaceLists,
    compute_timestep,
    finite_diff_vectorized,
    scatter_mode,
)
from repro.harness.report import Table

LEVELS = ("min", "mixed", "full")

#: the measurement workload: a dam break refined enough that the face
#: count dwarfs the cell count (the regime the scatter dominates)
BENCH_NX = 128
BENCH_MAX_LEVEL = 2
BENCH_WARMUP_STEPS = 12
#: bit-identity is checked over this many further steps
IDENTITY_STEPS = 8


def _prepare(level: str):
    """A developed simulation snapshot: mesh, state, faces, dt."""
    cfg = DamBreakConfig(nx=BENCH_NX, ny=BENCH_NX, max_level=BENCH_MAX_LEVEL)
    sim = ClamrSimulation(cfg, policy=level)
    sim.run(BENCH_WARMUP_STEPS)
    faces = FaceLists.from_mesh(sim.mesh)
    dt = compute_timestep(sim.mesh, sim.state, cfg.courant)
    return sim.mesh, sim.state, faces, dt


def _check_identity(mesh, state, faces, dt) -> bool:
    """Plan vs legacy over IDENTITY_STEPS from the same snapshot: same bits?"""
    runs = {}
    for mode in ("plan", "add_at"):
        s = state.copy()
        with scatter_mode(mode):
            for _ in range(IDENTITY_STEPS):
                step_dt = compute_timestep(mesh, s, 0.25)
                finite_diff_vectorized(mesh, s, step_dt, faces=faces)
        runs[mode] = s
    a, b = runs["plan"], runs["add_at"]
    return (
        np.array_equal(a.H, b.H, equal_nan=True)
        and np.array_equal(a.U, b.U, equal_nan=True)
        and np.array_equal(a.V, b.V, equal_nan=True)
    )


def _time_kernel(mesh, state, faces, dt, mode: str, reps: int) -> float:
    """Median seconds per finite_diff_vectorized call under a scatter mode.

    The state evolves across reps, but plan and add_at are bit-identical,
    so both modes time the *same* sequence of states — a fair comparison.
    """
    s = state.copy()
    with scatter_mode(mode):
        finite_diff_vectorized(mesh, s, dt, faces=faces)  # warm caches
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            finite_diff_vectorized(mesh, s, dt, faces=faces)
            times.append(time.perf_counter() - t0)
    return float(np.median(times))


def _time_scatter(mesh, state, faces, reps: int) -> tuple[float, float]:
    """Median seconds for the six-scatter stage: (plan, add_at).

    Deterministic synthetic fluxes of the level's compute dtype; the
    accumulators are reused across reps (both implementations are pure
    accumulate, so growth does not change the work done).
    """
    cdtype = state.policy.compute_dtype
    xplan, yplan = faces.scatter_plans(mesh.ncells)
    fluxes = {}
    for plan in (xplan, yplan):
        f = np.linspace(-1.0, 1.0, 3 * plan.nfaces, dtype=cdtype).reshape(3, -1)
        fluxes[plan] = np.ascontiguousarray(f)
    acc = np.zeros((3, mesh.ncells), dtype=cdtype)

    def run_plan():
        for plan in (xplan, yplan):
            f = fluxes[plan]
            for k in range(3):
                plan.apply(acc[k], f[k])

    def run_add_at():
        for plan in (xplan, yplan):
            f = fluxes[plan]
            fsz = plan._sizes(cdtype)
            for k in range(3):
                np.add.at(acc[k], plan.low, -f[k] * fsz)
                np.add.at(acc[k], plan.high, f[k] * fsz)

    out = []
    for fn in (run_plan, run_add_at):
        fn()  # warm
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        out.append(float(np.median(times)))
    return out[0], out[1]


def _bench_entries(rows, reps: int) -> list[dict]:
    """repro-bench/v1 entries from the per-level measurement rows."""
    shape = {"nx": BENCH_NX, "max_level": BENCH_MAX_LEVEL, "warmup": BENCH_WARMUP_STEPS}
    entries = []
    for row in rows:
        ident = dict(shape, level=row["level"])
        key = hashlib.sha256(json.dumps(ident, sort_keys=True).encode()).hexdigest()[:16]
        prefix = f"kernel_scatter/nx{BENCH_NX}L{BENCH_MAX_LEVEL}/{row['level']}"
        for metric, value, unit, samples in (
            ("kernel/plan/total_ms", 1e3 * row["kernel_plan_s"], "ms", reps),
            ("kernel/legacy/total_ms", 1e3 * row["kernel_legacy_s"], "ms", reps),
            ("kernel/speedup", row["kernel_speedup"], "1", reps),
            ("scatter/plan/total_ms", 1e3 * row["scatter_plan_s"], "ms", reps),
            ("scatter/legacy/total_ms", 1e3 * row["scatter_legacy_s"], "ms", reps),
            ("scatter/speedup", row["scatter_speedup"], "1", reps),
        ):
            entries.append(
                {
                    "name": f"{prefix}/{metric}",
                    "value": float(value),
                    "unit": unit,
                    "samples": samples,
                    "workload_key": key,
                    "fingerprint": key,
                }
            )
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=30,
                        help="timed repetitions per measurement (default 30)")
    parser.add_argument("--min-kernel-speedup", type=float, default=1.0,
                        help="fail if any level's whole-kernel speedup falls "
                             "below this (default 1.0: plan never slower)")
    parser.add_argument("--min-scatter-speedup", type=float, default=1.3,
                        help="fail if any level's scatter-stage speedup falls "
                             "below this (default 1.3)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write a validated repro-bench/v1 document here")
    parser.add_argument("--ledger", default=None, metavar="PATH",
                        help="also record an instrumented kernel_scatter "
                             "workload run per level to this ledger")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the --ledger recording runs")
    args = parser.parse_args(argv)

    rows = []
    failures = []
    table = Table(
        title=(f"ScatterPlan vs legacy np.add.at — {BENCH_NX}^2 level-{BENCH_MAX_LEVEL} "
               f"dam break after {BENCH_WARMUP_STEPS} steps (median of {args.reps})"),
        headers=["Level", "Bits", "Kernel plan (ms)", "Kernel legacy (ms)", "Kernel x",
                 "Scatter plan (ms)", "Scatter legacy (ms)", "Scatter x"],
    )
    for level in LEVELS:
        mesh, state, faces, dt = _prepare(level)
        identical = _check_identity(mesh, state, faces, dt)
        if not identical:
            failures.append(f"{level}: plan and add_at state diverged (bit-identity broken)")
        kp = _time_kernel(mesh, state, faces, dt, "plan", args.reps)
        kl = _time_kernel(mesh, state, faces, dt, "add_at", args.reps)
        sp, sl = _time_scatter(mesh, state, faces, args.reps)
        row = {
            "level": level,
            "kernel_plan_s": kp,
            "kernel_legacy_s": kl,
            "kernel_speedup": kl / kp,
            "scatter_plan_s": sp,
            "scatter_legacy_s": sl,
            "scatter_speedup": sl / sp,
        }
        rows.append(row)
        table.add_row(
            level,
            "identical" if identical else "DIVERGED",
            round(1e3 * kp, 3), round(1e3 * kl, 3), round(kl / kp, 2),
            round(1e3 * sp, 3), round(1e3 * sl, 3), round(sl / sp, 2),
        )
        if kl / kp < args.min_kernel_speedup:
            failures.append(
                f"{level}: kernel speedup {kl / kp:.2f}x < floor {args.min_kernel_speedup}x"
            )
        if sl / sp < args.min_scatter_speedup:
            failures.append(
                f"{level}: scatter speedup {sl / sp:.2f}x < floor {args.min_scatter_speedup}x"
            )
    print(table.render())

    if args.out:
        from repro.ledger import validate_bench_document
        from repro.ledger.record import git_sha, machine_spec

        doc = {
            "schema": "repro-bench/v1",
            "generated_unix": time.time(),
            "git_sha": git_sha(),
            "machine": machine_spec(),
            "entries": _bench_entries(rows, args.reps),
        }
        validate_bench_document(doc)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}: {len(doc['entries'])} entries")

    if args.ledger:
        from repro.harness.experiments import run_clamr_levels

        run_clamr_levels(
            nx=24, steps=40, max_level=2, ledger=args.ledger,
            label="kernel_scatter/nx24s40", jobs=args.jobs,
        )
        print(f"ledger: {args.ledger} += 3 kernel_scatter records")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
