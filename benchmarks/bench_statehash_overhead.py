"""Regression gate: the state-hash ladder stays cheap at its CI stride.

The divergence microscope (docs/divergence.md) is only usable if
hashing the live state does not distort the run being probed.  This
bench times the whole developed-run kernel loop of a 128x128 level-2
dam break three ways — bare (``telemetry=None``), hashing every 4th
step (``hash_stride=4``, the CI divergence-smoke cadence), and hashing
every step (``hash_stride=1``, full resolution), in interleaved triples —
and fails when the median of the per-triple stride-4/bare ratios
exceeds 1 + ``--max-overhead`` (default 10%).

The stride-1 cost is reported but *not* gated: full-resolution hashing
sha256s every state byte at every kernel site of every step, and its
cost is the honest price of exact step-level localization.  The
recommended workflow keeps day-to-day runs at stride >= 4 and lets
``repro diverge replay`` re-run only the bracketed window at stride 1.

Run directly (CI's divergence-smoke job does)::

    python benchmarks/bench_statehash_overhead.py --out BENCH_observatory.json

``--out`` *merges* into an existing repro-bench/v1 document: entries
whose names this bench owns are replaced, every other entry is kept.

Exit status: 1 when the stride-4 overhead gate is breached, 0 otherwise.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

from repro.clamr import ClamrSimulation, DamBreakConfig
from repro.harness.report import Table

#: the measurement workload: the same developed AMR regime the kernel
#: and telemetry benches use
BENCH_NX = 128
BENCH_MAX_LEVEL = 2
BENCH_STEPS = 96
#: the gated cadence (what CI's divergence smoke runs at)
GATED_STRIDE = 4


def _run_once(hash_stride: int) -> tuple[float, int]:
    """One full run; returns (kernel seconds, hashed steps recorded)."""
    tel = None
    nsteps = 0
    if hash_stride > 0:
        from repro.diverge.ladder import StateHashLadder
        from repro.telemetry import Telemetry

        tel = Telemetry(
            label="bench/statehash_overhead",
            watch_stride=0,
            ladder=StateHashLadder(stride=hash_stride, label="bench"),
        )
    cfg = DamBreakConfig(nx=BENCH_NX, ny=BENCH_NX, max_level=BENCH_MAX_LEVEL)
    # collect *before* timing so the previous run's garbage (hash entries,
    # mesh arrays) is not billed to this variant's kernel loop
    gc.collect()
    result = ClamrSimulation(cfg, policy="mixed", telemetry=tel).run(BENCH_STEPS)
    if tel is not None:
        nsteps = tel.ladder.nsteps
    return float(result.kernel_elapsed_s), nsteps


def _measure(reps: int) -> dict:
    """Kernel seconds of ``reps`` interleaved (bare, stride-4, stride-1) triples.

    Each overhead is the median of the per-triple ratios to that
    triple's bare run: runs taken back to back share the host's load,
    so a change between triples cancels in the ratio, and the median
    drops a triple that one spike hit (see bench_telemetry_overhead).
    The kernel times shown are each variant's median.
    """
    bare, strided, full = [], [], []
    strided_steps = full_steps = 0
    _run_once(hash_stride=0)  # discarded warmup: caches, allocator
    for _ in range(reps):
        b, _ = _run_once(hash_stride=0)
        s, strided_steps = _run_once(hash_stride=GATED_STRIDE)
        f, full_steps = _run_once(hash_stride=1)
        bare.append(b)
        strided.append(s)
        full.append(f)
    def overhead(runs):
        return statistics.median(r / b for b, r in zip(bare, runs)) - 1.0

    return {
        "bare_s": statistics.median(bare),
        "strided_s": statistics.median(strided),
        "full_s": statistics.median(full),
        "strided_overhead_frac": overhead(strided),
        "full_overhead_frac": overhead(full),
        "strided_steps": strided_steps,
        "full_steps": full_steps,
    }


_NAME_PREFIX = f"statehash_overhead/nx{BENCH_NX}L{BENCH_MAX_LEVEL}"


def _bench_entries(m: dict, reps: int) -> list[dict]:
    """repro-bench/v1 entries for the merged observatory document."""
    ident = {
        "nx": BENCH_NX, "max_level": BENCH_MAX_LEVEL, "steps": BENCH_STEPS,
        "hash_stride": GATED_STRIDE,
    }
    key = hashlib.sha256(json.dumps(ident, sort_keys=True).encode()).hexdigest()[:16]
    entries = []
    for metric, value, unit in (
        ("bare/kernel_ms", 1e3 * m["bare_s"], "ms"),
        (f"stride{GATED_STRIDE}/kernel_ms", 1e3 * m["strided_s"], "ms"),
        ("stride1/kernel_ms", 1e3 * m["full_s"], "ms"),
        (f"stride{GATED_STRIDE}/overhead_frac", m["strided_overhead_frac"], "1"),
        ("stride1/overhead_frac", m["full_overhead_frac"], "1"),
    ):
        entries.append(
            {
                "name": f"{_NAME_PREFIX}/{metric}",
                "value": float(value),
                "unit": unit,
                "samples": reps,
                "workload_key": key,
                "fingerprint": key,
            }
        )
    return entries


def _merge_out(path: str, entries: list[dict]) -> int:
    """Replace this bench's entries inside an existing bench document.

    Other producers' entries (the observatory export, the telemetry
    bench) are preserved; the document is recreated if absent or
    unreadable.
    """
    from repro.ledger import validate_bench_document
    from repro.ledger.record import git_sha, machine_spec

    out = Path(path)
    kept: list[dict] = []
    if out.exists():
        try:
            kept = [
                e for e in json.loads(out.read_text())["entries"]
                if not str(e.get("name", "")).startswith(_NAME_PREFIX + "/")
            ]
        except (json.JSONDecodeError, KeyError, TypeError):
            kept = []
    doc = {
        "schema": "repro-bench/v1",
        "generated_unix": time.time(),
        "git_sha": git_sha(),
        "machine": machine_spec(),
        "entries": kept + entries,
    }
    validate_bench_document(doc)
    with out.open("w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return len(doc["entries"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=5,
                        help="interleaved run triples to take the median "
                             "ratios of (default 5)")
    parser.add_argument("--max-overhead", type=float, default=0.10,
                        help=f"fail if the stride-{GATED_STRIDE} overhead "
                             "exceeds this (default 0.10 = 10%%)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="merge repro-bench/v1 entries into this document "
                             "(e.g. BENCH_observatory.json)")
    args = parser.parse_args(argv)

    m = _measure(args.reps)
    table = Table(
        title=(f"State-hash ladder overhead — {BENCH_NX}^2 level-{BENCH_MAX_LEVEL} "
               f"dam break, {BENCH_STEPS} steps (median of {args.reps} triples)"),
        headers=["Variant", "Kernel (ms)", "Overhead"],
    )
    table.add_row("bare (telemetry=None)", round(1e3 * m["bare_s"], 2), "-")
    table.add_row(
        f"hash_stride={GATED_STRIDE} ({m['strided_steps']} hashed steps)",
        round(1e3 * m["strided_s"], 2),
        f"{100 * m['strided_overhead_frac']:+.2f}%",
    )
    table.add_row(
        f"hash_stride=1 ({m['full_steps']} hashed steps, ungated)",
        round(1e3 * m["full_s"], 2),
        f"{100 * m['full_overhead_frac']:+.2f}%",
    )
    table.notes.append(
        f"gate: stride-{GATED_STRIDE} overhead < {100 * args.max_overhead:g}%; "
        "stride-1 is the documented full-resolution cost, not gated — "
        "use 'repro diverge replay' to pay it only inside a bracketed window"
    )
    print(table.render())

    if args.out:
        total = _merge_out(args.out, _bench_entries(m, args.reps))
        print(f"wrote {args.out}: {total} entries")

    if m["strided_overhead_frac"] >= args.max_overhead:
        print(
            f"FAIL: stride-{GATED_STRIDE} state-hash overhead "
            f"{100 * m['strided_overhead_frac']:.2f}% >= "
            f"{100 * args.max_overhead:g}% budget",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
