#!/usr/bin/env python
"""Trace the dam break at every precision level, side by side.

Runs the CLAMR dam break under the three precision policies (min, mixed,
full) with full telemetry: hierarchical kernel spans, per-kernel
flop/byte metrics, and strided numerical watchpoints.  For each policy it
writes a Perfetto-loadable Chrome trace (open the files in
https://ui.perfetto.dev and compare the timelines), then prints a
side-by-side kernel-time table and the numerical-event report — the
min-precision run is where subnormal/headroom warnings appear first.

    python examples/trace_dam_break.py [--nx 64] [--steps 200] [--outdir /tmp]
"""

import argparse
import tempfile
from pathlib import Path

from repro.clamr import ClamrSimulation, DamBreakConfig
from repro.harness.report import Table
from repro.telemetry import Telemetry, event_report, span_tree, write_chrome_trace, write_jsonl

POLICIES = ("min", "mixed", "full")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nx", type=int, default=64, help="coarse grid size")
    parser.add_argument("--steps", type=int, default=200, help="timesteps per run")
    parser.add_argument("--max-level", type=int, default=2, help="AMR refinement levels")
    parser.add_argument("--stride", type=int, default=4, help="watchpoint scan stride")
    parser.add_argument("--outdir", type=Path, default=None, help="trace output directory")
    args = parser.parse_args()
    outdir = args.outdir or Path(tempfile.mkdtemp(prefix="traces_"))
    outdir.mkdir(parents=True, exist_ok=True)

    cfg = DamBreakConfig(nx=args.nx, ny=args.nx, max_level=args.max_level)
    traces: dict[str, Telemetry] = {}
    for policy in POLICIES:
        tel = Telemetry(label=f"clamr/dam_break/{policy}", watch_stride=args.stride)
        res = ClamrSimulation(cfg, policy=policy, telemetry=tel).run(args.steps)
        traces[policy] = tel
        chrome = write_chrome_trace(tel, outdir / f"dam_break_{policy}.trace.json")
        write_jsonl(tel, outdir / f"dam_break_{policy}.jsonl")
        print(f"{policy:>5}: wall {res.elapsed_s:.3f}s  mass drift {res.mass_drift:.3e}  -> {chrome}")

    # side-by-side kernel time per policy
    names: list[str] = []
    for tel in traces.values():
        for s in tel.tracer.spans:
            if s.name not in names:
                names.append(s.name)
    table = Table(
        title="Kernel time by precision policy (s)",
        headers=["Span", *POLICIES],
    )
    for name in names:
        table.add_row(name, *(traces[p].tracer.total_s(name) for p in POLICIES))
    print()
    print(table.render())

    for policy in POLICIES:
        tel = traces[policy]
        print(f"\n=== {policy} ===")
        print(span_tree(tel))
        print(event_report(tel))

    print(f"\nTraces in {outdir} — load the .trace.json files in https://ui.perfetto.dev")


if __name__ == "__main__":
    main()
