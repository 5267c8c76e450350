"""Rebuild the end-to-end benchmark summary from the raw samples alone.

    python benchmarks/e2e/summarize.py DIR

reads ``DIR/raw/*.json`` as written by ``run.py`` -- one file per
repetition: ``round-<r>-<workload>.json`` (round 0 is the untimed warm-up)
and ``traced-<workload>.json`` -- then writes ``DIR/summary.json`` and
prints every metric with its unit.  Exit status 1 when any repetition
failed a check.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from layers import PER_LAYER_UNITS, layer_metrics
from workloads import WORKLOADS

__all__ = ["END_TO_END", "failed", "quartiles", "render", "summarize"]

#: the end-to-end metrics and their units (definitions in README.md)
END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "failed_frac": "1"}


def quartiles(values) -> dict:
    """Median, q1, q3 (``statistics.quantiles``, n=4) and sample count."""
    values = list(values)
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize_workload(name: str, raws: list[dict]) -> dict:
    """One workload's summary from its raw repetition files."""
    timed = [r["result"] for r in raws if r["kind"] == "timed"]
    ok = [r for r in timed if r["ok"]]
    e2e = {
        metric: {"unit": END_TO_END[metric], **quartiles(r[metric] for r in ok)}
        for metric in ("solve_s", "setup_s", "peak_rss_mb")
    }
    e2e["failed_frac"] = {
        "unit": END_TO_END["failed_frac"],
        **quartiles(r["failed"] / r["attempted"] for r in timed),
    }
    errors = sorted({e for r in raws for e in r["result"]["errors"]})
    out = {
        "why": WORKLOADS[name].why,
        "attempted": sum(r["attempted"] for r in timed),
        "failed": sum(r["failed"] for r in timed),
        "end_to_end": e2e,
        "errors": errors,
    }
    traced = [r["result"] for r in raws if r["kind"] == "traced"]
    if traced:
        out["traced_ok"] = traced[0]["ok"]
        if "traced" in traced[0] and e2e["solve_s"]["median"]:
            metrics = layer_metrics(traced[0]["traced"], WORKLOADS[name].family,
                                    e2e["solve_s"]["median"])
            out["per_layer"] = {
                m: {"value": v, "unit": PER_LAYER_UNITS[m]} for m, v in metrics.items()
            }
    return out


def summarize(out_dir) -> dict:
    """Read ``out_dir/raw``, write ``out_dir/summary.json``, return the summary."""
    out_dir = Path(out_dir)
    raws = [json.loads(p.read_text(encoding="utf-8"))
            for p in sorted((out_dir / "raw").glob("*.json"))]
    if not raws:
        raise SystemExit(f"no raw samples under {out_dir / 'raw'}")
    names = [n for n in WORKLOADS if any(r["workload"] == n for r in raws)]
    summary = {
        "seed": raws[0]["seed"],
        "size": raws[0]["size"],
        "rounds": max((r["round"] for r in raws if r["kind"] == "timed"), default=0),
        "workloads": {
            n: summarize_workload(n, [r for r in raws if r["workload"] == n]) for n in names
        },
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=1) + "\n",
                                          encoding="utf-8")
    return summary


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def render(summary: dict) -> str:
    """The printed table: every end-to-end metric, then non-zero per-layer ones."""
    lines = [
        f"end-to-end benchmark: seed {summary['seed']}, {summary['size']} size, "
        f"{summary['rounds']} timed round(s); median [q1, q3] (n)",
        f"{'workload':<22} {'metric':<12} {'unit':<4} {'median':>11} "
        f"{'q1':>11} {'q3':>11} {'n':>3}",
    ]
    for name, w in summary["workloads"].items():
        for metric, s in w["end_to_end"].items():
            lines.append(
                f"{name:<22} {metric:<12} {s['unit']:<4} {_fmt(s['median']):>11} "
                f"{_fmt(s['q1']):>11} {_fmt(s['q3']):>11} {s['n']:>3}"
            )
    for name, w in summary["workloads"].items():
        if "traced_ok" not in w:
            continue
        status = "ok" if w["traced_ok"] else "FAILED"
        lines.append(f"\nper-layer, traced pass of {name} ({status}; zero values omitted):")
        for metric, m in w.get("per_layer", {}).items():
            if m["value"]:
                lines.append(f"  {metric:<56} {m['value']:>12.6g} {m['unit']}")
    for name, w in summary["workloads"].items():
        for error in w["errors"]:
            lines.append(f"ERROR {name}: {error}")
    return "\n".join(lines)


def failed(summary: dict) -> bool:
    return any(w["failed"] or w["errors"] for w in summary["workloads"].values())


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    summary = summarize(argv[0])
    print(render(summary))
    return 1 if failed(summary) else 0


if __name__ == "__main__":
    sys.exit(main())
