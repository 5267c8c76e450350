"""One repetition of one workload, in a fresh process.

``run.py`` starts this once per repetition; to debug one workload by hand::

    PYTHONPATH=src python benchmarks/e2e/child.py --workload clamr-lake-128 \\
        --seed 0 --size smoke --work /tmp/e2e-work \\
        --expected benchmarks/e2e/expected.json

The process imports the program, builds the workload's inputs from its
seed, runs the timed section once, checks every output, and prints one
JSON object as the last line of stdout:

``setup_s``      from ``--t0`` (the parent's ``perf_counter`` just before it
                 started this process) to ready-to-step;
``solve_s``      the timed section;
``peak_rss_mb``  ``ru_maxrss`` of the process that did the work;
``attempted`` / ``failed`` / ``errors`` / ``digests``, and with
``--trace-file`` a ``traced`` block of per-layer self times.

``--worker`` is the sweep's service-worker role: it imports everything a
job needs, prints ``ready``, waits for ``go`` on stdin, drains the queue
and prints its own JSON report.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import ExitStack  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402

#: the sweep workers' queue poll interval
POLL_S = 0.05
#: how long the sweep orchestrator waits for its workers to get ready / drain
WORKER_READY_S = 60.0
WORKER_DRAIN_S = 150.0


class BenchFailure(Exception):
    """A repetition that cannot run as specified (wrong backend, worker lost, ...)."""


def _now() -> float:
    return time.perf_counter()


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sha256(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _expected(args, name: str) -> dict | None:
    """The committed digests of ``name`` at this size, or None when recording."""
    if args.expected is None:
        return None
    doc = json.loads(Path(args.expected).read_text(encoding="utf-8"))
    entry = doc.get(args.size, {}).get(name)
    if entry is None:
        raise BenchFailure(f"{args.expected} has no {args.size} digests for {name}")
    return entry


def _compare_digests(out: dict, args, name: str, digests: dict) -> None:
    """Seed 0 is bit-checked: every digest must equal the committed one."""
    out["digests"] = digests
    if args.seed != 0:
        return
    expected = _expected(args, name)
    if expected is None:
        return
    for key, value in digests.items():
        if expected.get(key) != value:
            out["errors"].append(f"{key} mismatch: got {value}, expected {expected.get(key)}")


def _failed_checks(found) -> list[str]:
    return [f"{c.name}: {c.evidence}" for c in found if not c.passed]


def _use_backend(name: str, cdtype, which: str) -> None:
    """Select and warm the workload's kernel backend; refuse a silent fallback."""
    from repro.clamr import backends

    backends.set_kernel_backend(name)
    backends.warmup(cdtype, which=which)
    resolved = backends.resolved_backend(cdtype)
    if resolved != name:
        detail = f" ({backends.cext.availability()[1]})" if name == "cext" else ""
        raise BenchFailure(
            f"kernel backend resolved to {resolved!r} but the workload names {name!r}{detail}"
        )


def _check_layers(out: dict, w: workloads.Workload) -> None:
    missing = [
        name for name in w.expected_layers
        if out["traced"]["layers"].get(name, (0.0, 0))[1] == 0
    ]
    if missing:
        out["errors"].append(f"traced pass: zero calls recorded for {', '.join(missing)}")


# -- seeded inputs --------------------------------------------------------------


def shifted_dam_ic(offset, cfg, x, y):
    """The CLAMR driver's built-in dam-break column, centre moved by ``offset`` cells."""
    length = cfg.domain_size
    cx = 0.5 * length + offset[0] * cfg.coarse_size
    cy = 0.5 * length + offset[1] * cfg.coarse_size
    r = np.sqrt((x - cx) ** 2 + (y - cy) ** 2)
    radius = cfg.column_radius_fraction * length
    smooth = 0.5 * (1.0 - np.tanh((r - radius) / (0.5 * cfg.coarse_size)))
    H = cfg.base_height + (cfg.column_height - cfg.base_height) * smooth
    return H, np.zeros_like(H), np.zeros_like(H)


def shifted_hook(offset, hook, cfg, x, y):
    """A scenario hook evaluated with its pattern moved by ``offset`` cells."""
    return hook(cfg, x - offset[0] * cfg.coarse_size, y - offset[1] * cfg.coarse_size)


# -- workload runners -------------------------------------------------------------


def run_clamr(w, args, t0: float, tracer, out: dict) -> None:
    from repro.clamr import ClamrSimulation, DamBreakConfig
    from repro.precision.policy import PrecisionPolicy, level_from_name
    from repro.scenarios import checks, get_scenario

    size = workloads.size_of(w.name, args.size)
    scenario = get_scenario(w.params["scenario"])
    cfg = DamBreakConfig(
        **{"nx": size["nx"], "ny": size["nx"], "max_level": size["max_level"],
           **scenario.config}
    )
    ic, bathymetry = scenario.ic, scenario.bathymetry
    if args.seed:
        offset = workloads.cell_offset(w.name, args.seed)
        ic = partial(shifted_dam_ic, offset) if ic is None else partial(shifted_hook, offset, ic)
        if bathymetry is not None:
            bathymetry = partial(shifted_hook, offset, bathymetry)
    policy = PrecisionPolicy.from_level(level_from_name(w.params["policy"]))
    _use_backend(w.backend, policy.compute_dtype, "clamr")

    if tracer is not None:
        layers.install(tracer, [w.family])
    t_traced = _now()
    sim = ClamrSimulation(
        cfg, policy=policy, scheme=w.params["scheme"], ic=ic, bathymetry=bathymetry
    )
    t_ready = _now()
    result = sim.run(size["steps"])
    t_done = _now()
    out.update(setup_s=t_ready - t0, solve_s=t_done - t_ready, peak_rss_mb=_rss_mb())
    if tracer is not None:
        out["traced"] = {**tracer.summary(), "wall_s": t_done - t_traced,
                         "solve_s": t_done - t_ready}

    state = sim.state
    found = [
        checks.finite_check(w.name, {"H": state.H, "U": state.U, "V": state.V}),
        checks.positive_depth_check(w.name, state.H),
        checks.conservation_check(
            w.name, result.mass_drift, checks.mass_tolerance(state.state_dtype, result.steps)
        ),
    ]
    if w.params.get("acceptance"):
        found += scenario.acceptance(SimpleNamespace(sim=sim, result=result))
    out["errors"] += _failed_checks(found)
    _compare_digests(out, args, w.name, {
        "state_sha256": _sha256(state.H, state.U, state.V),
        "mass_hex": float(result.mass_history[-1]).hex(),
    })


def run_self(w, args, t0: float, tracer, out: dict) -> None:
    from repro.scenarios import checks
    from repro.self_ import SelfSimulation, ThermalBubbleConfig
    from repro.self_.diagnostics import total_mass
    from repro.self_.simulation import parse_precision

    size = workloads.size_of(w.name, args.size)
    n = size["elems"]
    cfg = ThermalBubbleConfig(nex=n, ney=n, nez=n, order=size["order"])
    if args.seed:
        offset = workloads.cell_offset(w.name, args.seed)
        cfg = dataclasses.replace(cfg, bubble_center=tuple(
            c + d * length / n for c, d, length in zip(cfg.bubble_center, offset, cfg.lengths)
        ))
    dtype = parse_precision(w.params["precision"])
    _use_backend(w.backend, dtype, "self")

    if tracer is not None:
        layers.install(tracer, [w.family])
    t_traced = _now()
    sim = SelfSimulation(cfg, precision=dtype)
    t_ready = _now()
    mass0 = total_mass(sim.solver, sim.U)  # check input, outside both timed sections
    t_solve = _now()
    result = sim.run(size["steps"])
    t_done = _now()
    out.update(setup_s=t_ready - t0, solve_s=t_done - t_solve, peak_rss_mb=_rss_mb())
    if tracer is not None:
        out["traced"] = {**tracer.summary(),
                         "wall_s": (t_ready - t_traced) + (t_done - t_solve),
                         "solve_s": t_done - t_solve}

    mass = total_mass(sim.solver, sim.U)
    drift = abs(mass - mass0) / abs(mass0)
    rho_min = float(np.min(sim.U[:, 0]))
    found = [
        checks.finite_check(w.name, {"U": sim.U}),
        checks.conservation_check(w.name, drift, checks.mass_tolerance(dtype, result.steps)),
    ]
    out["errors"] += _failed_checks(found)
    if not rho_min > 0.0:
        out["errors"].append(f"{w.name}/positive-density: min rho = {rho_min:.6g}")
    _compare_digests(out, args, w.name, {
        "state_sha256": _sha256(sim.U),
        "mass_hex": float(mass).hex(),
    })


def _await_line(proc: subprocess.Popen, expect: str, deadline: float) -> None:
    """Read one stdout line from ``proc`` and require it to be ``expect``."""
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - _now()))
    line = proc.stdout.readline().strip() if ready else ""
    if line != expect:
        raise BenchFailure(f"worker {proc.pid} sent {line!r} instead of {expect!r}")


def run_sweep(w, args, t0: float, tracer, out: dict) -> None:
    from repro.service.jobs import JobSpec
    from repro.service.queue import JobQueue

    work = Path(args.work)
    queue_root, ledger = work / "queue", work / "ledger.jsonl"
    jobs = workloads.sweep_jobs(args.size, args.seed)
    out["attempted"] = len(jobs)
    expected = _expected(args, w.name)
    worker_spans = [work / f"spans-w{i}.jsonl" for i in range(2)]

    with ExitStack() as stack:
        procs = []
        for i in range(2):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
                   "--queue", str(queue_root), "--ledger", str(ledger)]
            if tracer is not None:
                cmd += ["--trace-file", str(worker_spans[i])]
            err = stack.enter_context(open(work / f"worker{i}.err", "w", encoding="utf-8"))
            proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                    stderr=err, text=True)
            stack.callback(_reap, proc)
            procs.append(proc)

        if tracer is not None:
            layers.install(tracer, [w.family])
        t_traced = _now()
        queue = JobQueue(queue_root).ensure()
        for job in jobs:
            queue.submit(JobSpec(**job))
        t_submitted = _now()
        for proc in procs:
            _await_line(proc, "ready", t_submitted + WORKER_READY_S)
        t_ready = _now()
        for proc in procs:
            proc.stdin.write("go\n")
            proc.stdin.flush()
        t_go = _now()
        reports = []
        for i, proc in enumerate(procs):
            stdout, _ = proc.communicate(timeout=WORKER_DRAIN_S)
            lines = stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                tail = (work / f"worker{i}.err").read_text(encoding="utf-8").strip()
                raise BenchFailure(
                    f"worker {i} exited {proc.returncode}: {tail.splitlines()[-1:] or 'no output'}"
                )
            reports.append(json.loads(lines[-1]))

    t_drained = max(r["t_end"] for r in reports)
    out.update(setup_s=t_ready - t0, solve_s=t_drained - t_go,
               peak_rss_mb=max(r["peak_rss_mb"] for r in reports))
    if tracer is not None:
        merged = layers.merge_summaries([tracer.summary()] + [r["traced"] for r in reports])
        out["traced"] = {**merged,
                         "wall_s": (t_submitted - t_traced) + sum(r["loop_s"] for r in reports),
                         "solve_s": t_drained - t_go}
        with open(args.trace_file, "a", encoding="utf-8") as fh:
            for path in worker_spans:
                fh.write(path.read_text(encoding="utf-8"))

    # every job done, its conservation digest equal to the committed one,
    # and the computed/cached split as committed
    queue = JobQueue(queue_root)
    counts = queue.counts()
    hexes: dict[str, str] = {}
    bad = 0
    cached = 0
    done = queue.jobs("done")
    for job in done:
        key = workloads.job_digest_key(job.spec_doc)
        got = job.doc["result"]["conservation_last_hex"]
        cached += bool(job.doc["result"]["cached"])
        want = expected["conservation_last_hex"].get(key) if expected else hexes.get(key, got)
        hexes.setdefault(key, got)
        if got != want:
            bad += 1
            out["errors"].append(f"job {job.id} ({key}): conservation {got} != {want}")
    split = {"computed": len(done) - cached, "cached": cached,
             "failed": counts["failed"], "quarantined": counts["quarantine"]}
    out["failed"] = len(jobs) - len(done) + bad
    if len(done) < len(jobs):
        out["errors"].append(f"{len(jobs) - len(done)} job(s) not done: {counts}")
    if expected is not None and split != expected["split"]:
        out["errors"].append(f"split {split} != expected {expected['split']}")
    out["digests"] = {"conservation_last_hex": dict(sorted(hexes.items())), "split": split}


def _reap(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def worker_main(args) -> int:
    """The sweep's service worker: set up, report ready, drain on ``go``."""
    import repro.clamr  # noqa: F401 -- a job's imports belong to set-up
    import repro.ledger.runner  # noqa: F401
    import repro.self_  # noqa: F401
    from repro.service.worker import WorkerOptions, run_worker

    tracer = None
    if args.trace_file:
        tracer = layers.Tracer()
        layers.install(tracer, list(layers.FAMILIES))
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 1
    t_go = _now()
    run_worker(WorkerOptions(
        queue=Path(args.queue), ledger=Path(args.ledger), poll_s=POLL_S, drain=True,
    ))
    t_end = _now()
    result = {"t_end": t_end, "loop_s": t_end - t_go, "peak_rss_mb": _rss_mb()}
    if tracer is not None:
        result["traced"] = tracer.summary()
        layers.write_spans(args.trace_file, tracer.spans, os.getpid())
    print(json.dumps(result), flush=True)
    return 0


RUNNERS = {"clamr": run_clamr, "self_": run_self, "service": run_sweep}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--work", help="scratch directory of this repetition")
    parser.add_argument("--t0", type=float, default=None,
                        help="the parent's perf_counter() just before it started this process")
    parser.add_argument("--expected", default=None,
                        help="expected.json to check digests against (omit to record only)")
    parser.add_argument("--trace-file", default=None, help="trace layers; write spans here")
    parser.add_argument("--worker", action="store_true", help="run as a sweep service worker")
    parser.add_argument("--queue")
    parser.add_argument("--ledger")
    args = parser.parse_args(argv)
    if args.worker:
        return worker_main(args)
    if args.workload is None or args.work is None:
        parser.error("--workload and --work are required")

    w = workloads.WORKLOADS[args.workload]
    t0 = _T_START if args.t0 is None else args.t0
    tracer = layers.Tracer() if args.trace_file else None
    out = {"workload": w.name, "seed": args.seed, "size": args.size,
           "attempted": w.attempts, "failed": 0, "errors": []}
    try:
        RUNNERS[w.family](w, args, t0, tracer, out)
        if tracer is not None:
            _check_layers(out, w)
            layers.write_spans(args.trace_file, tracer.spans, os.getpid())
    except Exception as exc:  # noqa: BLE001 -- every failure becomes a reported result
        traceback.print_exc()
        out["errors"].append(f"{type(exc).__name__}: {exc}")
    if out["errors"] and out["failed"] == 0:
        out["failed"] = out["attempted"]
    out["ok"] = not out["errors"]
    print(json.dumps(out), flush=True)
    return 0 if out["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
