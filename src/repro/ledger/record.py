"""Run records: one run reduced to a fingerprinted, comparable summary.

A :class:`RunRecord` is the unit the ledger persists.  Its identity is
two hashes over canonical JSON:

``workload_key``
    Hash of (schema, workload, config, policy, seed) — *machine
    independent*, so a committed baseline recorded on one machine matches
    the same workload recorded on another.  Gating and trend grouping key
    on this.  The ``config`` payload is the simulation config dict plus a
    ``run`` sub-dict of the knobs that change the workload without living
    on the config dataclass — step count, flux scheme, kernel path
    (vectorized or scalar), watchpoint stride — so e.g. a 1000-step MUSCL
    run can never share an identity with the 40-step Rusanov baseline.
``fingerprint``
    ``workload_key`` inputs plus the machine spec and git sha — the full
    run identity.  Two records with equal fingerprints are re-runs of the
    same code on the same workload and machine, and (the determinism test
    asserts) carry bitwise-identical double-double conservation sums.

Wall-clock facts (timestamps, durations) are deliberately *excluded*
from both hashes: identity is what was run, not how long it took.

The kernel *backend* (``numpy`` oracle, ``python`` loops or compiled
``cext``) is likewise excluded from both hashes, by the same rule that keeps
``machine`` out of the workload key: backends are bit-identical by
contract (the parity suite enforces it), so switching one is an
implementation detail of *how fast* the run went, not *what* was run.
The resolved backend is still recorded on the ``backend`` field so a
ledger row says which implementation produced it; records written before
this field existed read back as ``"numpy"``.
"""

from __future__ import annotations

import json
import subprocess
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.ioutil import json_digest
from repro.telemetry import TelemetryBundle
from repro.workload import run_label

__all__ = [
    "LEDGER_SCHEMA_VERSION",
    "KernelSummary",
    "RunRecord",
    "fingerprint_of",
    "identity_config",
    "workload_key_of",
    "machine_spec",
    "git_sha",
    "kernel_summaries",
    "record_from_clamr",
    "record_from_self",
]

#: Bump on any backwards-incompatible record change; readers refuse newer.
LEDGER_SCHEMA_VERSION = 1

#: Hex digits kept from the sha256 digests (64 bits — plenty for a ledger).
_HASH_CHARS = 16


@dataclass(frozen=True)
class KernelSummary:
    """Aggregate of all spans sharing one name in a run."""

    calls: int
    total_s: float
    mean_ms: float
    flops: float
    state_bytes: float


@dataclass
class RunRecord:
    """One run's ledger entry; see the module docstring for identity rules."""

    schema: int
    fingerprint: str
    workload_key: str
    workload: str  # "clamr" | "self"
    label: str
    config: dict
    policy: str
    seed: int
    git_sha: str
    machine: dict
    created_unix: float
    wall_s: float
    kernel_s: float
    kernels: dict[str, KernelSummary]
    fidelity: dict = field(default_factory=dict)
    #: Kernel implementation that produced the run ("numpy", "cext",
    #: "python").  Provenance only — excluded from both hashes; see the
    #: module docstring.
    backend: str = "numpy"

    def to_json(self) -> str:
        doc = asdict(self)
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "RunRecord":
        return cls.from_dict(json.loads(line))

    @classmethod
    def from_dict(cls, doc: dict) -> "RunRecord":
        doc = dict(doc)
        schema = doc.get("schema")
        if not isinstance(schema, int) or schema > LEDGER_SCHEMA_VERSION:
            raise ValueError(
                f"ledger record schema {schema!r} is newer than supported "
                f"({LEDGER_SCHEMA_VERSION}); upgrade repro to read this ledger"
            )
        doc["kernels"] = {
            name: KernelSummary(**summary) for name, summary in doc["kernels"].items()
        }
        return cls(**doc)


def workload_key_of(workload: str, config: dict, policy: str, seed: int) -> str:
    """Machine-independent workload identity (see module docstring)."""
    return json_digest(
        {
            "schema": LEDGER_SCHEMA_VERSION,
            "workload": workload,
            "config": config,
            "policy": policy,
            "seed": seed,
        },
        _HASH_CHARS,
    )


def fingerprint_of(
    workload: str,
    config: dict,
    policy: str,
    seed: int,
    machine: dict,
    sha: str,
) -> str:
    """Full run identity: workload key inputs + machine spec + git sha."""
    return json_digest(
        {
            "schema": LEDGER_SCHEMA_VERSION,
            "workload": workload,
            "config": config,
            "policy": policy,
            "seed": seed,
            "machine": machine,
            "git_sha": sha,
        },
        _HASH_CHARS,
    )


_MACHINE: dict | None = None
_GIT_SHA: str | None = None


def machine_spec() -> dict:
    """The machine facts that enter the fingerprint (stable per process)."""
    global _MACHINE
    if _MACHINE is None:
        import platform

        _MACHINE = {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        }
    return _MACHINE


def git_sha() -> str:
    """HEAD commit of the working tree, or ``"unknown"`` outside a repo."""
    global _GIT_SHA
    if _GIT_SHA is None:
        try:
            _GIT_SHA = (
                subprocess.run(
                    ["git", "rev-parse", "HEAD"],
                    capture_output=True,
                    text=True,
                    timeout=5,
                    check=True,
                ).stdout.strip()
                or "unknown"
            )
        except (OSError, subprocess.SubprocessError):
            _GIT_SHA = "unknown"
    return _GIT_SHA


def kernel_summaries(tel) -> dict[str, KernelSummary]:
    """Per-span-name aggregates of a trace (see
    :meth:`~repro.telemetry.TelemetryBundle.span_totals`)."""
    return {
        name: KernelSummary(
            calls=count,
            total_s=total,
            mean_ms=1e3 * total / count if count else 0.0,
            flops=flops,
            state_bytes=nbytes,
        )
        for name, (count, total, flops, nbytes) in TelemetryBundle.of(tel).span_totals().items()
    }


def _fidelity_base(bundle: TelemetryBundle) -> dict:
    counts = bundle.event_counts()
    return {
        "nan_events": counts.get("nan", 0),
        "inf_events": counts.get("inf", 0),
        "overflow_risk_events": counts.get("overflow_risk", 0),
        "subnormal_events": counts.get("subnormal", 0),
        "cancellation_events": counts.get("cancellation", 0),
    }


def _attach_flight(cfg: dict, fidelity: dict, bundle: TelemetryBundle) -> None:
    """Fold an enabled flight recorder into run identity and fidelity.

    The recorder's *configuration* (base stride, capacity) joins the
    ``run`` sub-dict — sampling cadence changes what the run observes —
    and its digest joins the fidelity section.  Runs without a flight
    recorder are untouched, so every pre-flight baseline fingerprint
    stays valid.
    """
    flight = bundle.flight
    if flight is None or not flight.nsamples:
        return
    cfg["run"]["flight"] = {
        "stride": int(flight.base_stride),
        "capacity": int(flight.capacity),
    }
    from repro.telemetry.flight import flight_digest

    fidelity["flight"] = flight_digest(flight)


def _attach_ladder(cfg: dict, fidelity: dict, bundle: TelemetryBundle) -> None:
    """Fold an enabled state-hash ladder into run identity and fidelity.

    The ladder's *knobs* (stride, chunk) join the ``run`` sub-dict —
    hashing cadence changes what the run observes — and its digest
    (run root + step counts) joins the fidelity section, so two ledger
    records can be compared for bit-exactness without re-running.  Runs
    without a ladder are untouched, so every pre-ladder baseline
    fingerprint stays valid.
    """
    ladder = bundle.ladder
    if ladder is None or not ladder.nsteps:
        return
    cfg["run"]["hash_ladder"] = {
        "stride": int(ladder.stride),
        "chunk": int(ladder.chunk),
    }
    from repro.diverge.ladder import ladder_digest

    fidelity["state_hash"] = ladder_digest(ladder)


def _build(
    workload: str,
    config: dict,
    policy: str,
    seed: int,
    label: str,
    bundle: TelemetryBundle,
    wall_s: float,
    kernel_s: float,
    fidelity: dict,
    backend: str = "numpy",
) -> RunRecord:
    machine = machine_spec()
    sha = git_sha()
    return RunRecord(
        schema=LEDGER_SCHEMA_VERSION,
        fingerprint=fingerprint_of(workload, config, policy, seed, machine, sha),
        workload_key=workload_key_of(workload, config, policy, seed),
        workload=workload,
        label=label,
        config=config,
        policy=policy,
        seed=seed,
        git_sha=sha,
        machine=machine,
        created_unix=time.time(),
        wall_s=wall_s,
        kernel_s=kernel_s,
        kernels=kernel_summaries(bundle),
        fidelity=fidelity,
        backend=backend,
    )


def identity_config(
    workload: str,
    config,
    *,
    scenario: str = "",
    steps: int | None = None,
    watch_stride: int = 0,
    scheme: str = "rusanov",
    vectorized: bool = True,
) -> dict:
    """The ``config`` a run record hashes: the config in canonical JSON
    types, the ``"scenario"`` name if one ran, and — given ``steps`` — the
    ``run`` sub-dict (see the module docstring).

    The record builders call it after a run and ``JobSpec.config_payload``
    before one, so prediction and record share one recipe.  A caller that
    ran a scenario calls it without ``steps`` and hands the result to the
    record builders, which add the ``run`` sub-dict.
    """
    cfg = asdict(config) if not isinstance(config, dict) else dict(config)
    if scenario:
        cfg["scenario"] = scenario
    cfg = json.loads(json.dumps(cfg))  # tuples → lists, canonical JSON types
    if steps is not None:
        cfg["run"] = {"steps": int(steps), "watch_stride": int(watch_stride)}
        if workload == "clamr":
            cfg["run"].update(scheme=str(scheme), vectorized=bool(vectorized))
    return cfg


def record_from_clamr(result, tel, config, seed: int = 0, label: str = "") -> RunRecord:
    """Reduce one CLAMR run (+ its telemetry) to a :class:`RunRecord`.

    The conservation sums are stored both as floats and as ``float.hex()``
    strings: the hex form is the bitwise identity the determinism test
    compares, immune to JSON round-trip formatting.
    """
    from repro.precision.analysis import asymmetry_signature

    bundle = TelemetryBundle.of(tel)
    cfg = identity_config(
        "clamr",
        config,
        steps=result.steps,
        watch_stride=bundle.watch_stride,
        scheme=getattr(result, "scheme", "rusanov"),
        vectorized=getattr(result, "vectorized", True),
    )
    sig = asymmetry_signature(result.slice_precise)
    mass_first = float(result.mass_history[0]) if result.mass_history else 0.0
    mass_last = float(result.mass_history[-1]) if result.mass_history else 0.0
    fidelity = {
        **_fidelity_base(bundle),
        "mass_drift": float(result.mass_drift),
        "conservation_first": mass_first,
        "conservation_last": mass_last,
        "conservation_first_hex": mass_first.hex(),
        "conservation_last_hex": mass_last.hex(),
        "asymmetry_max": sig.max_abs,
        "asymmetry_relative": sig.relative_max,
        "solution_scale": sig.relative_to,
    }
    _attach_flight(cfg, fidelity, bundle)
    _attach_ladder(cfg, fidelity, bundle)
    from repro.clamr.backends import resolved_backend

    # an unvectorized run steps on the python loops whatever is selected
    if cfg["run"]["vectorized"]:
        backend = resolved_backend(result.policy.compute_dtype)
    else:
        backend = "python"
    policy = result.policy.level.value
    return _build(
        workload="clamr",
        config=cfg,
        policy=policy,
        seed=seed,
        label=label or run_label("clamr", steps=result.steps, policy=policy, nx=cfg.get("nx"),
                                 scheme=cfg["run"]["scheme"], scenario=cfg.get("scenario", "")),
        bundle=bundle,
        wall_s=float(result.elapsed_s),
        kernel_s=float(result.kernel_elapsed_s),
        fidelity=fidelity,
        backend=backend,
    )


def record_from_self(result, tel, config, seed: int = 0, label: str = "") -> RunRecord:
    """Reduce one SELF run (+ its telemetry) to a :class:`RunRecord`.

    SELF has no running mass history; the conservation sum is the
    double-double total of the final density-anomaly field, which is just
    as deterministic and serves the same bitwise-identity role.
    """
    from repro.precision.analysis import asymmetry_signature
    from repro.sums.doubledouble import dd_sum

    bundle = TelemetryBundle.of(tel)
    cfg = identity_config("self", config, steps=result.steps, watch_stride=bundle.watch_stride)
    sig = asymmetry_signature(result.slice_precise)
    conserved = float(dd_sum(np.asarray(result.anomaly_field, dtype=np.float64).ravel()))
    fidelity = {
        **_fidelity_base(bundle),
        "mass_drift": 0.0,
        "conservation_first": conserved,
        "conservation_last": conserved,
        "conservation_first_hex": conserved.hex(),
        "conservation_last_hex": conserved.hex(),
        "asymmetry_max": sig.max_abs,
        "asymmetry_relative": sig.relative_max,
        "solution_scale": sig.relative_to,
        "max_vertical_velocity": float(result.max_vertical_velocity),
    }
    _attach_flight(cfg, fidelity, bundle)
    _attach_ladder(cfg, fidelity, bundle)
    from repro.clamr.backends import resolved_backend

    return _build(
        workload="self",
        config=cfg,
        policy=result.precision,
        seed=seed,
        label=label or run_label("self", steps=result.steps, policy=result.precision,
                                 elems=cfg.get("nex"), order=cfg.get("order"),
                                 scenario=cfg.get("scenario", "")),
        bundle=bundle,
        wall_s=float(result.elapsed_s),
        kernel_s=float(result.kernel_elapsed_s),
        fidelity=fidelity,
        backend=resolved_backend(),
    )
