"""The five end-to-end workloads: names, sizes, seeds and expected layers.

Standard library only, so the orchestrator (``run.py``) can read the
definitions without importing numpy or the program.  ``child.py`` turns a
definition plus a seed into inputs and runs them.

Seed 0 is the committed configuration of every workload and its outputs
are bit-checked against ``expected.json``.  A seed s != 0 moves the dam
column, the lake hump or the bubble centre by less than one cell (see
:func:`cell_offset`), or, for the sweep, shuffles the submission order and
sets each job's seed; the physics checks still apply to every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from layers import FAMILIES

__all__ = [
    "WORKLOADS",
    "Workload",
    "cell_offset",
    "job_digest_key",
    "size_of",
    "sweep_jobs",
]


@dataclass(frozen=True)
class Workload:
    """One named workload.

    ``family`` names the layer group it exercises (see ``layers.FAMILIES``);
    ``backend`` is the kernel backend it names, and a run that resolves to
    any other backend fails; ``params`` fixes the precision, scheme and
    scenario; ``sizes`` holds the ``full`` and ``smoke`` problem sizes;
    ``expected_layers`` must each record at least one call in the traced
    pass; ``attempts`` is the number of attempts one repetition makes (jobs
    for the sweep).
    """

    name: str
    family: str
    backend: str
    why: str
    params: dict
    sizes: dict
    expected_layers: tuple[str, ...]
    attempts: int = 1


def _layers(family: str, *exclude: str) -> tuple[str, ...]:
    return tuple(
        f"{module}.{qualname}"
        for module, qualname in FAMILIES[family]
        if f"{module}.{qualname}" not in exclude
    )


#: the sweep's job grid: 16 CLAMR + 4 SELF unique runs, two job seeds each
SWEEP_POLICIES = ("half", "min", "mixed", "full")
SWEEP_SCHEMES = ("rusanov", "muscl")
SWEEP_PRECISIONS = ("single", "double")
#: the 7 duplicates, as (family, policy-or-precision, scheme) of the first
#: job seed; each is served from the result cache once its twin finishes
SWEEP_DUPLICATES = (
    ("clamr", "half", "rusanov"),
    ("clamr", "min", "rusanov"),
    ("clamr", "mixed", "rusanov"),
    ("clamr", "full", "rusanov"),
    ("clamr", "min", "muscl"),
    ("clamr", "full", "muscl"),
    ("self", "double", ""),
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="clamr-dambreak-64l2",
            family="clamr",
            backend="numpy",
            params={"scenario": "clamr/dam-break", "policy": "min", "scheme": "rusanov"},
            why="paper Figs 1-2 fidelity run (64x64, 2 AMR levels, min, Rusanov, "
                "1000 steps): the AMR, mesh and mass-sum layers carry most of the time",
            sizes={
                "full": {"nx": 64, "max_level": 2, "steps": 1000},
                "smoke": {"nx": 16, "max_level": 2, "steps": 40},
            },
            expected_layers=_layers("clamr", "clamr.muscl.finite_diff_muscl"),
        ),
        Workload(
            name="clamr-muscl-128l2",
            family="clamr",
            backend="cext",
            params={"scenario": "clamr/dam-break", "policy": "full", "scheme": "muscl"},
            why="128x128 L2 MUSCL at full precision on the compiled cext kernel: "
                "shows how much of a kernel gain reaches the whole run",
            sizes={
                "full": {"nx": 128, "max_level": 2, "steps": 150},
                "smoke": {"nx": 16, "max_level": 2, "steps": 12},
            },
            expected_layers=_layers("clamr", "clamr.kernels.finite_diff_vectorized"),
        ),
        Workload(
            name="clamr-lake-128",
            family="clamr",
            backend="numpy",
            params={"scenario": "clamr/lake-at-rest", "policy": "mixed", "scheme": "rusanov",
                    "acceptance": True},
            why="uniform 128x128 lake at rest, mixed precision, 600 steps: flux and "
                "CFL only, no regrid, so AMR/mesh/mass-sum changes must not move it",
            sizes={
                "full": {"nx": 128, "max_level": 0, "steps": 600},
                "smoke": {"nx": 16, "max_level": 0, "steps": 24},
            },
            expected_layers=(
                "clamr.kernels.finite_diff_vectorized",
                "clamr.kernels.compute_timestep",
                "clamr.state.ShallowWaterState.total_mass",
            ),
        ),
        Workload(
            name="self-bubble-6o4",
            family="self_",
            backend="numpy",
            params={"precision": "double"},
            why="SELF thermal bubble, 6^3 elements, order 4, double, 40 steps: a "
                "separate code family that CLAMR changes must not move",
            sizes={
                "full": {"elems": 6, "order": 4, "steps": 40},
                "smoke": {"elems": 2, "order": 3, "steps": 4},
            },
            expected_layers=_layers("self_"),
        ),
        Workload(
            name="sweep-service-2w",
            family="service",
            backend="numpy",
            params={},
            why="27-job closed batch (20 unique + 7 duplicates) drained by 2 service "
                "workers: the only queue/lease/cache/ledger workload, and both cores",
            sizes={
                "full": {"nx": 32, "max_level": 1, "clamr_steps": 120,
                         "elems": 3, "order": 3, "self_steps": 20},
                "smoke": {"nx": 8, "max_level": 1, "clamr_steps": 8,
                          "elems": 2, "order": 2, "self_steps": 2},
            },
            expected_layers=_layers("service"),
            attempts=2 * (len(SWEEP_POLICIES) * len(SWEEP_SCHEMES) + len(SWEEP_PRECISIONS))
            + len(SWEEP_DUPLICATES),
        ),
    )
}


def size_of(name: str, size: str) -> dict:
    """The size parameters of workload ``name`` at ``"full"`` or ``"smoke"``."""
    return dict(WORKLOADS[name].sizes[size])


def cell_offset(name: str, seed: int) -> tuple[float, float, float]:
    """Per-seed displacement of the initial feature, in cells, each |d| < 0.25.

    Seed 0 is exactly (0, 0, 0): the committed configuration.  A quarter
    cell at most keeps the amount of work (AMR cell counts) close across
    seeds while still changing every output bit.
    """
    if seed == 0:
        return (0.0, 0.0, 0.0)
    rng = random.Random(f"{name}:{seed}")
    return tuple(rng.uniform(-0.25, 0.25) for _ in range(3))


def sweep_jobs(size: str, seed: int) -> list[dict]:
    """The sweep's job specs (``JobSpec`` keyword dicts) in submission order.

    Job seeds are ``2s`` and ``2s+1``; they join each job's workload key
    but not its physics, so the conservation digests do not depend on the
    seed.  Seed 0 submits in the canonical order below; other seeds shuffle.
    """
    sz = size_of("sweep-service-2w", size)
    clamr = {"nx": sz["nx"], "max_level": sz["max_level"], "steps": sz["clamr_steps"]}
    selfk = {"elems": sz["elems"], "order": sz["order"], "steps": sz["self_steps"]}
    job_seeds = (2 * seed, 2 * seed + 1)
    jobs = [
        {"workload": "clamr", "policy": p, "scheme": s, "seed": js, **clamr}
        for p in SWEEP_POLICIES
        for s in SWEEP_SCHEMES
        for js in job_seeds
    ]
    jobs += [
        {"workload": "self", "precision": p, "seed": js, **selfk}
        for p in SWEEP_PRECISIONS
        for js in job_seeds
    ]
    for family, level, scheme in SWEEP_DUPLICATES:
        if family == "clamr":
            jobs.append({"workload": "clamr", "policy": level, "scheme": scheme,
                         "seed": job_seeds[0], **clamr})
        else:
            jobs.append({"workload": "self", "precision": level, "seed": job_seeds[0],
                         **selfk})
    if seed != 0:
        random.Random(f"sweep-service-2w:{seed}").shuffle(jobs)
    return jobs


def job_digest_key(job: dict) -> str:
    """``family/policy/scheme`` (CLAMR) or ``self/precision``: the digest key."""
    if job["workload"] == "clamr":
        return f"clamr/{job['policy']}/{job['scheme']}"
    return f"self/{job['precision']}"
