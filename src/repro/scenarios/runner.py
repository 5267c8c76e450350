"""Build, run, validate, fingerprint and gate registered scenarios.

The one place that knows how to turn a :class:`Scenario` into a live
simulation and back into evidence:

* :func:`run_scenario` — build the family driver with the scenario's
  hooks and advance it one scale's worth of steps.
* :func:`validate_scenario` — run, then apply the scenario's acceptance
  checks (the physics contract).
* :func:`record_scenario` — run under telemetry and mint a ledger
  :class:`~repro.ledger.record.RunRecord` whose config carries the
  scenario name, so every scenario owns a distinct ``workload_key``.
* :func:`gate_scenarios` — re-run each scenario and compare its fresh
  identity + bitwise conservation digests against the committed golden
  records; any drift (or a missing golden) fails the gate.

Golden comparisons use only machine-independent fields: the
``workload_key`` (workload identity) and the ``conservation_*_hex``
digests (bitwise fidelity).  Fingerprints proper include the machine
spec and git sha and are deliberately *not* gated on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from repro.harness.paper import ShapeCheck
from repro.scenarios.registry import Scenario, get_scenario, scenario_names
from repro.workload import make_config, make_simulation

__all__ = [
    "GOLDEN_SCALE",
    "ScenarioRun",
    "build_config",
    "build_simulation",
    "run_scenario",
    "validate_scenario",
    "record_scenario",
    "load_golden_records",
    "gate_scenarios",
]

#: The scale golden ledger records are minted at (and gated against).
GOLDEN_SCALE = "quick"


@dataclass
class ScenarioRun:
    """One executed scenario: everything acceptance checks need."""

    scenario: Scenario
    scale: str
    policy: str
    config: Any
    steps: int
    sim: Any
    result: Any


def _resolve(scenario: str | Scenario) -> Scenario:
    return scenario if isinstance(scenario, Scenario) else get_scenario(scenario)


def build_config(scenario: str | Scenario, scale: str = GOLDEN_SCALE):
    """The family config dataclass + step count for one scale."""
    sc = _resolve(scenario)
    size = sc.scale(scale)
    steps = int(size.pop("steps"))
    sizes = {key: int(value) for key, value in size.items()}
    return make_config(sc.family, sc, **sizes), steps


def build_simulation(
    scenario: str | Scenario,
    scale: str = GOLDEN_SCALE,
    policy: str | None = None,
    telemetry=None,
    vectorized: bool = True,
):
    """A ready-to-run driver with the scenario's hooks installed."""
    sc = _resolve(scenario)
    policy = policy or sc.fingerprint_policy
    cfg, steps = build_config(sc, scale)
    sim = make_simulation(
        sc.family, cfg, policy=policy, vectorized=vectorized, telemetry=telemetry,
        scenario=sc,
    )
    return sim, cfg, steps, policy


def run_scenario(
    scenario: str | Scenario,
    scale: str = GOLDEN_SCALE,
    policy: str | None = None,
    telemetry=None,
    vectorized: bool = True,
) -> ScenarioRun:
    sc = _resolve(scenario)
    sim, cfg, steps, policy = build_simulation(
        sc, scale=scale, policy=policy, telemetry=telemetry, vectorized=vectorized
    )
    return ScenarioRun(
        scenario=sc, scale=scale, policy=policy, config=cfg, steps=steps, sim=sim,
        result=sim.run(steps),
    )


def validate_scenario(
    scenario: str | Scenario,
    scale: str = GOLDEN_SCALE,
    policy: str | None = None,
    vectorized: bool = True,
) -> tuple[ScenarioRun, list[ShapeCheck]]:
    """Run the scenario and apply its acceptance contract."""
    run = run_scenario(scenario, scale=scale, policy=policy, vectorized=vectorized)
    acceptance = run.scenario.acceptance
    checks = list(acceptance(run)) if acceptance is not None else []
    return run, checks


def record_scenario(
    scenario: str | Scenario,
    scale: str = GOLDEN_SCALE,
    policy: str | None = None,
    seed: int = 0,
):
    """Run under telemetry and reduce to a ledger record.

    The scenario name joins the config payload, so the ``workload_key``
    of e.g. ``clamr/lake-at-rest`` can never collide with the seed dam
    break at the same grid size.  (The scale itself is not part of the
    identity — the sizes it resolves to already are.)
    """
    from repro.ledger.record import identity_config, record_from_clamr, record_from_self
    from repro.telemetry import TelemetrySpec

    sc = _resolve(scenario)
    label = f"scenario/{sc.name}/{scale}"
    tel = TelemetrySpec(label=label).build()
    run = run_scenario(sc, scale=scale, policy=policy, telemetry=tel)
    cfg = identity_config(sc.family, run.config, scenario=sc.name)
    to_record = record_from_clamr if sc.family == "clamr" else record_from_self
    return to_record(run.result, tel, cfg, seed=seed, label=label)


#: Machine-independent fidelity digests gated bitwise against the goldens.
_GOLDEN_HEXES = ("conservation_first_hex", "conservation_last_hex")


def load_golden_records(path) -> dict[str, Any]:
    """Scenario-name → committed golden record, from a ledger jsonl file."""
    from repro.ledger.record import RunRecord

    goldens: dict[str, Any] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = RunRecord.from_json(line)
            name = record.config.get("scenario")
            if name:
                # last record per scenario wins, matching ledger append semantics
                goldens[name] = record
    return goldens


def gate_scenarios(
    baseline_path,
    names: Iterable[str] | None = None,
    scale: str = GOLDEN_SCALE,
) -> list[ShapeCheck]:
    """Fresh-run every scenario and diff identity + fidelity vs the goldens."""
    goldens = load_golden_records(baseline_path)
    out: list[ShapeCheck] = []
    for name in names if names is not None else scenario_names():
        golden = goldens.get(name)
        if golden is None:
            out.append(
                ShapeCheck(
                    name=f"{name}/golden",
                    claim="a committed golden record exists",
                    passed=False,
                    evidence=f"no golden record for {name!r} in {baseline_path}",
                )
            )
            continue
        fresh = record_scenario(name, scale=scale)
        identity_ok = fresh.workload_key == golden.workload_key
        out.append(
            ShapeCheck(
                name=f"{name}/identity",
                claim="workload identity matches the committed golden",
                passed=identity_ok,
                evidence=f"fresh {fresh.workload_key} vs golden {golden.workload_key}",
            )
        )
        for key in _GOLDEN_HEXES:
            fresh_hex = fresh.fidelity.get(key)
            golden_hex = golden.fidelity.get(key)
            out.append(
                ShapeCheck(
                    name=f"{name}/{key.replace('_hex', '')}",
                    claim="conservation digest is bit-identical to the golden",
                    passed=fresh_hex == golden_hex,
                    evidence=f"fresh {fresh_hex} vs golden {golden_hex}",
                )
            )
    return out
