"""Run, validate, fingerprint and gate registered scenarios.

A scenario run is a :class:`~repro.service.JobSpec`: :func:`scenario_spec`
maps a scenario and a scale to one, and the spec builds and runs it like
any other (``spec.simulation()``, :func:`repro.ledger.run_workload`):

* :func:`validate_scenario` — run, then apply the scenario's acceptance
  checks (the physics contract).
* :func:`record_scenario` — run under telemetry to a ledger
  :class:`~repro.ledger.record.RunRecord` whose config carries the
  scenario name, so every scenario owns a distinct ``workload_key``
  (which the spec predicts before the run).
* :func:`gate_scenarios` — re-run each scenario and compare its fresh
  identity + bitwise conservation digests against the committed golden
  records; any drift (or a missing golden) fails the gate.

Golden comparisons use only machine-independent fields: the
``workload_key`` (workload identity) and the ``conservation_*_hex``
digests (bitwise fidelity).  Fingerprints proper include the machine
spec and git sha and are deliberately *not* gated on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterable

from repro.harness.paper import ShapeCheck
from repro.scenarios.registry import Scenario, get_scenario, scenario_names

__all__ = [
    "GOLDEN_SCALE",
    "ScenarioRun",
    "scenario_spec",
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

    spec: Any
    sim: Any
    result: Any


def scenario_spec(scenario: str | Scenario, scale: str = GOLDEN_SCALE,
                  policy: str | None = None):
    """The :class:`~repro.service.JobSpec` of ``scenario`` at ``scale``.

    The scale's sizes and steps, at ``policy`` (default: the scenario's
    fingerprint policy), watching every 8 steps as the golden records
    do, labelled ``scenario/<name>/<scale>``.  Labels never enter a hash.
    """
    from repro.service.jobs import JobSpec

    sc = scenario if isinstance(scenario, Scenario) else get_scenario(scenario)
    spec = JobSpec(sc.family, scenario=sc.name, watch_stride=8,
                   label=f"scenario/{sc.name}/{scale}", **sc.scale(scale))
    return spec.at_level(policy or sc.fingerprint_policy)


def validate_scenario(
    scenario: str | Scenario,
    scale: str = GOLDEN_SCALE,
    policy: str | None = None,
) -> tuple[ScenarioRun, list[ShapeCheck]]:
    """Run the scenario and apply its acceptance contract."""
    spec = scenario_spec(scenario, scale, policy)
    sim = spec.simulation()
    run = ScenarioRun(spec=spec, sim=sim, result=sim.run(spec.steps))
    acceptance = get_scenario(spec.scenario).acceptance
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
    from repro.ledger.runner import run_workload

    return run_workload(replace(scenario_spec(scenario, scale, policy), seed=seed))[0]


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
