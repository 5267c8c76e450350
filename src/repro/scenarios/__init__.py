"""Scenario library: named workload cases with golden fingerprints.

See :mod:`repro.scenarios.registry` for the data model,
:mod:`repro.scenarios.clamr_cases` / :mod:`repro.scenarios.self_cases`
for the built-in library, and :mod:`repro.scenarios.runner` for the
run/validate/record/gate entry points the CLI exposes as
``repro scenario ...``.
"""

from repro.scenarios.registry import (
    Scenario,
    all_scenarios,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.scenarios.runner import (
    GOLDEN_SCALE,
    ScenarioRun,
    build_config,
    build_simulation,
    gate_scenarios,
    load_golden_records,
    record_scenario,
    run_scenario,
    validate_scenario,
)

__all__ = [
    "Scenario",
    "ScenarioRun",
    "GOLDEN_SCALE",
    "all_scenarios",
    "build_config",
    "build_simulation",
    "gate_scenarios",
    "get_scenario",
    "load_golden_records",
    "record_scenario",
    "register_scenario",
    "run_scenario",
    "scenario_names",
    "validate_scenario",
]
