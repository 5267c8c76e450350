"""Scenario library: named workload cases with golden fingerprints.

See :mod:`repro.scenarios.registry` for the data model,
:mod:`repro.scenarios.clamr_cases` / :mod:`repro.scenarios.self_cases`
for the built-in library, and :mod:`repro.scenarios.runner` for the
run description (:func:`scenario_spec`, a JobSpec) and the
validate/record/gate entry points the CLI exposes as ``repro scenario ...``.
"""

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "Scenario": "repro.scenarios.registry",
    "ScenarioRun": "repro.scenarios.runner",
    "GOLDEN_SCALE": "repro.scenarios.runner",
    "all_scenarios": "repro.scenarios.registry",
    "gate_scenarios": "repro.scenarios.runner",
    "get_scenario": "repro.scenarios.registry",
    "load_golden_records": "repro.scenarios.runner",
    "record_scenario": "repro.scenarios.runner",
    "register_scenario": "repro.scenarios.registry",
    "scenario_names": "repro.scenarios.registry",
    "scenario_spec": "repro.scenarios.runner",
    "validate_scenario": "repro.scenarios.runner",
})
