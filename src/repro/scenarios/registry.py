"""The scenario registry: named, validated workload configurations.

A :class:`Scenario` bundles everything that defines one reproducible
case of a mini-app — the initial condition, the bathymetry (CLAMR only),
the config overrides that make the case well-posed, the run scales, and
the acceptance checks that say what "correct" means for *this* physics:

* a lake at rest over variable bathymetry must stay at rest to the last
  ulp of the state dtype;
* a circular dam break must stay radially symmetric;
* everything else must at least conserve mass and keep depths positive.

Scenarios are identified by *name* (``"clamr/lake-at-rest"``).  Every
consumer — the CLI, the sweep executor's worker processes, the
resilience adapters, the divergence recorder — hands the name to a
:class:`~repro.service.JobSpec`, which resolves it through
:func:`get_scenario` in its own process, so scenario-parameterised tasks stay picklable: only
the string crosses process boundaries.

Builders (``ic``/``bathymetry``/``acceptance``) are module-level
functions in :mod:`repro.scenarios.clamr_cases` and
:mod:`repro.scenarios.self_cases`; registering a scenario with closures
would break process-parallel sweeps and is refused.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

__all__ = [
    "Scenario",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "all_scenarios",
]

#: Scales every scenario must define: the harness validates both.
REQUIRED_SCALES = ("quick", "bench")


@dataclass(frozen=True)
class Scenario:
    """One named workload case; see the module docstring.

    Parameters
    ----------
    name:
        Registry key, ``"<family>/<case>"`` (e.g. ``"clamr/circular-dam"``).
    family:
        ``"clamr"`` or ``"self"`` — which mini-app runs the case.
    description:
        One line for ``repro scenario list``.
    ic:
        Initial-condition hook passed to the simulation constructor, or
        ``None`` for the driver's built-in seed IC.  CLAMR signature
        ``ic(cfg, x, y) -> (H, U, V)``; SELF ``ic(cfg, x, y, z) -> dtheta``.
    bathymetry:
        CLAMR bottom topography ``b(cfg, x, y)`` in float64, or ``None``
        for a flat bottom (which keeps the flat-bottom kernels bit-exact
        with the pre-scenario code).
    config:
        Overrides applied on top of the family config dataclass defaults
        (e.g. ``{"max_level": 0}`` for the uniform lake-at-rest mesh).
    scales:
        Mapping scale name → :class:`~repro.service.JobSpec` sizes and
        steps.  CLAMR scales carry ``nx``/``steps`` (and ``max_level``
        where ``config`` sets none); SELF scales carry
        ``elems``/``order``/``steps``.
    acceptance:
        ``fn(run: ScenarioRun) -> list[ShapeCheck]`` — the physics
        contract this scenario is validated against.
    fingerprint_policy:
        Precision level the golden ledger record is minted at.
    symmetry:
        Declared discrete symmetry of the case (``"mirror-x"``,
        ``"mirror-y"``, ``"rot90"`` or ``None``); property tests assert
        the IC honours it.

    A scenario defines the *problem*, never the numerical method: the
    CLAMR flux scheme is the caller's choice, a field of the
    :class:`~repro.service.JobSpec` that runs it, so one ``--scenario``
    means the same case through every door.
    """

    name: str
    family: str
    description: str
    ic: Callable[..., Any] | None = None
    bathymetry: Callable[..., Any] | None = None
    config: Mapping[str, Any] = field(default_factory=dict)
    scales: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    acceptance: Callable[..., Any] | None = None
    fingerprint_policy: str = "mixed"
    symmetry: str | None = None

    def scale(self, name: str) -> dict[str, Any]:
        """The size kwargs for one scale, as a fresh dict."""
        try:
            return dict(self.scales[name])
        except KeyError:
            raise ValueError(
                f"scenario {self.name!r} has no scale {name!r}; "
                f"available: {sorted(self.scales)}"
            ) from None


_REGISTRY: dict[str, Scenario] = {}
_BUILTIN_LOADED = False


def register_scenario(scenario: Scenario) -> Scenario:
    """Add a scenario to the registry; returns it for decorator-ish use."""
    if scenario.family not in ("clamr", "self"):
        raise ValueError(f"unknown scenario family {scenario.family!r}")
    if not scenario.name.startswith(scenario.family + "/"):
        raise ValueError(
            f"scenario name {scenario.name!r} must be prefixed by its family "
            f"({scenario.family!r}/...)"
        )
    for scale in REQUIRED_SCALES:
        if scale not in scenario.scales:
            raise ValueError(f"scenario {scenario.name!r} is missing scale {scale!r}")
    for hook in (scenario.ic, scenario.bathymetry):
        if hook is not None:
            try:
                pickle.dumps(hook)
            except Exception as exc:
                raise ValueError(
                    f"scenario {scenario.name!r} hook {hook!r} is not picklable; "
                    "use a module-level function so process-parallel sweeps work"
                ) from exc
    if scenario.name in _REGISTRY:
        raise ValueError(f"scenario {scenario.name!r} is already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def _load_builtin() -> None:
    """Import the case modules once; they self-register on import."""
    global _BUILTIN_LOADED
    if _BUILTIN_LOADED:
        return
    _BUILTIN_LOADED = True
    from repro.scenarios import clamr_cases, self_cases  # noqa: F401


def get_scenario(name: str) -> Scenario:
    """Resolve a scenario by name, loading the built-in library on demand."""
    _load_builtin()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; available: {', '.join(scenario_names())}"
        ) from None


def scenario_names() -> list[str]:
    """All registered names, CLAMR family first, stable order."""
    _load_builtin()
    return sorted(_REGISTRY, key=lambda n: (0 if n.startswith("clamr/") else 1, n))


def all_scenarios() -> list[Scenario]:
    return [_REGISTRY[n] for n in scenario_names()]
