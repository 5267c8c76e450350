"""One recipe from a run request to a run.

Every door into the paper's experiment — run a mini-app at a precision
level — builds its run here: ``repro.ledger.run_workload``, the sweep
service's ``JobSpec``, the scenario runner, the harness sweeps, the
resilience adapters and campaigns, ``diverge record`` and the CLI.  So
one request (workload, sizes, optional scenario, precision, flux scheme)
means one run whichever door it came through.  The hashed identity of
the finished run is :func:`repro.ledger.record.identity_config`.

The scenario registry is imported only when a scenario is named, so a
plain run (a sweep-service job, say) never loads the case library.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "CLAMR_POLICIES",
    "WORKLOADS",
    "make_config",
    "make_simulation",
    "resolve_scenario",
    "run_label",
    "self_precision",
]

#: The two mini-apps, by workload name.
WORKLOADS = ("clamr", "self")

#: CLAMR's precision levels, least precise first: every run flag offers these.
CLAMR_POLICIES = ("half", "min", "mixed", "full")

#: CLAMR precision levels on SELF's single/double axis.
_CLAMR_TO_SELF = {"half": "single", "min": "single", "mixed": "single", "full": "double"}


def _check_workload(workload: str) -> None:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; use 'clamr' or 'self'")


def self_precision(policy: str) -> str:
    """SELF's precision for a level name on either axis.

    CLAMR's ``half``/``min``/``mixed`` run single, ``full`` runs double;
    SELF's own names (``single``, ``double``, ...) pass through.
    """
    return _CLAMR_TO_SELF.get(policy, policy)


def resolve_scenario(scenario: Any, workload: str = ""):
    """The scenario named (or given); ``None`` for the seed case.

    An unknown name raises the registry's one-line error; given a
    ``workload``, a scenario of the other mini-app raises the one
    family-mismatch error.  The registry loads only for a name.
    """
    if not scenario:
        return None
    if isinstance(scenario, str):
        from repro.scenarios.registry import get_scenario

        scenario = get_scenario(scenario)
    if workload and scenario.family != workload:
        raise ValueError(
            f"scenario {scenario.name!r} belongs to workload {scenario.family!r}, "
            f"not {workload!r}"
        )
    return scenario


def _scenario(workload: str, scenario: Any = None):
    _check_workload(workload)
    return resolve_scenario(scenario, workload)


def make_config(
    workload: str,
    scenario: Any = None,
    *,
    nx: int | None = None,
    max_level: int | None = None,
    elems: int | None = None,
    order: int | None = None,
    **fields: Any,
):
    """The family config dataclass: sizes, then ``fields``, then the scenario.

    CLAMR takes ``nx`` (square grid) and ``max_level``; SELF takes
    ``elems`` (cube of elements) and ``order``.  A size left at ``None``
    keeps the dataclass default.
    """
    sc = _scenario(workload, scenario)
    if workload == "clamr":
        from repro.clamr import DamBreakConfig as config_cls

        sizes = {"nx": nx, "ny": nx, "max_level": max_level}
    else:
        from repro.self_ import ThermalBubbleConfig as config_cls

        sizes = {"nex": elems, "ney": elems, "nez": elems, "order": order}
    kwargs = {key: value for key, value in sizes.items() if value is not None}
    kwargs.update(fields)
    if sc is not None:
        kwargs.update(sc.config)
    return config_cls(**kwargs)


def make_simulation(
    workload: str,
    config,
    *,
    policy,
    scheme: str = "rusanov",
    vectorized: bool = True,
    telemetry=None,
    scenario: Any = None,
):
    """The driver for ``config``, with the scenario's IC/bathymetry hooks.

    The flux scheme is always the caller's; ``scheme`` and ``vectorized``
    apply to CLAMR only.  For SELF, ``policy`` may be a level on either
    axis (see :func:`self_precision`).
    """
    sc = _scenario(workload, scenario)
    ic = sc.ic if sc is not None else None
    if workload == "clamr":
        from repro.clamr import ClamrSimulation

        bathymetry = sc.bathymetry if sc is not None else None
        return ClamrSimulation(config, policy=policy, vectorized=vectorized, scheme=scheme,
                               telemetry=telemetry, ic=ic, bathymetry=bathymetry)
    from repro.self_ import SelfSimulation

    return SelfSimulation(config, precision=self_precision(policy), telemetry=telemetry, ic=ic)


def run_label(
    workload: str,
    *,
    steps: int,
    policy: str,
    nx: int | None = None,
    elems: int | None = None,
    order: int | None = None,
    scheme: str = "rusanov",
    scenario: str = "",
) -> str:
    """``clamr/nx{nx}s{steps}/{policy}[/{scheme}]`` or
    ``self/e{elems}o{order}s{steps}/{precision}``; a scenario name
    replaces the leading workload name.  Labels never enter a hash.
    """
    _check_workload(workload)
    if workload == "clamr":
        variant = "" if scheme == "rusanov" else f"/{scheme}"
        return f"{scenario or workload}/nx{nx}s{steps}/{policy}{variant}"
    return f"{scenario or workload}/e{elems}o{order}s{steps}/{policy}"
