"""The vocabulary of a run request, below :class:`repro.service.JobSpec`.

A run — a mini-app at a precision level — is a ``JobSpec``, and
:meth:`JobSpec.config <repro.service.JobSpec.config>` /
:meth:`JobSpec.simulation <repro.service.JobSpec.simulation>` build it.
This module holds what that request is made of and what the ledger and
CLI share with it: the workload and precision-level names,
:func:`resolve_scenario` (the one family check), :func:`self_precision`
(a level on SELF's single/double axis) and :func:`run_label`.

The scenario registry is imported only when a scenario is named, so a
plain run (a sweep-service job, say) never loads the case library.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "CLAMR_POLICIES",
    "WORKLOADS",
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
