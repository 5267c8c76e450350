"""Uniform supervision adapters over the two mini-app drivers.

The :class:`repro.resilience.runner.ResilientRunner` needs five things
from a simulation: advance one step, expose named state arrays for
injection/scanning, snapshot/restore in memory, report a conserved
total, and apply recovery actions (dt halving, precision escalation).
Neither driver exposes that surface directly, so each gets an adapter:

* :class:`ClamrAdapter` — CLAMR dam break.  Arrays ``H``/``U``/``V``;
  snapshots carry (mesh, state copy, time, step count, policy, config);
  escalation walks min → mixed → full through
  :class:`repro.precision.policy.PrecisionPolicy`; dt halving halves the
  Courant number.
* :class:`SelfAdapter` — SELF thermal bubble.  Arrays are views into
  the conserved tensor (``rho``/``rhou``/``rhov``/``rhow``/``rhoE``),
  so injections hit the live state; escalation is single → double and
  *rebuilds the solver* at the new dtype (the operators are typed);
  dt halving likewise halves the Courant number.

Both are built from the run's :class:`repro.service.JobSpec` (through
:meth:`JobSpec.simulation`, as every door builds a run), keep it as
``spec`` — it travels by value, so adapters stay picklable for
process-parallel campaigns, and a scenario resolves in-process by name —
and keep the config the run started from as ``config``.  Both accumulate
wall/kernel seconds and a conserved-total history across the chunked
``run()`` calls, and patch the final driver result so one coherent
``SimulationResult``/``SelfResult`` — including replayed work in its
timings — reaches the ledger.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.precision.breakdown import NonFiniteStepError
from repro.precision.policy import PrecisionLevel, PrecisionPolicy

__all__ = ["ClamrAdapter", "SelfAdapter", "make_adapter"]

#: Escalation ladder of CLAMR precision levels, least to most precise.
_CLAMR_LADDER = (
    PrecisionLevel.HALF,
    PrecisionLevel.MIN,
    PrecisionLevel.MIXED,
    PrecisionLevel.FULL,
)


def _advance(adapter, steps: int, **run_kwargs) -> None:
    """Run ``steps`` steps of ``adapter.sim``, accumulating its timings.

    Corrupted state may legitimately produce invalid-op warnings on the
    way to detection, and a state that can no longer give a timestep
    raises :class:`NonFiniteStepError`.  The supervisor's scans are the
    report: the steps the run could not take count as taken, on the
    state that holds the non-finite values, so the loop reaches its scan.
    """
    sim = adapter.sim
    target = sim.step_count + steps
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        try:
            result = sim.run(steps, **run_kwargs)
        except NonFiniteStepError:
            sim.step_count = target
            return
    adapter.elapsed_s += result.elapsed_s
    adapter.kernel_elapsed_s += result.kernel_elapsed_s
    adapter.last_result = result


class ClamrAdapter:
    """Supervise a :class:`repro.clamr.ClamrSimulation`."""

    workload = "clamr"

    def __init__(self, spec, telemetry=None, vectorized: bool = True) -> None:
        self.spec = spec
        self.telemetry = telemetry
        self.sim = spec.simulation(telemetry, vectorized=vectorized)
        self.config = self.sim.config
        self.elapsed_s = 0.0
        self.kernel_elapsed_s = 0.0
        self.conserved_history: list[float] = []
        self.last_result = None

    # -- introspection -----------------------------------------------------

    @property
    def step_count(self) -> int:
        return self.sim.step_count

    @property
    def policy_name(self) -> str:
        return self.sim.policy.level.value

    @property
    def state_dtype(self) -> np.dtype:
        return self.sim.state.state_dtype

    def arrays(self) -> dict[str, np.ndarray]:
        return self.sim.state_fields()

    def invariant_bounds(self) -> dict[str, tuple[float | None, float | None]]:
        # water height is strictly positive; momenta are unbounded
        return {"H": (0.0, None)}

    def conserved_total(self) -> float:
        return self.sim.state.total_mass(self.sim.mesh.cell_area())

    # -- stepping ----------------------------------------------------------

    def advance(self, steps: int = 1) -> None:
        _advance(self, steps, record_mass=False)

    # -- checkpoint / rollback --------------------------------------------

    def snapshot(self):
        sim = self.sim
        return {
            "step": sim.step_count,
            "time": sim.time,
            "mesh": sim.mesh,
            "state": sim.state.copy(),
            "policy": sim.policy,
            "config": sim.config,
        }

    def restore(self, snap) -> None:
        """Roll mesh/state/clock back; recovery knobs survive the rollback.

        The *current* precision policy and config (possibly escalated /
        dt-halved since the snapshot) are deliberately kept — a recovery
        action must persist through the rollback it pairs with, or
        escalation could never compound (min → mixed → full).  The
        snapshot state is copied before re-wrapping so replayed kernels
        can never scribble on the rollback target.
        """
        sim = self.sim
        sim.mesh = snap["mesh"]
        sim.state = snap["state"].copy().with_policy(sim.policy)
        sim.time = snap["time"]
        sim.step_count = snap["step"]

    # -- recovery actions --------------------------------------------------

    def escalate(self) -> bool:
        """Promote the run one precision level; False at the ceiling."""
        current = self.sim.policy.level
        idx = _CLAMR_LADDER.index(current)
        if idx + 1 >= len(_CLAMR_LADDER):
            return False
        new_policy = PrecisionPolicy.from_level(_CLAMR_LADDER[idx + 1])
        self.sim.policy = new_policy
        self.sim.state = self.sim.state.with_policy(new_policy)
        return True

    def halve_dt(self) -> None:
        cfg = self.sim.config
        self.sim.config = replace(cfg, courant=cfg.courant * 0.5)

    # -- result assembly ---------------------------------------------------

    def final_result(self, mass_history: list[float], times_total_steps: int):
        """The last chunk's result, patched to describe the whole run."""
        result = self.last_result
        if result is None:
            raise RuntimeError("no steps were run")
        result.mass_history = list(mass_history)
        result.steps = times_total_steps
        result.elapsed_s = self.elapsed_s
        result.kernel_elapsed_s = self.kernel_elapsed_s
        return result


class SelfAdapter:
    """Supervise a :class:`repro.self_.SelfSimulation`."""

    workload = "self"

    def __init__(self, spec, telemetry=None) -> None:
        self.spec = spec
        self.telemetry = telemetry
        self.sim = spec.simulation(telemetry)
        self.config = self.sim.config
        self.elapsed_s = 0.0
        self.kernel_elapsed_s = 0.0
        self.conserved_history: list[float] = []
        self.last_result = None

    @property
    def step_count(self) -> int:
        return self.sim.step_count

    @property
    def policy_name(self) -> str:
        return "single" if self.sim.dtype == np.float32 else "double"

    @property
    def state_dtype(self) -> np.dtype:
        return self.sim.U.dtype

    def arrays(self) -> dict[str, np.ndarray]:
        return self.sim.state_fields()

    def invariant_bounds(self) -> dict[str, tuple[float | None, float | None]]:
        return {"rho": (0.0, None), "rhoE": (0.0, None)}

    def conserved_total(self) -> float:
        from repro.self_.diagnostics import total_mass

        return total_mass(self.sim.solver, self.sim.U)

    def advance(self, steps: int = 1) -> None:
        _advance(self, steps)

    def snapshot(self):
        sim = self.sim
        return {
            "step": sim.step_count,
            "time": sim.time,
            "U": sim.U.copy(),
            "precision": self.policy_name,
            "config": sim.config,
        }

    def restore(self, snap) -> None:
        """Roll the tensor/clock back; precision and config survive
        (same contract as :meth:`ClamrAdapter.restore`)."""
        self.sim.U = snap["U"].astype(self.sim.dtype, copy=True)
        self.sim.time = snap["time"]
        self.sim.step_count = snap["step"]

    def escalate(self) -> bool:
        """Re-type the solver at double (its operators and background are
        dtype-bound), on the current config; False at the ceiling."""
        old = self.sim
        if old.dtype == np.float64:
            return False
        new = self.spec.at_level("double").simulation(self.telemetry, config=old.config)
        new.U = old.U.astype(new.dtype, copy=True)
        new.time = old.time
        new.step_count = old.step_count
        self.sim = new
        return True

    def halve_dt(self) -> None:
        cfg = self.sim.config
        self.sim.config = replace(cfg, courant=cfg.courant * 0.5)

    def final_result(self, mass_history: list[float], times_total_steps: int):
        result = self.last_result
        if result is None:
            raise RuntimeError("no steps were run")
        result.steps = times_total_steps
        result.elapsed_s = self.elapsed_s
        result.kernel_elapsed_s = self.kernel_elapsed_s
        return result


def make_adapter(spec, telemetry=None, vectorized: bool = True):
    """The adapter supervising :class:`~repro.service.JobSpec` ``spec``'s run.

    ``vectorized=False`` selects CLAMR's scalar kernel (same bits).
    """
    if spec.workload == "clamr":
        return ClamrAdapter(spec, telemetry, vectorized)
    return SelfAdapter(spec, telemetry)
