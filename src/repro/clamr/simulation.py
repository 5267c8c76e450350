"""The CLAMR dam-break driver.

Reproduces the paper's workload: "a cylindrical dam break problem … on a
64×64 and 128×128 grid with 2 levels of AMR" (§V-A) — a circular column of
elevated water collapsing into a quiescent basin inside reflective walls,
advanced with Courant-limited timesteps, regridding every few steps, with
double-double conservation accounting.

:class:`ClamrSimulation` is the public entry point all figures, tables and
examples use; :class:`SimulationResult` carries everything the analysis
needs (final uniform-grid field, line-outs at graphics precision, mass
history, work profile for the machine model, checkpoint size).
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.clamr import backends as _backends
from repro.clamr.amr import refinement_flags, regrid
from repro.clamr.checkpoint import checkpoint_nbytes
from repro.clamr.config import DamBreakConfig
from repro.clamr.kernels import (
    FaceLists,
    GeometryCache,
    compute_timestep,
    finite_diff_vectorized,
    wave_speed,
)
from repro.clamr.mesh import AmrMesh
from repro.clamr.state import ShallowWaterState
from repro.machine.counters import CountedWorkload, WorkloadProfile
from repro.precision.analysis import line_out
from repro.precision.breakdown import NonFiniteStepError
from repro.precision.policy import PrecisionPolicy, level_from_name
from repro.sums.doubledouble import dd_sum
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry.numerics import cancellation_digits

__all__ = ["DamBreakConfig", "SimulationResult", "ClamrSimulation"]


@dataclass
class SimulationResult:
    """Everything a table/figure generator needs from one run.

    Attributes
    ----------
    policy:
        The precision policy the run used.
    field:
        Final H resampled to the finest uniform grid (graphics float32).
    slice_y:
        Vertical center line-out of the field at graphics precision
        (Fig. 1 input).
    slice_precise:
        The same line-out kept in float64 regardless of policy — required
        by the Fig. 2 asymmetry diagnostic, which must resolve
        below-float32 asymmetries in the full-precision run.
    times:
        Simulation time at every step.
    mass_history:
        Total mass (double-double reduced) sampled at every regrid.
    steps:
        Number of timesteps taken.
    ncells_history:
        Cell count over time (AMR activity).
    elapsed_s / kernel_elapsed_s:
        Wall-clock total and hot-kernel-only seconds (Table III).
    profile:
        Counted work, for the roofline/energy machine models.
    state_nbytes / checkpoint_bytes:
        Resident state footprint and predicted checkpoint size.
    scheme / vectorized:
        Which flux scheme and kernel path produced the run — part of the
        workload identity the run ledger fingerprints.
    """

    policy: PrecisionPolicy
    field: np.ndarray
    slice_y: np.ndarray
    slice_precise: np.ndarray
    times: list[float]
    mass_history: list[float]
    steps: int
    ncells_history: list[int]
    elapsed_s: float
    kernel_elapsed_s: float
    profile: WorkloadProfile
    state_nbytes: int
    checkpoint_bytes: int
    final_time: float = 0.0
    scheme: str = "rusanov"
    vectorized: bool = True

    @property
    def mass_drift(self) -> float:
        """Relative drift of total mass over the run (conservation check)."""
        if len(self.mass_history) < 2 or self.mass_history[0] == 0.0:
            return 0.0
        return abs(self.mass_history[-1] - self.mass_history[0]) / abs(self.mass_history[0])


class ClamrSimulation:
    """Cylindrical dam break on the cell-based AMR mesh.

    Parameters
    ----------
    config:
        Problem definition.
    policy:
        Precision policy (or level name: "min"/"mixed"/"full").
    vectorized:
        The Table III axis.  ``False`` runs the Rusanov step as per-face
        Python loops (the ``python`` kernel backend) instead of the NumPy
        kernel: the same bits, far slower.
    scheme:
        ``"rusanov"`` (first-order, the default) or ``"muscl"``
        (second-order space × Heun time; see :mod:`repro.clamr.muscl`).
    telemetry:
        Optional :class:`repro.telemetry.Telemetry`.  When provided, every
        kernel invocation (timestep reduction, finite-diff update,
        refinement flagging, regrid, mass sum) runs inside a span with its
        flop/byte deltas attached, the metrics registry collects dt /
        regrid / mass-drift series, and the numerical watchpoints scan
        H/U/V at the telemetry's stride.  ``None`` (default) routes all
        instrumentation through the shared no-op object — overhead is two
        trivial calls per span.
    """

    def __init__(
        self,
        config: DamBreakConfig = DamBreakConfig(),
        policy: PrecisionPolicy | str = "full",
        vectorized: bool = True,
        scheme: str = "rusanov",
        telemetry: Telemetry | None = None,
        ic=None,
        bathymetry=None,
    ) -> None:
        if not isinstance(policy, PrecisionPolicy):
            policy = PrecisionPolicy.from_level(level_from_name(policy))
        if scheme not in ("rusanov", "muscl"):
            raise ValueError(f"unknown scheme {scheme!r}; use 'rusanov' or 'muscl'")
        if scheme == "muscl" and not vectorized:
            raise ValueError("the MUSCL kernel has no scalar implementation")
        self.config = config
        self.policy = policy
        self.vectorized = vectorized
        self.scheme = scheme
        self.telemetry = telemetry
        # scenario hooks (see repro.scenarios): ``ic(config, x, y)`` returns
        # (H, U, V) at the cell centers, replacing the default dam-break
        # column; ``bathymetry(config, x, y)`` returns the per-cell bottom
        # elevation (float64 master), re-evaluated whenever regrid builds a
        # new mesh.  ``None`` keeps the seed problem byte-for-byte.
        self._ic = ic
        self._bathymetry = bathymetry
        self._bathy_cache: tuple[int, np.ndarray] | None = None
        self.mesh = AmrMesh.uniform(
            config.nx, config.ny, max_level=config.max_level, coarse_size=config.coarse_size
        )
        self.state = self._initial_state(self.mesh)
        if config.start_refined and config.max_level > 0:
            # pre-refine around the column so the first steps resolve the front
            for _ in range(config.max_level):
                flags = refinement_flags(
                    self.mesh, self.state, config.refine_threshold, config.coarsen_threshold
                )
                self.mesh, self.state = regrid(self.mesh, self.state, flags)
                # re-evaluate initial condition on the refined mesh: cell
                # centers moved, so sampling beats prolongation here
                self.state = self._initial_state(self.mesh)
        self.time = 0.0
        self.step_count = 0
        # per-simulation caches keyed on mesh.generation: face lists and
        # cast geometry survive across run() calls (the resilience harness
        # advances in short chunks — rebuilding faces per chunk dominated
        # its overhead) and are invalidated exactly on regrid
        self._geom = GeometryCache()
        self._faces: tuple[int, FaceLists] | None = None
        # last cancellation-digit measurement from the mass sum; NaN until
        # the first instrumented measurement.  The flight recorder samples
        # this between regrids (the sum only runs at regrid boundaries).
        self._last_cancellation = math.nan

    def _faces_for(self, mesh: AmrMesh) -> FaceLists:
        """Face lists for ``mesh``, rebuilt only when the topology changed.

        A rebuild also builds both scatter plans, so that topology work
        runs (and is traced) with the regrid that caused it, not inside
        the first kernel call on the new mesh.
        """
        cached = self._faces
        if cached is None or cached[0] != mesh.generation:
            faces = FaceLists.from_mesh(mesh)
            faces.scatter_plans(mesh.ncells)
            cached = (mesh.generation, faces)
            self._faces = cached
        return cached[1]

    def _initial_state(self, mesh: AmrMesh) -> ShallowWaterState:
        """Sample the initial condition at cell centers.

        The default is the paper's dam break: a column edge smoothed over
        one coarse cell so the initial condition converges with resolution
        (a hard step would make the Fig. 3 resolution comparison
        ill-posed).  A scenario's ``ic`` hook replaces the whole (H, U, V)
        sample.

        Raises ``ValueError`` when a positive depth rounds to zero or below
        at the policy's state dtype: such a cell would divide by its zero
        depth on the first step and fill the state with NaN.
        """
        cfg = self.config
        x, y = mesh.cell_centers()
        if self._ic is not None:
            H, U, V = (np.asarray(q, dtype=np.float64) for q in self._ic(cfg, x, y))
        else:
            cx = 0.5 * cfg.domain_size
            cy = 0.5 * cfg.domain_size
            r = np.sqrt((x - cx) ** 2 + (y - cy) ** 2)
            radius = cfg.column_radius_fraction * cfg.domain_size
            width = cfg.coarse_size
            smooth = 0.5 * (1.0 - np.tanh((r - radius) / (0.5 * width)))
            H = cfg.base_height + (cfg.column_height - cfg.base_height) * smooth
            U, V = np.zeros_like(H), np.zeros_like(H)
        state = ShallowWaterState(H=H, U=U, V=V, policy=self.policy)
        lost = (H > 0) & ~(state.H > 0)
        if lost.any():
            raise ValueError(
                f"initial depth underflows at {state.state_dtype}: {int(lost.sum())} of "
                f"{mesh.ncells} cells with positive depth round to <= 0 "
                f"(smallest depth {float(H[lost].min()):.3g})"
            )
        return state

    def _bathy_for(self, mesh: AmrMesh) -> np.ndarray | None:
        """Bottom elevation at this mesh's cell centers, generation-cached.

        The bathymetry lives outside :class:`ShallowWaterState` on purpose:
        regrid prolongation/restriction of a sampled field would disagree
        with resampling the analytic bottom, so it is re-evaluated (at
        float64) for every new mesh generation instead.
        """
        if self._bathymetry is None:
            return None
        cached = self._bathy_cache
        if cached is not None and cached[0] == mesh.generation:
            return cached[1]
        x, y = mesh.cell_centers()
        b = np.ascontiguousarray(self._bathymetry(self.config, x, y), dtype=np.float64)
        self._bathy_cache = (mesh.generation, b)
        return b

    def state_fields(self) -> dict:
        """The state's named arrays: what the watch scans and the ladder hashes."""
        state = self.state
        return {"H": state.H, "U": state.U, "V": state.V}

    def _regrid_fields(self) -> dict:
        """Regrid replaces mesh and state, so its site hashes the level map too."""
        return {**self.state_fields(), "level": self.mesh.level}

    def _measured_mass(self, area: np.ndarray, tel) -> float:
        """Double-double total mass, with telemetry on the accumulation.

        Both paths draw their summands from
        :meth:`ShallowWaterState.mass_contributions` (built exactly once),
        so the plain and instrumented measurements cannot drift apart; with
        telemetry enabled the sum additionally runs inside a span and the
        cancellation watchpoint sees the accumulator's condition number
        (Σ|x| / |Σx|) — the §III-C quantity that motivates promoting the
        conservation sums in the first place.
        """
        if not tel.enabled:
            return self.state.total_mass(area)
        with tel.span("clamr/mass_sum") as sp:
            contrib = self.state.mass_contributions(area)
            mass = float(dd_sum(contrib))
            abs_sum = float(np.sum(np.abs(contrib)))
            tel.check_cancellation("mass", abs_sum, mass, step=self.step_count)
            self._last_cancellation = cancellation_digits(abs_sum, mass, zero_total=0.0)
            sp.set(mass=mass)
        return mass

    def _flight_sample(self, flight, dt: float, drift: float) -> None:
        """Record one flight sample from the current state (no wall-clock).

        The realized CFL is recomputed from the same
        :func:`~repro.clamr.kernels.wave_speed` the timestep uses — it
        equals the configured Courant number while dt is CFL-derived, and
        deviates when something external (e.g. resilience ``halve_dt``)
        modified the step.
        """
        from repro.telemetry.flight import field_signals

        wave = wave_speed(self.state)
        size, _ = self._geom.geometry(self.mesh, self.policy.compute_dtype)
        with np.errstate(invalid="ignore", over="ignore"):
            cfl = float(dt) * float(np.max(wave / size))
        signals = field_signals(self.state_fields(), self.state.state_dtype)
        flight.record(
            self.step_count,
            dt=float(dt),
            cfl=cfl,
            ncells=float(self.mesh.ncells),
            state_bits=float(self.policy.state_dtype.itemsize * 8),
            compute_bits=float(self.policy.compute_dtype.itemsize * 8),
            cancellation_digits=self._last_cancellation,
            conservation_drift=drift,
            **signals,
        )

    def run(self, steps: int, record_mass: bool = True) -> SimulationResult:
        """Advance ``steps`` timesteps and package the results."""
        if steps < 1:
            raise ValueError("steps must be at least 1")
        cfg = self.config
        if self.scheme == "muscl":
            from repro.clamr.muscl import finite_diff_muscl

            kernel = finite_diff_muscl
        else:
            kernel = finite_diff_vectorized
        # the unvectorized Table III row: the same step on the python
        # backend's per-face loops, whatever backend is selected
        kernel_scope = (
            contextlib.nullcontext if self.vectorized
            else functools.partial(_backends.kernel_backend, "python")
        )

        workload = CountedWorkload(
            name=f"clamr/dam_break/{self.policy.level.value}",
            state_itemsize=self.policy.state_dtype.itemsize,
            compute_itemsize=self.policy.compute_dtype.itemsize,
            vectorizable_fraction=0.85,
        )
        counters = workload.counters

        tel = self.telemetry if self.telemetry is not None else NULL_TELEMETRY
        flight = tel.flight
        drift = 0.0 if record_mass else math.nan
        kernel_span_name = f"clamr/{kernel.__name__}"
        kernel_metrics = (f"clamr.{kernel.__name__}.flops", f"clamr.{kernel.__name__}.state_bytes")
        state_fields = self.state_fields

        def dt_field() -> dict:
            # read when the site hashes, after the body has set this step's dt
            return {"dt": dt}

        times: list[float] = []
        mass_history: list[float] = []
        ncells_history: list[int] = []
        _, area = self._geom.geometry(self.mesh, np.dtype(np.float64))
        if record_mass:
            mass_history.append(self._measured_mass(area, tel))
        ncells_history.append(self.mesh.ncells)

        faces = self._faces_for(self.mesh)
        bathy = self._bathy_for(self.mesh)
        # compiled-backend warm-up BEFORE the timed region: C-build cost
        # lands in its own span, never in step timings, flight-recorder
        # series, or ledger wall-clock stats. The span is only opened when a
        # backend is actually requested, so oracle runs trace identically.
        if self.vectorized and _backends.active_backend() != "numpy":
            with tel.span(
                "clamr/backend_warmup", backend=_backends.active_backend()
            ):
                _backends.warmup(self.policy.compute_dtype)
        kernel_elapsed = 0.0
        t_start = time.perf_counter()
        with tel.span("clamr/run", steps=steps, ncells=self.mesh.ncells):
            for _ in range(steps):
                with tel.span("clamr/step", step=self.step_count):
                    # the step being computed (step_count increments mid-loop)
                    step_no = self.step_count + 1
                    with tel.site(
                        step_no, "clamr/compute_timestep", counters,
                        ("clamr.compute_timestep.flops",), dt_field,
                    ) as site:
                        dt = compute_timestep(
                            self.mesh, self.state, cfg.courant, counters=counters, geom=self._geom
                        )
                        if not 0.0 < dt < math.inf:
                            raise NonFiniteStepError.diagnose(
                                step_no, self.policy.level.value, dt, self.state_fields()
                            )
                        site.set(dt=dt, ncells=self.mesh.ncells)
                    tel.metrics.histogram("clamr.dt").observe(dt)
                    t0 = time.perf_counter()
                    with tel.site(
                        step_no, kernel_span_name, counters, kernel_metrics, state_fields
                    ), kernel_scope():
                        kernel(
                            self.mesh, self.state, dt,
                            faces=faces, counters=counters, geom=self._geom,
                            bathy=bathy,
                        )
                        kernel_elapsed += time.perf_counter() - t0
                    # precision-independent mesh traffic: the face-index
                    # gathers of the step (int32 neighbor/face reads).  This
                    # is the part of CLAMR's data motion that does NOT shrink
                    # at reduced precision and keeps CPU speedups modest
                    # (Table I).  Not a kernel launch of its own — the bytes
                    # belong to the finite_diff launch counted above.
                    counters.add(
                        fixed_bytes=4 * (2 * faces.nfaces + 4 * self.mesh.ncells),
                        invocations=0,
                    )
                    self.time += dt
                    self.step_count += 1
                    times.append(self.time)
                    tel.scan_all(self.step_count, state_fields, self.state.state_dtype)
                    if cfg.max_level > 0 and self.step_count % cfg.regrid_interval == 0:
                        with tel.span("clamr/refinement_flags"):
                            flags = refinement_flags(
                                self.mesh,
                                self.state,
                                cfg.refine_threshold,
                                cfg.coarsen_threshold,
                            )
                        with tel.site(
                            step_no, "clamr/regrid", fields=self._regrid_fields
                        ) as site:
                            site.set(ncells_before=self.mesh.ncells)
                            # the old generation's face lists, their scatter
                            # plans and its derived terms go before the next
                            # generation's are built
                            faces = self._faces = None
                            self._geom.release()
                            self.mesh, self.state = regrid(self.mesh, self.state, flags)
                            faces = self._faces_for(self.mesh)
                            bathy = self._bathy_for(self.mesh)
                            _, area = self._geom.geometry(self.mesh, np.dtype(np.float64))
                            site.set(ncells_after=self.mesh.ncells)
                        # regrid cost: hash repaint (int64 image) + neighbor
                        # rebuild gathers + flag evaluation traffic.
                        counters.add(
                            fixed_bytes=8 * self.mesh.nxf * self.mesh.nyf
                            + 4 * 8 * self.mesh.ncells
                        )
                        tel.metrics.histogram("clamr.regrid.ncells").observe(self.mesh.ncells)
                        if record_mass:
                            mass_history.append(self._measured_mass(area, tel))
                            if mass_history[0] != 0.0:
                                drift = (
                                    abs(mass_history[-1] - mass_history[0])
                                    / abs(mass_history[0])
                                )
                                tel.metrics.gauge("clamr.mass_drift").set(drift)
                        ncells_history.append(self.mesh.ncells)
                    if flight is not None and flight.should_sample(self.step_count):
                        self._flight_sample(flight, dt, drift)
        elapsed = time.perf_counter() - t_start
        if record_mass:
            mass_history.append(self._measured_mass(area, tel))

        field = self.mesh.sample_to_uniform(self.state.H.astype(self.policy.graphics_dtype))
        field_precise = self.mesh.sample_to_uniform(self.state.H.astype(np.float64))
        slice_precise = field_precise[:, field_precise.shape[1] // 2].copy()
        workload.resident_state_bytes = self.state.nbytes() + self.mesh.memory_nbytes()
        return SimulationResult(
            policy=self.policy,
            field=field,
            slice_y=line_out(field, axis=0),
            slice_precise=slice_precise,
            times=times,
            mass_history=mass_history,
            steps=self.step_count,
            ncells_history=ncells_history,
            elapsed_s=elapsed,
            kernel_elapsed_s=kernel_elapsed,
            profile=workload.profile(),
            state_nbytes=self.state.nbytes(),
            checkpoint_bytes=checkpoint_nbytes(self.mesh.ncells, self.policy),
            final_time=self.time,
            scheme=self.scheme,
            vectorized=self.vectorized,
        )

    def run_to_time(self, target_time: float, max_steps: int = 100000) -> SimulationResult:
        """Advance until simulation time reaches ``target_time``.

        Used by the Fig. 3 precision-vs-resolution comparison, where two
        runs with different grids (hence different dt) must be compared "at
        almost the same instant of simulation time".
        """
        if target_time <= self.time:
            raise ValueError("target_time must exceed current simulation time")
        # run() in chunks until the target is passed
        result: SimulationResult | None = None
        while self.time < target_time and self.step_count < max_steps:
            result = self.run(16, record_mass=False)
        if result is None:  # pragma: no cover - defensive
            raise RuntimeError("no steps taken")
        return result
