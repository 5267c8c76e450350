"""The SELF thermal-bubble driver.

Reproduces the paper's §V-B workload: "an anomalous warm blob that rises
in an otherwise neutrally buoyant fluid, similar to the initial condition
in [31]" (Abdi et al.'s GPU non-hydrostatic atmospheric model — the
classical rising-thermal-bubble benchmark).

Setup
-----
* neutrally buoyant background: constant potential temperature θ₀, i.e.
  an adiabatic hydrostatic atmosphere.  With Exner pressure
  π(z) = 1 − g z /(c_p θ₀):  p̄ = p₀ π^{c_p/R},  ρ̄ = p₀ π^{c_v/R}/(R θ₀);
* warm blob: Gaussian potential-temperature anomaly Δθ, applied at fixed
  pressure — so ρ = p̄/(R θ π) with θ = θ₀ + Δθ, lighter than the
  background where warm;
* free-slip walls all around; low-storage RK3 in time; modal filter every
  step to drain aliasing.

The precision knob is a dtype (``"single"`` → float32, ``"double"`` →
float64) applied to the state, the operators, and all arithmetic — SELF
has no mixed mode (paper §VI).

The paper's full problem is 20³ elements × 8³ points ≈ 24 M degrees of
freedom; defaults here are laptop-sized but the configuration scales to
the paper's geometry unchanged (see DESIGN.md on the size substitution —
fidelity structure is what the figures compare, and the performance tables
re-base through the machine model).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.machine.counters import WorkloadProfile
from repro.precision.analysis import line_out
from repro.precision.breakdown import NonFiniteStepError
from repro.self_.equations import RHO, AtmosphereConstants, CompressibleEuler
from repro.self_.filter import apply_filter_3d, modal_filter_matrix
from repro.self_.mesh import HexMesh
from repro.self_.timeint import LowStorageRK3
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry.numerics import cancellation_digits

__all__ = ["ThermalBubbleConfig", "SelfResult", "SelfSimulation", "parse_precision"]


def parse_precision(precision: str | np.dtype) -> np.dtype:
    """Map the paper's vocabulary ("single"/"double") to a dtype."""
    if isinstance(precision, np.dtype):
        if precision in (np.dtype(np.float32), np.dtype(np.float64)):
            return precision
        raise ValueError(f"unsupported precision dtype {precision}")
    key = str(precision).strip().lower()
    table = {
        "single": np.dtype(np.float32),
        "float32": np.dtype(np.float32),
        "sp": np.dtype(np.float32),
        "double": np.dtype(np.float64),
        "float64": np.dtype(np.float64),
        "dp": np.dtype(np.float64),
    }
    try:
        return table[key]
    except KeyError:
        raise ValueError(f"unknown precision {precision!r}; use 'single' or 'double'") from None


@dataclass(frozen=True)
class ThermalBubbleConfig:
    """Thermal-bubble problem definition.

    Defaults give a ~1 km³ box with a 0.5 K warm Gaussian blob — the
    standard benchmark geometry, shrunk in element count (see module
    docstring).  ``nelem`` per side and ``order`` multiply into the
    resolution; the paper's run is ``nex=ney=nez=20, order=7``.
    """

    nex: int = 6
    ney: int = 6
    nez: int = 6
    order: int = 4
    lengths: tuple[float, float, float] = (1000.0, 1000.0, 1000.0)
    theta0: float = 300.0  # K, background potential temperature
    bubble_amplitude: float = 0.5  # K
    bubble_center: tuple[float, float, float] = (500.0, 500.0, 350.0)
    bubble_radius: float = 250.0  # m, Gaussian 1/e radius
    courant: float = 0.3
    filter_cutoff: int | None = None  # default: 2N/3
    filter_strength: float = 36.0
    filter_interval: int = 1
    viscosity: float = 0.0  # Pa·s; > 0 enables the Navier-Stokes terms
    prandtl: float = 0.72

    def __post_init__(self) -> None:
        if min(self.nex, self.ney, self.nez) < 2:
            raise ValueError("need at least 2 elements per direction (bubble must fit inside)")
        if self.order < 2:
            raise ValueError("order must be at least 2 for a meaningful spectral element")
        for name in ("theta0", "bubble_amplitude", "bubble_radius", "filter_strength"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not all(math.isfinite(x) and x > 0 for x in self.lengths):
            raise ValueError(f"lengths must be finite and positive, got {self.lengths}")
        if not all(math.isfinite(x) for x in self.bubble_center):
            raise ValueError(f"bubble_center must be finite, got {self.bubble_center}")
        if not 0.0 < self.courant <= 1.0:
            raise ValueError(f"courant must be in (0, 1], got {self.courant}")
        if self.filter_interval < 1:
            raise ValueError("filter_interval must be at least 1")
        if not (math.isfinite(self.viscosity) and self.viscosity >= 0):
            raise ValueError(f"viscosity must be finite and non-negative, got {self.viscosity}")
        if not (math.isfinite(self.prandtl) and self.prandtl > 0):
            raise ValueError(f"prandtl must be finite and positive, got {self.prandtl}")


@dataclass
class SelfResult:
    """Outputs of one SELF run, mirroring CLAMR's :class:`SimulationResult`.

    ``anomaly_slice`` is the horizontal center line-out of the density
    anomaly ρ - ρ̄ at graphics precision (Fig. 4); ``slice_precise`` keeps
    it in float64 for the Fig. 5 asymmetry diagnostic.
    """

    precision: str
    anomaly_field: np.ndarray
    anomaly_slice: np.ndarray
    slice_precise: np.ndarray
    steps: int
    final_time: float
    elapsed_s: float
    kernel_elapsed_s: float
    profile: WorkloadProfile
    state_nbytes: int
    max_vertical_velocity: float

    @property
    def anomaly_scale(self) -> float:
        """Peak |anomaly| — the solution magnitude the paper compares against."""
        return float(np.max(np.abs(self.slice_precise)))


class SelfSimulation:
    """Rising thermal bubble on the spectral-element mesh.

    Parameters
    ----------
    config:
        Problem definition.
    precision:
        ``"single"`` or ``"double"`` (paper vocabulary), or a dtype.
    constants:
        Atmosphere constants; defaults are dry air.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry`.  When provided, the
        RK stages (each RHS evaluation), the modal filter, the viscous
        operator and the stable-dt reduction all run inside spans, the
        metrics registry collects the dt and flop series, and the
        numerical watchpoints scan the conserved variables at the
        telemetry's stride.
    """

    def __init__(
        self,
        config: ThermalBubbleConfig = ThermalBubbleConfig(),
        precision: str | np.dtype = "double",
        constants: AtmosphereConstants = AtmosphereConstants(),
        telemetry: Telemetry | None = None,
        ic=None,
    ) -> None:
        self.config = config
        self.dtype = parse_precision(precision)
        self.constants = constants
        self.telemetry = telemetry
        # scenario hook (see repro.scenarios): ``ic(config, x, y, z)``
        # returns the potential-temperature anomaly Δθ at the nodes,
        # replacing the default warm Gaussian.  Unlike the config's
        # ``bubble_amplitude`` it may be negative (density currents) or
        # structured (wave trains); ``None`` keeps the seed bubble.
        self._ic = ic
        self.mesh = HexMesh(
            nex=config.nex,
            ney=config.ney,
            nez=config.nez,
            lengths=config.lengths,
            order=config.order,
        )
        rho_bar, p_bar = self._hydrostatic_background()
        self.solver = CompressibleEuler(
            mesh=self.mesh,
            dtype=self.dtype,
            constants=constants,
            rho_bar=rho_bar,
            p_bar=p_bar,
        )
        self.U = self._initial_state(rho_bar, p_bar)
        self._filter = modal_filter_matrix(
            config.order, cutoff=config.filter_cutoff, strength=config.filter_strength
        ).astype(self.dtype)
        self._background = self.solver.background_state()
        # the RK stage result; dead after each stage's update, so the
        # filter borrows it as its perturbation and ping-pong buffer
        self._stage = np.empty_like(self.U)
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        if config.viscosity > 0.0:
            from repro.self_.viscous import ViscousOperator

            viscous = ViscousOperator(self.solver, mu=config.viscosity, prandtl=config.prandtl)

            def rhs(U: np.ndarray) -> np.ndarray:
                with tel.span("self/rhs"):
                    out = self.solver.rhs(U, out=self._stage)
                with tel.span("self/viscous"):
                    viscous.add_rhs(U, out)
                return out
        else:

            def rhs(U: np.ndarray) -> np.ndarray:
                with tel.span("self/rhs"):
                    return self.solver.rhs(U, out=self._stage)

        self._stepper = LowStorageRK3(rhs=rhs)
        self.time = 0.0
        self.step_count = 0
        # conserved-mass baseline for the flight recorder's drift signal;
        # captured at the first flight sample (SELF has no running mass
        # history the way CLAMR does)
        self._flight_mass0: float | None = None

    def _precision_name(self) -> str:
        return "single" if self.dtype == np.float32 else "double"

    def state_fields(self) -> dict:
        """Named conserved-variable views: what the ladder hashes."""
        U = self.U
        return {
            "rho": U[:, 0],
            "rhou": U[:, 1],
            "rhov": U[:, 2],
            "rhow": U[:, 3],
            "rhoE": U[:, 4],
        }

    def _watch_fields(self) -> dict:
        """Density, momentum and energy: what the watch and the flight scan."""
        U = self.U
        return {"rho": U[:, RHO], "momentum": U[:, 1:4], "energy": U[:, 4]}

    def _flight_sample(self, flight, dt: float) -> None:
        """Record one flight sample from the conserved state.

        SELF's dt is always CFL-derived, so the realized Courant number is
        the configured target; the interesting signals are the field
        health of ρ/momentum/energy and the total-mass drift against the
        first sample (double-double reduced, like CLAMR's mass history).
        """
        from repro.sums.doubledouble import dd_sum
        from repro.telemetry.flight import field_signals

        signals = field_signals(self._watch_fields(), self.dtype)
        contrib = self.U[:, RHO].astype(np.float64).ravel()
        mass = float(dd_sum(contrib))
        abs_sum = float(np.sum(np.abs(contrib)))
        cancellation = cancellation_digits(abs_sum, mass, zero_total=0.0)
        if self._flight_mass0 is None:
            self._flight_mass0 = mass
        drift = (
            abs(mass - self._flight_mass0) / abs(self._flight_mass0)
            if self._flight_mass0 != 0.0
            else math.nan
        )
        bits = float(self.dtype.itemsize * 8)
        flight.record(
            self.step_count,
            dt=float(dt),
            cfl=float(self.config.courant),
            ncells=float(self.mesh.nelem),
            state_bits=bits,
            compute_bits=bits,
            cancellation_digits=cancellation,
            conservation_drift=drift,
            **signals,
        )

    # -- initial condition ------------------------------------------------

    def _hydrostatic_background(self) -> tuple[np.ndarray, np.ndarray]:
        """Adiabatic (constant-θ) hydrostatic atmosphere at the nodes."""
        c = self.constants
        _, _, z = self.mesh.node_coordinates()
        exner = 1.0 - c.gravity * z / (c.cp * self.config.theta0)
        if np.any(exner <= 0.0):
            raise ValueError("domain too tall: Exner pressure vanishes before the top")
        p_bar = c.p0 * exner ** (c.cp / c.gas_constant)
        rho_bar = c.p0 * exner ** (c.cv / c.gas_constant) / (c.gas_constant * self.config.theta0)
        return rho_bar, p_bar

    def _initial_state(self, rho_bar: np.ndarray, p_bar: np.ndarray) -> np.ndarray:
        """Background plus the warm blob (pressure unperturbed)."""
        c = self.constants
        cfg = self.config
        x, y, z = self.mesh.node_coordinates()
        if self._ic is not None:
            dtheta = np.asarray(self._ic(cfg, x, y, z), dtype=np.float64)
        else:
            cx, cy, cz = cfg.bubble_center
            r2 = (x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2
            dtheta = cfg.bubble_amplitude * np.exp(-r2 / cfg.bubble_radius**2)
        theta = cfg.theta0 + dtheta
        exner = (p_bar / c.p0) ** (c.gas_constant / c.cp)
        # ideal gas with T = θ·π: ρ = p / (R T)
        rho = p_bar / (c.gas_constant * theta * exner)
        n = self.mesh.npoints
        U = np.zeros((self.mesh.nelem, 5, n, n, n), dtype=self.dtype)
        U[:, RHO] = rho.astype(self.dtype)
        U[:, 4] = (p_bar / (c.gamma - 1.0)).astype(self.dtype)
        del rho_bar
        return U

    # -- running ----------------------------------------------------------

    def _filter_state(self) -> None:
        """U = background + filter(U - background), written into ``self.U``."""
        stage = self._stage
        np.subtract(self.U, self._background, out=stage)
        apply_filter_3d(stage, self._filter, out=self.U, scratch=stage)
        self.U += self._background

    def run(self, steps: int) -> SelfResult:
        """Advance ``steps`` RK3 steps and package the results."""
        if steps < 1:
            raise ValueError("steps must be at least 1")
        cfg = self.config
        tel = self.telemetry if self.telemetry is not None else NULL_TELEMETRY
        flight = tel.flight
        state_fields = self.state_fields
        watch_fields = self._watch_fields
        step_flops = self._flops_per_step()
        step_bytes = self._state_traffic_per_step()

        def dt_field() -> dict:
            # read when the site hashes, after the body has set this step's dt
            return {"dt": dt}

        kernel_elapsed = 0.0
        t_start = time.perf_counter()
        with tel.span("self/run", steps=steps, ndof=self.mesh.ndof):
            for _ in range(steps):
                with tel.span("self/step", step=self.step_count):
                    # the step being computed (step_count increments below)
                    step_no = self.step_count + 1
                    with tel.site(step_no, "self/stable_dt", fields=dt_field) as site:
                        dt = self.solver.stable_dt(self.U, cfg.courant)
                        if not 0.0 < dt < math.inf:
                            raise NonFiniteStepError.diagnose(
                                step_no, self._precision_name(), dt, state_fields()
                            )
                        site.set(dt=dt)
                    tel.metrics.histogram("self.dt").observe(dt)
                    t0 = time.perf_counter()
                    with tel.site(step_no, "self/rk3_step", fields=state_fields) as site:
                        self._stepper.step(self.U, dt)
                        site.set(flops=step_flops)
                    if self.step_count % cfg.filter_interval == 0:
                        with tel.site(step_no, "self/filter", fields=state_fields):
                            self._filter_state()
                    kernel_elapsed += time.perf_counter() - t0
                    self.time += dt
                    self.step_count += 1
                    tel.metrics.counter("self.flops").add(step_flops)
                    tel.metrics.counter("self.state_bytes").add(step_bytes)
                    tel.scan_all(self.step_count, watch_fields)
                    if flight is not None and flight.should_sample(self.step_count):
                        self._flight_sample(flight, dt)
        elapsed = time.perf_counter() - t_start

        anomaly = (self.U[:, RHO].astype(np.float64) - self.solver.rho_bar.astype(np.float64))
        field = self._assemble_uniform(anomaly)
        cz_index = self._bubble_k_index(field.shape[2])
        slice_precise = field[:, field.shape[1] // 2, cz_index].copy()
        w_max = float(np.max(np.abs(self.U[:, 3] / self.U[:, RHO])))

        state_bytes = int(self.U.nbytes)
        profile = WorkloadProfile(
            name=f"self/thermal_bubble/{self._precision_name()}",
            flops=step_flops * steps,
            state_bytes=step_bytes * steps,
            state_itemsize=self.dtype.itemsize,
            compute_itemsize=self.dtype.itemsize,
            resident_state_bytes=state_bytes * 2,  # state + RK register
            vectorizable_fraction=0.95,
            invocations=steps * 3,
            dense_compute=True,
        )
        return SelfResult(
            precision=self._precision_name(),
            anomaly_field=field.astype(np.float32),
            anomaly_slice=line_out(field[:, :, cz_index].astype(np.float32), axis=0),
            slice_precise=slice_precise,
            steps=self.step_count,
            final_time=self.time,
            elapsed_s=elapsed,
            kernel_elapsed_s=kernel_elapsed,
            profile=profile,
            state_nbytes=state_bytes,
            max_vertical_velocity=w_max,
        )

    def _bubble_k_index(self, nz: int) -> int:
        """Uniform-grid k index at the bubble's initial center height."""
        frac = self.config.bubble_center[2] / self.config.lengths[2]
        return min(nz - 1, max(0, int(round(frac * nz - 0.5))))

    def _assemble_uniform(self, nodal: np.ndarray) -> np.ndarray:
        """Nodal (nelem, n, n, n) scalar → global uniform-ish grid.

        Elements are placed on a block grid; within an element the GLL
        nodes are kept as-is (their spacing is non-uniform but consistent
        across runs, which is all line-out differencing requires).
        """
        m = self.mesh
        n = m.npoints
        out = np.empty((m.nex * n, m.ney * n, m.nez * n), dtype=np.float64)
        ix, iy, iz = m.element_indices()
        for e in range(m.nelem):
            out[
                ix[e] * n : (ix[e] + 1) * n,
                iy[e] * n : (iy[e] + 1) * n,
                iz[e] * n : (iz[e] + 1) * n,
            ] = nodal[e]
        return out

    # -- work accounting --------------------------------------------------

    def _flops_per_step(self) -> int:
        """Analytic flop count per RK3 step (3 RHS evaluations + update)."""
        from repro.self_.equations import FLOPS_PER_NODE_RHS

        m = self.mesh
        n = m.npoints
        nodes = m.ndof
        # derivative contractions: 3 dirs × 5 vars × nelem × n³ × (2n flops)
        deriv = 3 * 5 * m.nelem * n**3 * 2 * n
        pointwise = nodes * FLOPS_PER_NODE_RHS
        per_rhs = deriv + pointwise
        rk_update = 4 * 5 * nodes  # k and U updates
        filter_cost = 3 * 5 * m.nelem * n**3 * 2 * n // self.config.filter_interval
        return 3 * (per_rhs + rk_update) + filter_cost

    def _state_traffic_per_step(self) -> int:
        """Bytes of state traffic per RK3 step (3 sweeps over 2 tensors + filter)."""
        per_sweep = 2 * int(self.U.nbytes)
        filter_traffic = 2 * int(self.U.nbytes) // self.config.filter_interval
        return 3 * per_sweep + filter_traffic
