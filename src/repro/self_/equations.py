"""3-D compressible Euler in hydrostatic-perturbation form (DGSEM kernel).

State tensor ``U`` of shape ``(nelem, 5, n, n, n)`` holding the conserved
variables (ρ, ρu, ρv, ρw, ρE) at the GLL collocation nodes.

Well-balancing
--------------
A thermal bubble is a tiny density anomaly riding on a hydrostatic
background ρ̄(z), p̄(z) with ``dp̄/dz = -ρ̄ g``.  Discretizing the raw
equations would let the O(1) truncation error of ∂p̄/∂z swamp the O(1e-3)
anomaly.  The standard cure (Giraldo-type atmospheric DG, the formulation
behind the paper's reference [31]) is to subtract the background
analytically:

* all **momentum fluxes use the pressure perturbation** p' = p - p̄
  (legitimate because p̄ is x/y-independent and its z-gradient is moved to
  the source);
* the **gravity source uses the density perturbation**: d(ρw)/dt += -ρ' g.

A resting atmosphere then has *identically zero* RHS at the discrete
level — no spurious acceleration at any precision — so what the
single-vs-double comparison measures is the physics, not hydrostatic
noise.

Spatial discretization is strong-form nodal DGSEM on GLL points (Kopriva
2009): collocation derivative of the flux plus boundary lifting of the
Lax-Friedrichs numerical flux.  Free-slip walls are the mirror state
(normal momentum negated) pushed through the same Riemann solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.self_.basis import NodalBasis, apply_along
from repro.self_.mesh import HexMesh

__all__ = ["AtmosphereConstants", "CompressibleEuler", "theta_anomaly"]


@dataclass(frozen=True)
class AtmosphereConstants:
    """Dry-air constants for the thermal-bubble atmosphere."""

    gas_constant: float = 287.0  # J/(kg K)
    cp: float = 1004.5  # J/(kg K)
    gravity: float = 9.81  # m/s^2
    p0: float = 1.0e5  # Pa, reference (surface) pressure

    @property
    def cv(self) -> float:
        return self.cp - self.gas_constant

    @property
    def gamma(self) -> float:
        return self.cp / self.cv


# conserved-variable slots
RHO, RHOU, RHOV, RHOW, RHOE = range(5)

#: Analytic flop estimate per node per RHS evaluation (fluxes, primitives,
#: sources); the derivative contractions are counted separately since they
#: scale with n⁴ per element.  Used by the machine-model profiles.
FLOPS_PER_NODE_RHS = 160


def theta_anomaly(
    rho: np.ndarray,
    p_bar: np.ndarray,
    constants: AtmosphereConstants,
    theta0: float,
) -> np.ndarray:
    """Potential-temperature anomaly θ − θ₀ from density (float64).

    Inverts the initial-condition relation ρ = p̄ / (R θ π) with
    π = (p̄/p₀)^{R/c_p} — the same fixed-pressure thermodynamics the
    scenarios use to seed Δθ, so at step 0 this recovers the seeded
    anomaly up to state-dtype rounding.  Scenario acceptance checks use
    it to verify sign, amplitude, and symmetry of the θ′ field.
    """
    c = constants
    rho64 = np.asarray(rho, dtype=np.float64)
    p64 = np.asarray(p_bar, dtype=np.float64)
    exner = (p64 / c.p0) ** (c.gas_constant / c.cp)
    theta = p64 / (c.gas_constant * rho64 * exner)
    return theta - float(theta0)


def _face_table(minus: np.ndarray, plus: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(interior_lo, interior_hi, walls_plus, walls_minus)`` for one axis.

    ``minus``/``plus`` are the axis' neighbor lists (-1 at a wall).  The
    interior faces run from ``interior_lo[f]`` to ``interior_hi[f]``;
    ``walls_plus``/``walls_minus`` are the elements whose +/- face is a
    wall.  ``interior_lo ∪ walls_plus`` and ``interior_hi ∪ walls_minus``
    each list every element exactly once.
    """
    lo = np.flatnonzero(plus >= 0)
    return lo, plus[lo], np.flatnonzero(plus < 0), np.flatnonzero(minus < 0)


class CompressibleEuler:
    """DGSEM right-hand side for the perturbation-form Euler equations.

    Parameters
    ----------
    mesh:
        The hex mesh (affine elements).
    dtype:
        float32 or float64 — the paper's single/double axis.  All operators
        and state live at this dtype.
    constants:
        Physical constants.
    rho_bar, p_bar:
        Hydrostatic background sampled at the collocation nodes, shape
        ``(nelem, n, n, n)``; cast to ``dtype`` internally.
    """

    def __init__(
        self,
        mesh: HexMesh,
        dtype: np.dtype,
        constants: AtmosphereConstants,
        rho_bar: np.ndarray,
        p_bar: np.ndarray,
    ) -> None:
        self.mesh = mesh
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError("SELF supports single or double precision only")
        self.constants = constants
        n = mesh.npoints
        shape = (mesh.nelem, n, n, n)
        if rho_bar.shape != shape or p_bar.shape != shape:
            raise ValueError(f"background arrays must have shape {shape}")
        self.rho_bar = np.ascontiguousarray(rho_bar, dtype=self.dtype)
        self.p_bar = np.ascontiguousarray(p_bar, dtype=self.dtype)

        basis = NodalBasis.gll(mesh.order).cast(self.dtype)
        self.basis = basis
        self.D = basis.D
        self.w_end = basis.weights[-1]  # == weights[0] by symmetry
        mx, my, mz = mesh.metric_factors()
        self.metric = (self.dtype.type(mx), self.dtype.type(my), self.dtype.type(mz))
        nbr = mesh.neighbors()
        self.faces = tuple(_face_table(nbr[d + "m"], nbr[d + "p"]) for d in "xyz")
        self._g = self.dtype.type(constants.gravity)
        self._gm1 = self.dtype.type(constants.gamma - 1.0)
        self._gamma = self.dtype.type(constants.gamma)

    # -- thermodynamics ---------------------------------------------------

    def primitives(self, U: np.ndarray) -> tuple[np.ndarray, ...]:
        """(ρ, u, v, w, p) from the conserved state."""
        rho = U[:, RHO]
        u = U[:, RHOU] / rho
        v = U[:, RHOV] / rho
        w = U[:, RHOW] / rho
        kinetic = self.dtype.type(0.5) * rho * (u * u + v * v + w * w)
        p = self._gm1 * (U[:, RHOE] - kinetic)
        return rho, u, v, w, p

    def sound_speed(self, rho: np.ndarray, p: np.ndarray) -> np.ndarray:
        return np.sqrt(self._gamma * p / rho)

    def background_state(self) -> np.ndarray:
        """The hydrostatic background as a conserved-variable tensor."""
        n = self.mesh.npoints
        U = np.zeros((self.mesh.nelem, 5, n, n, n), dtype=self.dtype)
        U[:, RHO] = self.rho_bar
        U[:, RHOE] = self.p_bar / self._gm1
        return U

    # -- fluxes -----------------------------------------------------------

    def _flux(
        self, U: np.ndarray, pprime: np.ndarray, pbar: np.ndarray, vel: np.ndarray, mom: int
    ) -> np.ndarray:
        """Flux tensor in the direction whose velocity is ``vel``.

        ``mom`` is the conserved slot of the normal momentum; the pressure
        perturbation enters that component only.  The energy flux uses the
        full pressure p' + p̄ (p̄ = ``pbar``, the background at the same
        nodes; at rest the velocity factor zeroes it regardless).
        """
        F = U * vel[:, None]
        F[:, mom] += pprime
        p_full = pprime + pbar
        F[:, RHOE] += p_full * vel
        return F

    def _llf(
        self,
        UL: np.ndarray,
        UR: np.ndarray,
        pL: np.ndarray,
        pR: np.ndarray,
        pbar: np.ndarray,
        mom: int,
    ) -> np.ndarray:
        """Lax-Friedrichs flux across faces, oriented along +direction.

        Inputs are face tensors of shape ``(nfaces, 5, n, n)`` (states) and
        ``(nfaces, n, n)`` (pressure perturbations and face background).
        """
        half = self.dtype.type(0.5)
        velL = UL[:, mom] / UL[:, RHO]
        velR = UR[:, mom] / UR[:, RHO]
        cL = self.sound_speed(UL[:, RHO], pL + pbar)
        cR = self.sound_speed(UR[:, RHO], pR + pbar)
        lam = np.maximum(np.abs(velL) + cL, np.abs(velR) + cR)
        FL = self._flux(UL, pL, pbar, velL, mom)
        FR = self._flux(UR, pR, pbar, velR, mom)
        return half * (FL + FR) - half * lam[:, None] * (UR - UL)

    # -- the RHS ----------------------------------------------------------

    def rhs(self, U: np.ndarray) -> np.ndarray:
        """dU/dt for the current state; allocates and returns a new tensor."""
        mesh = self.mesh
        n = mesh.npoints
        if U.shape != (mesh.nelem, 5, n, n, n):
            raise ValueError(f"state tensor has wrong shape {U.shape}")
        if U.dtype != self.dtype:
            raise ValueError(f"state dtype {U.dtype} != solver dtype {self.dtype}")
        D = self.D
        mx, my, mz = self.metric
        rho, u, v, w, p = self.primitives(U)
        pprime = p - self.p_bar

        out = np.empty_like(U)

        # volume terms: out = -(m_d D F_d) summed over directions.
        Fx = self._flux(U, pprime, self.p_bar, u, RHOU)
        apply_along(D, Fx, 0, out=out)
        out *= -mx
        Fy = self._flux(U, pprime, self.p_bar, v, RHOV)
        out -= my * apply_along(D, Fy, 1)
        Fz = self._flux(U, pprime, self.p_bar, w, RHOW)
        out -= mz * apply_along(D, Fz, 2)

        # surface terms per direction
        self._surface_x(U, pprime, out, Fx)
        self._surface_y(U, pprime, out, Fy)
        self._surface_z(U, pprime, out, Fz)

        # gravity source (perturbation form)
        out[:, RHOW] -= self._g * (rho - self.rho_bar)
        out[:, RHOE] -= self._g * U[:, RHOW]
        return out

    def _surface_x(self, U: np.ndarray, pprime: np.ndarray, out: np.ndarray, F: np.ndarray) -> None:
        self._surface(0, U, pprime, out, F)

    def _surface_y(self, U: np.ndarray, pprime: np.ndarray, out: np.ndarray, F: np.ndarray) -> None:
        self._surface(1, U, pprime, out, F)

    def _surface_z(self, U: np.ndarray, pprime: np.ndarray, out: np.ndarray, F: np.ndarray) -> None:
        self._surface(2, U, pprime, out, F)

    def _surface(self, axis: int, U: np.ndarray, pprime: np.ndarray, out: np.ndarray, F: np.ndarray) -> None:
        """Lift the face-flux jumps across node axis ``axis`` into ``out``.

        One ``_llf`` call covers every face of the axis, stacked as rows
        ``[+ walls; interior; - walls]``; a wall's outer state is the
        mirror (normal momentum negated).  The first ``len(plus)`` rows
        then land on the + face slots of ``plus = [walls_plus;
        interior_lo]`` and the rows from ``len(walls_plus)`` on the - face
        slots of ``minus = [interior_hi; walls_minus]``.  Each list is a
        permutation of the elements, so every slot takes exactly one update.
        """
        lo, hi, walls_plus, walls_minus = self.faces[axis]
        mom = RHOU + axis
        lift = self.metric[axis] / self.w_end
        last = (slice(None),) * axis + (-1,)
        first = (slice(None),) * axis + (0,)
        plus = np.concatenate((walls_plus, lo))
        minus = np.concatenate((hi, walls_minus))
        nwp, ni = walls_plus.size, lo.size

        at_plus = (plus, slice(None)) + last
        at_minus = (minus, slice(None)) + first
        Up = U[at_plus]
        Um = U[at_minus]
        ghost = np.concatenate((Up[:nwp], Um[ni:]))
        ghost[:, mom] = -ghost[:, mom]
        pp = pprime[(plus,) + last]
        pm = pprime[(minus,) + first]
        star = self._llf(
            np.concatenate((Up, ghost[nwp:])),
            np.concatenate((ghost[:nwp], Um)),
            np.concatenate((pp, pm[ni:])),
            np.concatenate((pp[:nwp], pm)),
            np.concatenate((self.p_bar[(plus,) + last], self.p_bar[(walls_minus,) + first])),
            mom,
        )
        out[at_plus] -= lift * (star[: plus.size] - F[at_plus])
        out[at_minus] += lift * (star[nwp:] - F[at_minus])

    # -- timestep ---------------------------------------------------------

    def max_wave_speed_metric(self, U: np.ndarray) -> float:
        """max over nodes of Σ_d m_d (|u_d| + c): the CFL denominator."""
        from repro.clamr.backends import try_self_max_metric

        mx_, my_, mz_ = self.metric
        compiled = try_self_max_metric(
            U, mx_, my_, mz_, self._gamma, self._gm1, self.dtype
        )
        if compiled is not None:
            return compiled
        rho, u, v, w, p = self.primitives(U)
        c = self.sound_speed(rho, p)
        mx, my, mz = self.metric
        total = mx * (np.abs(u) + c) + my * (np.abs(v) + c) + mz * (np.abs(w) + c)
        return float(total.max())

    def stable_dt(self, U: np.ndarray, courant: float = 0.3) -> float:
        """CFL timestep: dt = C · 2 / ((2N+1) · max Σ m_d(|u_d|+c))."""
        if not 0.0 < courant <= 1.0:
            raise ValueError("courant must be in (0, 1]")
        denom = self.max_wave_speed_metric(U) * (2 * self.mesh.order + 1)
        return courant * 2.0 / denom
