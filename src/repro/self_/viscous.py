"""Viscous terms for SELF: from Euler to compressible Navier-Stokes.

The paper describes SELF as solving "the 3-D Compressible Navier-Stokes
equations"; the thermal-bubble experiment is effectively inviscid (the
physical viscosity of air is invisible at 1 km scales over seconds), so
the core solver in :mod:`repro.self_.equations` is Euler + spectral
filter.  This module supplies the viscous operator for configurations
that want real dissipation — small-scale runs, manufactured-solution
tests, or using viscosity *instead of* the modal filter:

* **stress tensor** τ = μ(∇u + ∇uᵀ) − (2/3)μ(∇·u)I with constant dynamic
  viscosity μ;
* **heat flux** q = −κ∇T, κ from a constant Prandtl number;
* discretization: a *compact* DG viscous operator — element-local
  gradients and stress divergence through the collocation derivative
  matrices, plus a symmetric interface penalty on the velocity and
  temperature jumps (strength μ/h, the interior-penalty scaling).  This
  simplification (vs full BR1 lifting) is consistent for well-resolved
  laminar fields and unconditionally dissipative, which is all the
  mini-app's use cases need; DESIGN.md records it as a substitution.

The operator adds to a RHS tensor in place, at the solver dtype, so the
single/double precision study covers the viscous path too.
"""

from __future__ import annotations

import math

import numpy as np

from repro.self_.basis import apply_along
from repro.self_.equations import RHO, RHOE, RHOU, RHOV, RHOW, CompressibleEuler

__all__ = ["ViscousOperator"]


class ViscousOperator:
    """Constant-coefficient viscous/thermal diffusion for the DGSEM solver.

    Parameters
    ----------
    solver:
        The :class:`CompressibleEuler` instance to augment (supplies the
        mesh, basis, metric factors, dtype and background).
    mu:
        Dynamic viscosity (Pa·s).
    prandtl:
        Prandtl number; thermal conductivity is κ = μ c_p / Pr.
    penalty:
        Interface-penalty prefactor (dimensionless); the jump term is
        ``penalty · μ / h`` per face.
    """

    def __init__(
        self,
        solver: CompressibleEuler,
        mu: float,
        prandtl: float = 0.72,
        penalty: float = 4.0,
    ) -> None:
        if not (math.isfinite(mu) and mu >= 0):
            raise ValueError(f"viscosity must be finite and non-negative, got {mu}")
        if not (math.isfinite(prandtl) and prandtl > 0):
            raise ValueError(f"Prandtl number must be finite and positive, got {prandtl}")
        if not (math.isfinite(penalty) and penalty >= 0):
            raise ValueError(f"penalty must be finite and non-negative, got {penalty}")
        self.solver = solver
        self.dtype = solver.dtype
        self.mu = self.dtype.type(mu)
        self.kappa = self.dtype.type(mu * solver.constants.cp / prandtl)
        self.penalty = self.dtype.type(penalty)
        self._third2 = self.dtype.type(2.0 / 3.0)

    # -- derivatives -------------------------------------------------------

    def _d(self, field: np.ndarray, axis: int) -> np.ndarray:
        """Element-local physical derivative of a nodal scalar field along ``axis``."""
        return self.solver.metric[axis] * apply_along(self.solver.D, field, axis)

    def _grad(self, field: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Element-local physical gradient of a nodal scalar field."""
        return self._d(field, 0), self._d(field, 1), self._d(field, 2)

    def _div(self, fx: np.ndarray, fy: np.ndarray, fz: np.ndarray) -> np.ndarray:
        """Element-local divergence of a nodal vector field."""
        return self._d(fx, 0) + self._d(fy, 1) + self._d(fz, 2)

    # -- the operator --------------------------------------------------------

    def add_rhs(self, U: np.ndarray, out: np.ndarray) -> None:
        """Accumulate the viscous contribution into ``out`` (same shape as U)."""
        solver = self.solver
        if U.shape != out.shape:
            raise ValueError("state and RHS tensors must share a shape")
        rho, u, v, w, p = solver.primitives(U)
        R = solver.constants.gas_constant
        T = p / (self.dtype.type(R) * rho)

        ux, uy, uz = self._grad(u)
        vx, vy, vz = self._grad(v)
        wx, wy, wz = self._grad(w)
        divu = ux + vy + wz

        mu = self.mu
        tau_xx = mu * (ux + ux - self._third2 * divu)
        tau_yy = mu * (vy + vy - self._third2 * divu)
        tau_zz = mu * (wz + wz - self._third2 * divu)
        tau_xy = mu * (uy + vx)
        tau_xz = mu * (uz + wx)
        tau_yz = mu * (vz + wy)

        Tx, Ty, Tz = self._grad(T)
        qx = -self.kappa * Tx
        qy = -self.kappa * Ty
        qz = -self.kappa * Tz

        out[:, RHOU] += self._div(tau_xx, tau_xy, tau_xz)
        out[:, RHOV] += self._div(tau_xy, tau_yy, tau_yz)
        out[:, RHOW] += self._div(tau_xz, tau_yz, tau_zz)
        # energy: ∇·(τ·u − q)
        ex = tau_xx * u + tau_xy * v + tau_xz * w - qx
        ey = tau_xy * u + tau_yy * v + tau_yz * w - qy
        ez = tau_xz * u + tau_yz * v + tau_zz * w - qz
        out[:, RHOE] += self._div(ex, ey, ez)

        if self.penalty > 0:
            self._interface_penalty(u, v, w, T, out)

    # -- interface penalty -----------------------------------------------

    def _interface_penalty(self, u, v, w, T, out) -> None:
        """Symmetric jump penalty on (u, v, w, T) across interior faces.

        For each face, both sides receive −σ(q_self − q_neighbor)/w_end,
        with σ = penalty · μ / h.  The term is momentum- and
        energy-conservative (equal and opposite on the two sides) and
        strictly dissipative for the velocity jump energy.  Each element
        appears at most once in ``interior_lo`` and once in
        ``interior_hi``, so the fancy ``+=`` updates every face slot once.
        """
        solver = self.solver
        w_end = solver.basis.weights[-1]
        # velocity jumps are penalized with μ, the temperature jump with κ
        fields = (
            (RHOU, u, self.mu),
            (RHOV, v, self.mu),
            (RHOW, w, self.mu),
            (RHOE, T, self.kappa),
        )
        for axis, (lo, hi, _, _) in enumerate(solver.faces):
            metric = solver.metric[axis]
            lift = metric / w_end
            last = (slice(None),) * axis + (-1,)
            first = (slice(None),) * axis + (0,)
            for slot, q, coeff in fields:
                # σ ~ coeff / h: metric = 2/h, so σ = penalty · coeff · metric / 2
                sigma = self.penalty * coeff * metric * self.dtype.type(0.5)
                jump = q[(lo,) + last] - q[(hi,) + first]
                out[(lo, slot) + last] += -lift * sigma * jump
                out[(hi, slot) + first] += lift * sigma * jump
