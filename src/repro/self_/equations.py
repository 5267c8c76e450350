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

import math
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


def _carve(flat: np.ndarray, *shapes: tuple[int, ...]) -> list[np.ndarray]:
    """Consecutive C-contiguous views of the 1-D buffer ``flat``."""
    views, at = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[at : at + size].reshape(shape))
        at += size
    return views


@dataclass(frozen=True)
class _FaceWork:
    """One axis' surface pass: its stacked row indices and face buffers.

    The ``_llf`` rows are ``[+ walls; interior; - walls]``.  ``src``
    holds every element's + face and then every element's - face, so the
    left and right states are its rows ``left`` and ``right``.
    ``star[plus_rows]`` and ``star[minus_rows]`` are the face fluxes in
    element order, for the + and - face slots.
    """

    left: np.ndarray
    right: np.ndarray
    plus_rows: np.ndarray
    minus_rows: np.ndarray
    nwalls_plus: int
    pbar: np.ndarray  # background pressure on the left rows
    src: np.ndarray
    UL: np.ndarray
    UR: np.ndarray
    FL: np.ndarray
    FR: np.ndarray
    psrc: np.ndarray
    pL: np.ndarray
    pR: np.ndarray
    scalars: tuple[np.ndarray, ...]  # velL, velR, pfullL, pfullR, cL, cR, scratch


def _face_slots(axis: int, side: int, lead: int) -> tuple:
    """Index of the node face ``side`` (-1 or 0) across node axis ``axis``.

    ``lead`` counts the axes before the node block: 2 for a state tensor
    ``(nelem, 5, n, n, n)``, 1 for a scalar field ``(nelem, n, n, n)``.
    """
    return (slice(None),) * (lead + axis) + (side,)


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

    The solver owns its workspace, allocated here once: every full-size
    tensor of :meth:`rhs` and the numpy CFL reduction is written into it,
    so a step allocates nothing.  One instance must therefore not run two
    :meth:`rhs` calls at once (from two threads).
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
        self._allocate_workspace()

    def _allocate_workspace(self) -> None:
        """The RHS workspace: three arrays, views reused across phases.

        ``_prim`` holds u, v, w, p (then p'), a scratch slot and p' + p̄;
        ``_stash`` the three fluxes at each element's + and - faces, which
        the surface terms need after the next flux has overwritten the
        volume buffer.  The volume phase uses ``_shared`` as the flux and
        contraction buffers; each surface pass reuses the same memory for
        its face buffers.
        """
        E, n = self.mesh.nelem, self.mesh.npoints
        state = (E, 5, n, n, n)
        self._prim = np.empty((6, E, n, n, n), dtype=self.dtype)
        self._stash = np.empty((3, 2, E, 5, n, n), dtype=self.dtype)

        def face_shapes(rows: int) -> list[tuple[int, ...]]:
            # src, UL, UR, FL, FR, psrc, then pL, pR and the _llf scalars
            return [(2 * E, 5, n, n)] + [(rows, 5, n, n)] * 4 + [(2 * E, n, n)] + [(rows, n, n)] * 9

        rows = [E + walls_minus.size for *_, walls_minus in self.faces]
        self._shared = np.empty(
            max([2 * math.prod(state)] + [sum(map(math.prod, face_shapes(r))) for r in rows]),
            dtype=self.dtype,
        )
        self._volume = _carve(self._shared, state, state)
        work = []
        for axis, (lo, hi, walls_plus, walls_minus) in enumerate(self.faces):
            plus = np.concatenate((walls_plus, lo))
            minus = np.concatenate((hi, walls_minus))
            left = np.concatenate((plus, E + walls_minus))
            src, UL, UR, FL, FR, psrc, pL, pR, *scalars = _carve(
                self._shared, *face_shapes(left.size)
            )
            pbar_src = np.concatenate(
                (self.p_bar[_face_slots(axis, -1, 1)], self.p_bar[_face_slots(axis, 0, 1)])
            )
            work.append(_FaceWork(
                left=left,
                right=np.concatenate((walls_plus, E + minus)),
                plus_rows=np.argsort(plus),
                minus_rows=walls_plus.size + np.argsort(minus),
                nwalls_plus=walls_plus.size,
                pbar=pbar_src[left],
                src=src, UL=UL, UR=UR, FL=FL, FR=FR, psrc=psrc, pL=pL, pR=pR,
                scalars=tuple(scalars),
            ))
        self._face_work = tuple(work)

    # -- thermodynamics ---------------------------------------------------

    def primitives(self, U: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
        """(ρ, u, v, w, p) from the conserved state.

        ρ is a view of ``U``.  ``out`` is an optional ``(5, nelem, n, n,
        n)`` buffer: u, v, w and p are written into its first four slots
        and the fifth is scratch.  Without it the results are new arrays.
        """
        rho = U[:, RHO]
        if out is None:
            out = np.empty((5,) + rho.shape, dtype=np.result_type(U, self.dtype))
        u, v, w, p, scratch = out
        np.divide(U[:, RHOU], rho, out=u)
        np.divide(U[:, RHOV], rho, out=v)
        np.divide(U[:, RHOW], rho, out=w)
        # kinetic = 0.5 ρ (u² + v² + w²), then p = (γ - 1)(ρE - kinetic)
        np.multiply(u, u, out=p)
        p += np.multiply(v, v, out=scratch)
        p += np.multiply(w, w, out=scratch)
        p *= np.multiply(self.dtype.type(0.5), rho, out=scratch)
        np.subtract(U[:, RHOE], p, out=p)
        p *= self._gm1
        return rho, u, v, w, p

    def sound_speed(self, rho: np.ndarray, p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        c = np.multiply(self._gamma, p, out=out)
        c /= rho
        return np.sqrt(c, out=c)

    def background_state(self) -> np.ndarray:
        """The hydrostatic background as a conserved-variable tensor."""
        n = self.mesh.npoints
        U = np.zeros((self.mesh.nelem, 5, n, n, n), dtype=self.dtype)
        U[:, RHO] = self.rho_bar
        U[:, RHOE] = self.p_bar / self._gm1
        return U

    # -- fluxes -----------------------------------------------------------

    def _flux(
        self,
        U: np.ndarray,
        pprime: np.ndarray,
        p_full: np.ndarray,
        vel: np.ndarray,
        mom: int,
        out: np.ndarray | None = None,
        scratch: np.ndarray | None = None,
    ) -> np.ndarray:
        """Flux tensor in the direction whose velocity is ``vel``.

        ``mom`` is the conserved slot of the normal momentum; the pressure
        perturbation enters that component only.  The energy flux uses the
        full pressure ``p_full`` = p' + p̄ (at rest the velocity factor
        zeroes it regardless).  ``scratch`` takes p_full · vel.
        """
        F = np.multiply(U, vel[:, None], out=out)
        Fm = F[:, mom]
        np.add(Fm, pprime, out=Fm)
        Fe = F[:, RHOE]
        np.add(Fe, np.multiply(p_full, vel, out=scratch), out=Fe)
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
        Every intermediate lives in the face buffers of the axis whose
        normal momentum is ``mom``; the result is its ``FL`` buffer.
        """
        wk = self._face_work[mom - RHOU]
        velL, velR, pfullL, pfullR, cL, cR, scratch = wk.scalars
        half = self.dtype.type(0.5)
        np.divide(UL[:, mom], UL[:, RHO], out=velL)
        np.divide(UR[:, mom], UR[:, RHO], out=velR)
        np.add(pL, pbar, out=pfullL)
        np.add(pR, pbar, out=pfullR)
        self.sound_speed(UL[:, RHO], pfullL, out=cL)
        self.sound_speed(UR[:, RHO], pfullR, out=cR)
        # lam = max(|velL| + cL, |velR| + cR)
        np.add(np.abs(velL, out=scratch), cL, out=cL)
        np.add(np.abs(velR, out=scratch), cR, out=cR)
        lam = np.maximum(cL, cR, out=cL)
        FL = self._flux(UL, pL, pfullL, velL, mom, out=wk.FL, scratch=scratch)
        FR = self._flux(UR, pR, pfullR, velR, mom, out=wk.FR, scratch=scratch)
        # half (FL + FR) - half lam (UR - UL)
        FL += FR
        FL *= half
        lam *= half
        np.subtract(UR, UL, out=FR)
        FR *= lam[:, None]
        FL -= FR
        return FL

    # -- the RHS ----------------------------------------------------------

    def rhs(self, U: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """dU/dt for the current state, written into ``out``.

        Without ``out`` the result is a new tensor.  ``out`` must match
        ``U`` in shape and dtype and must not overlap it.
        """
        mesh = self.mesh
        n = mesh.npoints
        if U.shape != (mesh.nelem, 5, n, n, n):
            raise ValueError(f"state tensor has wrong shape {U.shape}")
        if U.dtype != self.dtype:
            raise ValueError(f"state dtype {U.dtype} != solver dtype {self.dtype}")
        if out is None:
            out = np.empty_like(U)
        elif out.shape != U.shape or out.dtype != U.dtype:
            raise ValueError(f"rhs out {out.shape} {out.dtype} does not match the state")
        elif np.may_share_memory(out, U):
            raise ValueError("rhs out must not overlap the state")
        D = self.D
        rho, u, v, w, p = self.primitives(U, out=self._prim[:5])
        scratch = self._prim[4]
        pprime = np.subtract(p, self.p_bar, out=p)
        p_full = np.add(pprime, self.p_bar, out=self._prim[5])

        # volume terms: out = -(m_d D F_d) summed over directions.  Each
        # flux's face values are stashed before the next overwrites it.
        F, G = self._volume
        for axis, vel in enumerate((u, v, w)):
            self._flux(U, pprime, p_full, vel, RHOU + axis, out=F, scratch=scratch)
            np.copyto(self._stash[axis, 0], F[_face_slots(axis, -1, 2)])
            np.copyto(self._stash[axis, 1], F[_face_slots(axis, 0, 2)])
            if axis == 0:
                apply_along(D, F, 0, out=out)
                out *= -self.metric[0]
            else:
                apply_along(D, F, axis, out=G, scratch=F)
                G *= self.metric[axis]
                out -= G

        # surface terms per direction
        self._surface_x(U, pprime, out, self._stash[0])
        self._surface_y(U, pprime, out, self._stash[1])
        self._surface_z(U, pprime, out, self._stash[2])

        # gravity source (perturbation form)
        np.subtract(rho, self.rho_bar, out=scratch)
        scratch *= self._g
        slot = out[:, RHOW]
        np.subtract(slot, scratch, out=slot)
        np.multiply(self._g, U[:, RHOW], out=scratch)
        slot = out[:, RHOE]
        np.subtract(slot, scratch, out=slot)
        return out

    def _surface_x(self, U: np.ndarray, pprime: np.ndarray, out: np.ndarray, F: np.ndarray) -> None:
        self._surface(0, U, pprime, out, F)

    def _surface_y(self, U: np.ndarray, pprime: np.ndarray, out: np.ndarray, F: np.ndarray) -> None:
        self._surface(1, U, pprime, out, F)

    def _surface_z(self, U: np.ndarray, pprime: np.ndarray, out: np.ndarray, F: np.ndarray) -> None:
        self._surface(2, U, pprime, out, F)

    def _surface(self, axis: int, U: np.ndarray, pprime: np.ndarray, out: np.ndarray, F: np.ndarray) -> None:
        """Lift the face-flux jumps across node axis ``axis`` into ``out``.

        ``F`` holds the volume flux at every element's + and - face.  One
        ``_llf`` call covers every face of the axis, stacked as rows
        ``[+ walls; interior; - walls]``; a wall's outer state is the
        mirror (normal momentum negated).  The first ``len(plus)`` rows,
        ``plus = [walls_plus; interior_lo]``, are the + faces and the rows
        from ``len(walls_plus)``, ``minus = [interior_hi; walls_minus]``,
        the - faces.  Each list is a permutation of the elements, so every
        slot takes exactly one update.
        """
        wk = self._face_work[axis]
        E = U.shape[0]
        nwp = wk.nwalls_plus
        mom = RHOU + axis
        lift = self.metric[axis] / self.w_end
        at_plus = _face_slots(axis, -1, 2)
        at_minus = _face_slots(axis, 0, 2)

        src = wk.src
        np.copyto(src[:E], U[at_plus])
        np.copyto(src[E:], U[at_minus])
        UL = np.take(src, wk.left, axis=0, out=wk.UL, mode="clip")
        UR = np.take(src, wk.right, axis=0, out=wk.UR, mode="clip")
        np.negative(UL[E:, mom], out=UL[E:, mom])
        np.negative(UR[:nwp, mom], out=UR[:nwp, mom])
        psrc = wk.psrc
        np.copyto(psrc[:E], pprime[_face_slots(axis, -1, 1)])
        np.copyto(psrc[E:], pprime[_face_slots(axis, 0, 1)])
        pL = np.take(psrc, wk.left, axis=0, out=wk.pL, mode="clip")
        pR = np.take(psrc, wk.right, axis=0, out=wk.pR, mode="clip")
        star = self._llf(UL, UR, pL, pR, wk.pbar, mom)

        jump = src[:E]
        for rows, flux, face, update in (
            (wk.plus_rows, F[0], out[at_plus], np.subtract),
            (wk.minus_rows, F[1], out[at_minus], np.add),
        ):
            np.take(star, rows, axis=0, out=jump, mode="clip")
            jump -= flux
            jump *= lift
            update(face, jump, out=face)

    # -- timestep ---------------------------------------------------------

    def max_wave_speed_metric(self, U: np.ndarray) -> float:
        """max over nodes of Σ_d m_d (|u_d| + c): the CFL denominator."""
        mx, my, mz = self.metric
        rho, u, v, w, p = self.primitives(U, out=self._prim[:5])
        c = self.sound_speed(rho, p, out=p)

        def term(m: np.generic, vel: np.ndarray) -> np.ndarray:
            # m_d (|u_d| + c), in the velocity's buffer
            t = np.abs(vel, out=vel)
            t += c
            t *= m
            return t

        total = term(mx, u)
        total += term(my, v)
        total += term(mz, w)
        return float(total.max())

    def stable_dt(self, U: np.ndarray, courant: float = 0.3) -> float:
        """CFL timestep: dt = C · 2 / ((2N+1) · max Σ m_d(|u_d|+c))."""
        if not 0.0 < courant <= 1.0:
            raise ValueError("courant must be in (0, 1]")
        denom = self.max_wave_speed_metric(U) * (2 * self.mesh.order + 1)
        return courant * 2.0 / denom
