"""Distributed CLAMR stepping with simulated halo exchange, on the production kernel.

Per step every rank takes the minimum CFL bound of its owned cells and the
ranks "Allreduce" the minimum.  Each rank then runs
:func:`~repro.clamr.kernels.finite_diff_vectorized` over the faces touching
its owned cells, on a copy of the synchronized state (its ghost layer after
an exchange), and keeps its owned cells.  Those faces are the global lists
masked to the rank, which keeps face order, so each owned cell's scatter
row is its serial row: any rank count gives the serial bits, the
fixed-order remedy of §III-C (Robey et al.).  ``axis_order=("y", "x")``
runs the kernel on transposed face lists with U and V swapped, so y-faces
accumulate first and every cell's sum reassociates.  ``face_order``
(:func:`reorder_faces`) permutes the face lists: bit-neutral on a uniform
mesh (at most one face per cell side per axis), but not on an AMR mesh,
where a coarse cell takes two faces from a finer side.
"""

from __future__ import annotations

import numpy as np

from repro.clamr.kernels import FaceLists, finite_diff_vectorized, geometry_cache, wave_speed
from repro.clamr.mesh import AmrMesh
from repro.clamr.state import ShallowWaterState
from repro.parallel.decomposition import Decomposition

__all__ = ["DistributedClamr", "reorder_faces"]


def reorder_faces(faces: FaceLists, seed: int) -> FaceLists:
    """A seeded permutation of the interior face lists: the same face set in
    another evaluation and accumulation order."""
    rng = np.random.default_rng(seed)
    return _select(faces, rng.permutation(faces.xl.size), rng.permutation(faces.yb.size))


def _select(faces: FaceLists, x, y, owned: np.ndarray | None = None) -> FaceLists:
    """Interior faces indexed by ``x``/``y``; the walls of ``owned`` cells (all if None)."""
    walls = [faces.bnd_left, faces.bnd_right, faces.bnd_bottom, faces.bnd_top]
    if owned is not None:
        walls = [cells[owned[cells]] for cells in walls]
    return FaceLists(faces.xl[x], faces.xr[x], faces.xsize[x], faces.yb[y], faces.yt[y], faces.ysize[y], *walls)


class DistributedClamr:
    """SPMD stepping of a CLAMR ``mesh``/``state`` over a ``decomposition``
    covering its cells.  The topology is static: the driver does not regrid."""

    def __init__(self, mesh: AmrMesh, state: ShallowWaterState, decomposition: Decomposition,
                 face_order: int | None = None, axis_order: tuple[str, str] = ("x", "y")) -> None:
        if decomposition.ncells != mesh.ncells:
            raise ValueError(f"decomposition covers {decomposition.ncells} cells, mesh has {mesh.ncells}")
        if sorted(axis_order) != ["x", "y"]:
            raise ValueError("axis_order must be a permutation of ('x', 'y')")
        self.mesh, self.state, self.decomposition = mesh, state, decomposition
        self.axis_order = tuple(axis_order)
        faces = FaceLists.from_mesh(mesh)
        if face_order is not None:
            faces = reorder_faces(faces, face_order)
        self.swap = self.axis_order == ("y", "x")
        if self.swap:  # y plays x: interior lists and walls trade places
            faces = FaceLists(faces.yb, faces.yt, faces.ysize, faces.xl, faces.xr, faces.xsize,
                              faces.bnd_bottom, faces.bnd_top, faces.bnd_left, faces.bnd_right)
        self.ranks = []
        for own in decomposition.ranks:
            owned = np.zeros(mesh.ncells, dtype=bool)
            owned[own] = True
            x = owned[faces.xl] | owned[faces.xr]
            y = owned[faces.yb] | owned[faces.yt]
            self.ranks.append((np.asarray(own, dtype=np.int64), _select(faces, x, y, owned)))
        self.time = 0.0

    def _uv(self, state: ShallowWaterState) -> tuple[np.ndarray, np.ndarray]:
        return (state.V, state.U) if self.swap else (state.U, state.V)

    def step(self) -> float:
        """One distributed timestep; returns the dt used (the global minimum)."""
        state = self.state
        size, _ = geometry_cache().geometry(self.mesh, state.policy.compute_dtype)
        local_dt = size / wave_speed(state)
        # each rank's CFL bound, then the Allreduce(min) every rank agrees on
        dt = 0.25 * min(float(local_dt[own].min()) for own, _ in self.ranks)
        new = (np.empty_like(state.H), np.empty_like(state.U), np.empty_like(state.V))
        for own, faces in self.ranks:
            halo = ShallowWaterState(state.H.copy(), *(a.copy() for a in self._uv(state)), state.policy)
            finite_diff_vectorized(self.mesh, halo, dt, faces=faces)
            for dst, src in zip(new, (halo.H, *self._uv(halo))):
                dst[own] = src[own]
        state.store(*new)  # the gather: owned updates become globally visible
        self.time += dt
        return dt

    def run(self, steps: int) -> None:
        for _ in range(steps):
            self.step()
