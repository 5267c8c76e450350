"""The CLAMR side of the kernel backends: mesh/state objects to loop calls.

Each ``try_*`` marshals CLAMR's mesh, state and face lists into the flat
calling convention of :mod:`.loops` (and its C mirror) and calls the
active backend's routine, or returns None so the caller runs its NumPy
oracle.  The CLAMR kernels import this module; the package itself holds
only the selection switch, so a SELF process that selects a backend
loads none of it.
"""

from __future__ import annotations

import numpy as np

from repro.clamr.backends import _WARMED, dispatch_ops, topology_ops


def _links(mesh) -> tuple | None:
    """(nlft, nrht, nbot, ntop, level) when all are contiguous int32 per cell.

    Anything else (a hand-assigned neighbor array, say) runs the NumPy
    form, which raises or computes on its own terms.
    """
    arrays = (mesh.nlft, mesh.nrht, mesh.nbot, mesh.ntop, mesh.level)
    n = mesh.ncells
    for a in arrays:
        if a.dtype != np.int32 or a.shape != (n,) or not a.flags.c_contiguous:
            return None
    return arrays


def try_mesh_neighbors(mesh, img: np.ndarray) -> tuple | None:
    """(nlft, nrht, nbot, ntop) int32 from the active backend; None → NumPy.

    ``img`` is the flat ``(nyf+2)*(nxf+2)`` int32 image to paint, reused
    across rebuilds (the builder fills it first).  An overlapping or
    gapped cell soup (or a block outside the domain) also returns None,
    so the NumPy form raises its own error.
    """
    ops = topology_ops()
    if ops is None:
        return None
    arrays = (mesh.i, mesh.j, mesh.level)
    if any(a.dtype != np.int32 or not a.flags.c_contiguous for a in arrays):
        return None
    n = mesh.ncells
    nbrs = tuple(np.empty(n, dtype=np.int32) for _ in range(4))
    if ops.mesh_neighbors(*arrays, mesh.nx, mesh.ny, mesh.max_level, img, *nbrs):
        return None
    return nbrs


def try_face_lists(mesh) -> tuple[dict, np.ndarray, tuple] | None:
    """FaceLists fields from the active backend; None → NumPy.

    Returns ``(fields, bcells, slices)``: the ten dataclass fields (the
    wall lists are views into ``bcells``, all four sides concatenated) and
    the ``boundary_concat`` pair, so the walls are never concatenated
    again.
    """
    ops = topology_ops()
    links = None if ops is None else _links(mesh)
    if links is None:
        return None
    counts = np.zeros(8, dtype=np.int64)
    if ops.face_count(*links, counts):
        return None
    nxf = int(counts[0] + counts[1])
    nyf = int(counts[2] + counts[3])
    edges = np.concatenate(([0], np.cumsum(counts[4:]))).tolist()
    xl, xr, yb, yt = (np.empty(m, dtype=np.int64) for m in (nxf, nxf, nyf, nyf))
    xsize, ysize = np.empty(nxf), np.empty(nyf)
    bcells = np.empty(edges[-1], dtype=np.int64)
    ops.face_fill(*links, mesh.coarse_size, counts, xl, xr, xsize, yb, yt, ysize, bcells)
    slices = tuple(slice(edges[k], edges[k + 1]) for k in range(4))
    sides = (bcells[sl] for sl in slices)
    fields = dict(xl=xl, xr=xr, xsize=xsize, yb=yb, yt=yt, ysize=ysize,
                  **dict(zip(("bnd_left", "bnd_right", "bnd_bottom", "bnd_top"), sides)))
    return fields, bcells, slices


def try_refinement_flags(mesh, H, refine: float, coarsen: float) -> np.ndarray | None:
    """int8 flags from the quantized float64 depths ``H``; None → NumPy."""
    ops = topology_ops()
    links = None if ops is None else _links(mesh)
    if links is None or H.dtype != np.float64 or not H.flags.c_contiguous:
        return None
    flags = np.empty(mesh.ncells, dtype=np.int8)
    scratch = np.empty(mesh.ncells, dtype=np.float64)
    if ops.refinement_flags(H, *links, mesh.max_level, 1e-12, refine, coarsen, scratch, flags):
        return None
    return flags


def try_enforce_balance(mesh, flags: np.ndarray) -> bool:
    """Balance the (copied, int8) ``flags`` in place; False → run NumPy."""
    ops = topology_ops()
    links = None if ops is None else _links(mesh)
    if links is None:
        return False
    nlft, nrht, nbot, ntop, level = links
    forced = np.empty(mesh.ncells, dtype=np.uint8)
    return not ops.enforce_balance(
        flags, level, nlft, nrht, nbot, ntop, mesh.max_level, forced
    )


def _boundary_table(faces) -> tuple[np.ndarray, np.ndarray]:
    """(bcells int64, side offsets [l0, r0, b0, t0, nb] int64), memoized."""
    cached = getattr(faces, "_bk_boundary", None)
    if cached is None:
        bcells, (sl_l, sl_r, sl_b, sl_t) = faces.boundary_concat()
        bcells = np.ascontiguousarray(bcells, dtype=np.int64)
        boff = np.array(
            [sl_l.start, sl_r.start, sl_b.start, sl_t.start, bcells.size],
            dtype=np.int64,
        )
        cached = (bcells, boff)
        object.__setattr__(faces, "_bk_boundary", cached)
    return cached


def try_clamr_rhs(mesh, H, U, V, faces, cdtype, geom, slot, bathy, muscl):
    """CLAMR area-weighted rates on the active backend; None → oracle.

    ``bathy`` is the bottom already cast to ``cdtype`` (None: flat);
    ``muscl`` selects the second-order reconstruction.
    """
    ops = dispatch_ops(cdtype)
    if ops is None:
        return None
    from repro.clamr.state import GRAVITY  # loaded by the calling kernel

    ct = cdtype.type
    size, _ = geom.geometry(mesh, cdtype)
    dH, dU, dV = geom.workspace3(mesh, cdtype, slot=slot)
    xplan, yplan = faces.scatter_plans(mesh.ncells)
    bcells, boff = _boundary_table(faces)
    maxf = max(int(faces.xl.size), int(faces.yb.size), 1)
    fb = geom.buffer(mesh, cdtype, "bk_flux", (4, maxf))
    nbrs = (None,) * 4
    sl = eta = None
    if muscl:
        nbrs = tuple(np.ascontiguousarray(a, dtype=np.int32)
                     for a in (mesh.nlft, mesh.nrht, mesh.nbot, mesh.ntop))
        sl = geom.buffer(mesh, cdtype, "bk_slopes", (6, mesh.ncells))
        if bathy is not None:
            eta = H + bathy
    ops.clamr_rhs(
        H, U, V, bathy, eta, *nbrs, size,
        faces.xl, faces.xr, xplan.indptr, xplan.cols, xplan._signed(cdtype),
        faces.yb, faces.yt, yplan.indptr, yplan.cols, yplan._signed(cdtype),
        bcells, boff, sl, fb[0], fb[1], fb[2], fb[3], dH, dU, dV,
        ct(GRAVITY), ct(0.5),
    )
    return dH, dU, dV


def warm_clamr_rhs(ops, dt: np.dtype) -> None:
    """Run :func:`try_clamr_rhs` once on a tiny mesh (once per backend and dtype).

    MUSCL over bathymetry is its most general call.
    """
    key = (ops.name, dt)
    if key in _WARMED:
        return
    from repro.clamr.kernels import FaceLists, GeometryCache
    from repro.clamr.mesh import AmrMesh

    mesh = AmrMesh.uniform(4, 4, max_level=0)
    H = np.linspace(1.0, 2.0, mesh.ncells).astype(dt)
    U = np.zeros_like(H)
    faces = FaceLists.from_mesh(mesh)
    try_clamr_rhs(mesh, H, U, U, faces, dt, GeometryCache(), "warmup", H / 8, True)
    _WARMED.add(key)
