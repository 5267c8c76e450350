"""Cell-based AMR mesh with hashed neighbor finding, after CLAMR.

CLAMR's defining data structure (Nicholaeff et al., LA-UR-11-07127) is a
*cell soup*: the mesh is three flat integer arrays ``(i, j, level)`` — no
quadtree is kept in memory.  Cell ``c`` at level ``l`` covers the square

    [i_c, i_c+1) × [j_c, j_c+1)   in units of  (coarse cell size) / 2**l.

Neighbor connectivity is recomputed after every regrid through a
finest-level spatial hash: an ``(nxf, nyf)`` integer image at the finest
level where every fine pixel holds the index of the (unique, by the AMR
nesting property) cell covering it.  A cell's left neighbor is then simply
the cell found one fine pixel to the left of its lower-left corner — a pure
array-gather, no tree walk.  With the 2:1 balance CLAMR enforces, a face
has at most two cells on its finer side; the convention (CLAMR's) is that
``nlft``/``nrht`` record the neighbor adjacent to the *bottom* of the face
and ``nbot``/``ntop`` the neighbor adjacent to the *left*; the second fine
neighbor, when it exists, is reachable as ``ntop[nlft[c]]`` etc.

Boundary cells point to **themselves** on their outer sides (CLAMR's
sentinel for reflective walls); kernels test ``nlft[c] == c``.

Everything here is integer mesh topology; the floating-point state lives in
:mod:`repro.clamr.state` so that mesh operations are precision-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.clamr.backends import bridge as _bridge

__all__ = ["AmrMesh"]

_INT = np.int32

#: the padded int32 image every neighbor rebuild paints into: one per
#: process, grown to the largest mesh it has seen (see _padded_image)
_IMAGE = np.empty(0, dtype=_INT)


def _padded_image(npixels: int) -> np.ndarray:
    """The first ``npixels`` of the process's neighbor image, contents undefined.

    Every rebuild overwrites the whole prefix before reading it, and no
    view of it outlives the rebuild, so one image serves every mesh (a
    process builds its meshes on one thread).
    """
    global _IMAGE
    if _IMAGE.size < npixels:
        _IMAGE = np.empty(npixels, dtype=_INT)
    return _IMAGE[:npixels]


@dataclass
class AmrMesh:
    """A cell-soup AMR mesh over an ``nx × ny`` coarse grid.

    Attributes
    ----------
    nx, ny:
        Coarse-grid extent (level-0 cells per side).
    max_level:
        Maximum refinement level allowed (paper runs use 2).
    i, j, level:
        Per-cell integer coordinates and level, ``int32``.
    nlft, nrht, nbot, ntop:
        Per-cell neighbor indices (see module docstring for the two-fine-
        neighbor convention); boundary sides self-reference.
    coarse_size:
        Physical edge length of a level-0 cell.
    """

    nx: int
    ny: int
    max_level: int
    i: np.ndarray
    j: np.ndarray
    level: np.ndarray
    coarse_size: float = 1.0

    #: process-wide topology-generation counter; every constructed mesh gets
    #: a unique ``generation``, so caches keyed on it (FaceLists, geometry
    #: casts, scratch buffers) are invalidated exactly when a regrid hands
    #: back a new mesh object and never sooner
    _generation_counter = 0

    def __post_init__(self) -> None:
        AmrMesh._generation_counter += 1
        self.generation = AmrMesh._generation_counter
        if self.nx < 1 or self.ny < 1:
            raise ValueError("nx and ny must be at least 1")
        if self.max_level < 0:
            raise ValueError("max_level must be non-negative")
        if self.coarse_size <= 0:
            raise ValueError("coarse_size must be positive")
        self.i = np.asarray(self.i, dtype=_INT)
        self.j = np.asarray(self.j, dtype=_INT)
        self.level = np.asarray(self.level, dtype=_INT)
        if not (self.i.shape == self.j.shape == self.level.shape) or self.i.ndim != 1:
            raise ValueError("i, j, level must be 1-D arrays of equal length")
        if self.ncells == 0:
            raise ValueError("mesh must contain at least one cell")
        if self.level.min() < 0 or self.level.max() > self.max_level:
            raise ValueError("cell levels out of [0, max_level]")
        self._validate_bounds()
        self.nlft = np.empty(0, dtype=_INT)
        self.nrht = np.empty(0, dtype=_INT)
        self.nbot = np.empty(0, dtype=_INT)
        self.ntop = np.empty(0, dtype=_INT)
        self.rebuild_neighbors()

    # -- construction ---------------------------------------------------

    @classmethod
    def uniform(cls, nx: int, ny: int, max_level: int = 0, level: int = 0, coarse_size: float = 1.0) -> "AmrMesh":
        """A uniform mesh with every cell at the given level."""
        if level > max_level:
            raise ValueError("level cannot exceed max_level")
        factor = 1 << level
        jj, ii = np.meshgrid(np.arange(ny * factor, dtype=_INT), np.arange(nx * factor, dtype=_INT), indexing="ij")
        return cls(
            nx=nx,
            ny=ny,
            max_level=max_level,
            i=ii.ravel(),
            j=jj.ravel(),
            level=np.full(ii.size, level, dtype=_INT),
            coarse_size=coarse_size,
        )

    # -- basic geometry ---------------------------------------------------

    @property
    def ncells(self) -> int:
        return int(self.i.size)

    @property
    def finest_factor(self) -> int:
        """Fine pixels per coarse cell edge, 2**max_level."""
        return 1 << self.max_level

    @property
    def nxf(self) -> int:
        return self.nx * self.finest_factor

    @property
    def nyf(self) -> int:
        return self.ny * self.finest_factor

    def cell_size(self, out: np.ndarray | None = None) -> np.ndarray:
        """Physical edge length of every cell (float64 — mesh metadata).

        ``out`` is a float64 array of one value per cell to write into.
        """
        out = np.ldexp(np.float64(1), self.level, out=out)  # 2**level, exactly
        return np.divide(self.coarse_size, out, out=out)

    def cell_span_fine(self) -> np.ndarray:
        """Edge length of every cell in fine-pixel units."""
        return (1 << (self.max_level - self.level)).astype(_INT)

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Physical (x, y) centers of every cell (float64)."""
        size = self.cell_size()
        x = (self.i.astype(np.float64) + 0.5) * size
        y = (self.j.astype(np.float64) + 0.5) * size
        return x, y

    def cell_area(self) -> np.ndarray:
        """Physical area of every cell."""
        return self.cell_size() ** 2

    # -- spatial hash and neighbors --------------------------------------

    def build_hash(self, out: np.ndarray | None = None) -> np.ndarray:
        """The finest-level hash image: fine pixel -> covering cell index.

        Raises if cells overlap or leave gaps — i.e. the (i, j, level) soup
        is not a valid non-overlapping cover of the domain.  This makes the
        hash double as the mesh validity check, exactly the role it plays
        in CLAMR's own debug builds.

        ``out`` is an ``(nyf, nxf)`` integer view already filled with
        ``-1`` (the interior of the neighbor rebuild's padded image, so
        strided) to paint into; by default a new int64 image.

        Painting is vectorized per refinement level: viewing the image as
        ``(nyf/s, s, nxf/s, s)`` blocks, a level-``s`` cell ``(i, j)`` is
        exactly block ``[j, :, i, :]``, so one fancy-indexed assignment
        paints every cell of the level.  Validation is an exact integer
        count: the painted area ``Σ span²`` exceeds the covered pixel count
        iff some pixel was painted twice (overlap), and a covered count
        below ``nxf·nyf`` means gaps.  Overlap is reported first.
        """
        image = np.full((self.nyf, self.nxf), -1, dtype=np.int64) if out is None else out
        counts = np.bincount(self.level)
        painted = 0
        for lvl in np.flatnonzero(counts):
            sel = np.flatnonzero(self.level == lvl)
            s = 1 << (self.max_level - int(lvl))
            # splitting both axes is a view, strided or not
            blocks = image.reshape(self.nyf // s, s, self.nxf // s, s)
            blocks[self.j[sel], :, self.i[sel], :] = sel[:, None, None]
            painted += int(counts[lvl]) * s * s
        covered = int(np.count_nonzero(image >= 0))
        if painted > covered:
            raise ValueError("mesh cells overlap")
        if covered < self.nxf * self.nyf:
            raise ValueError("mesh does not cover the domain (gaps present)")
        return image

    def rebuild_neighbors(self) -> None:
        """Recompute nlft/nrht/nbot/ntop via the finest-level hash.

        Vectorized: :meth:`build_hash` paints the cells straight into the
        interior of the process's one int32 image with a one-pixel ``-1``
        border (:func:`_padded_image`), then one flat gather per
        direction.  A probe that lands on the border is a domain side,
        where the cell points to itself.  Under a loop backend the same
        paint and probes run as one loop over the cells
        (``mesh_neighbors`` in :mod:`repro.clamr.backends.loops`), into
        the same image; an overlapping or gapped soup falls through to
        this form, which raises.
        """
        width = self.nxf + 2
        flat = _padded_image((self.nyf + 2) * width)
        nbrs = _bridge.try_mesh_neighbors(self, flat)
        if nbrs is not None:
            self.nlft, self.nrht, self.nbot, self.ntop = nbrs
            return
        flat.fill(-1)
        self.build_hash(out=flat.reshape(self.nyf + 2, width)[1:-1, 1:-1])
        span = self.cell_span_fine().astype(np.intp)
        # flat index of each cell's lower-left pixel in the padded image
        corner = (self.j * span + 1) * width + self.i * span + 1
        cells = np.arange(self.ncells, dtype=_INT)

        def probe(offset: np.ndarray | int) -> np.ndarray:
            nbr = np.take(flat, corner + offset)
            return np.where(nbr < 0, cells, nbr)

        self.nlft = probe(-1)  # one pixel left of the lower-left corner
        self.nrht = probe(span)  # one pixel right of the lower-right corner
        self.nbot = probe(-width)  # one pixel below the lower-left corner
        self.ntop = probe(span * width)  # one pixel above the upper-left corner

    def check_balance(self) -> bool:
        """True when no face joins cells more than one level apart (2:1)."""
        for nbr in (self.nlft, self.nrht, self.nbot, self.ntop):
            if np.any(np.abs(self.level[nbr] - self.level) > 1):
                return False
        return True

    # -- sampling ---------------------------------------------------------

    def sample_to_uniform(self, values: np.ndarray) -> np.ndarray:
        """Resample per-cell values onto the finest uniform grid.

        Returns an ``(nyf, nxf)`` image (piecewise-constant injection via
        the hash), the representation the line-out figures are drawn from.
        """
        values = np.asarray(values)
        if values.shape != (self.ncells,):
            raise ValueError(f"expected {self.ncells} per-cell values, got shape {values.shape}")
        return values[self.build_hash()]

    def _validate_bounds(self) -> None:
        factor = 1 << (self.max_level - self.level.astype(np.int64))
        max_i = self.nx * (1 << self.max_level)
        max_j = self.ny * (1 << self.max_level)
        if np.any(self.i.astype(np.int64) * factor < 0) or np.any((self.i.astype(np.int64) + 1) * factor > max_i):
            raise ValueError("cell i-coordinates outside the domain")
        if np.any(self.j.astype(np.int64) * factor < 0) or np.any((self.j.astype(np.int64) + 1) * factor > max_j):
            raise ValueError("cell j-coordinates outside the domain")

    def memory_nbytes(self) -> int:
        """Bytes held by the mesh topology arrays (precision-independent)."""
        arrays = (self.i, self.j, self.level, self.nlft, self.nrht, self.nbot, self.ntop)
        return int(sum(a.nbytes for a in arrays))
