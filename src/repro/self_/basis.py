"""Nodal (Lagrange) basis on GLL points: derivative and modal matrices.

The workhorse object is :class:`NodalBasis`: everything a DGSEM kernel
needs for one polynomial order, precomputed once —

* GLL nodes/weights;
* the collocation derivative matrix ``D`` (``D[i, j] = l'_j(x_i)``) built
  from barycentric weights (numerically stable to high order);
* the Legendre Vandermonde ``V`` and its inverse, for the nodal↔modal
  transform the spectral filter runs through.

Matrices are built in float64 and exposed through :meth:`cast`, which
returns a dtype-converted copy — running SELF in single precision casts
the *operators* too, exactly as compiling the Fortran with default real32
would.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.self_.quadrature import gauss_lobatto, legendre

__all__ = ["NodalBasis", "apply_along", "barycentric_weights", "lagrange_interpolation_matrix"]

#: einsum subscripts contracting a matrix with node axis 0, 1 or 2 of the
#: trailing ``(n, n, n)`` block; leading axes (element, variable) ride along
_ALONG = ("il,...ljk->...ijk", "jl,...ilk->...ijk", "kl,...ijl->...ijk")


def apply_along(
    M: np.ndarray,
    A: np.ndarray,
    axis: int,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """``M`` (n × n) applied along node axis ``axis`` of ``A`` (shape ``(..., n, n, n)``).

    The one tensor contraction of the DGSEM kernel: derivative matrices in
    the volume and viscous terms, the filter matrix in the spectral filter.
    Always ``np.einsum``, never BLAS (``tensordot``/``matmul`` reorder the
    sums, so the bits would change).

    Axis 1 runs on the axis-0 layout: ``A`` with its first two node axes
    swapped is copied into ``out``, the axis-0 ``einsum`` writes into
    ``scratch``, and the result is copied back into ``out`` swapped.  On
    the ``(j, l)`` subscripts directly ``einsum``'s inner loop is only n
    long and runs about 2.5× slower; both layouts accumulate in ascending
    ``l`` from +0 through the same stride-0 × contiguous loop, so the
    bits are the same.  ``scratch`` (allocated when omitted) must not
    overlap ``out`` but may be ``A`` itself, which is then overwritten.

    Axis 2 is never re-laid out: its contiguous reduction sums in SIMD
    lanes (2 for float64, 4 for float32), and any other layout sums in a
    different order and changes the bits.
    """
    n = A.shape[-1]
    if M.shape != (n, n) or A.shape[-3:] != (n, n, n):
        raise ValueError(
            f"apply_along needs an (n, n) matrix and an (..., n, n, n) block, "
            f"got {M.shape} and {A.shape}"
        )
    if axis != 1:
        return np.einsum(_ALONG[axis], M, A, out=out)
    if out is None:
        out = np.empty(A.shape, dtype=np.result_type(M, A))
    if scratch is None:
        scratch = np.empty_like(out)
    elif np.may_share_memory(scratch, out):
        raise ValueError("apply_along scratch must not overlap out")
    np.copyto(out, A.swapaxes(-3, -2))
    np.einsum(_ALONG[0], M, out, out=scratch)
    np.copyto(out, scratch.swapaxes(-3, -2))
    return out


def barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    """Barycentric weights w_j = 1 / prod_{k≠j} (x_j - x_k)."""
    x = np.asarray(nodes, dtype=np.float64)
    n = x.size
    if n < 2:
        raise ValueError("need at least two nodes")
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    return 1.0 / diff.prod(axis=1)


def derivative_matrix(nodes: np.ndarray) -> np.ndarray:
    """Collocation derivative matrix from the barycentric form.

    ``D[i, j] = (w_j / w_i) / (x_i - x_j)`` for i ≠ j, and the diagonal is
    the negative row sum (which enforces exact differentiation of
    constants — the discrete analogue of ∂(1)/∂x = 0).
    """
    x = np.asarray(nodes, dtype=np.float64)
    w = barycentric_weights(x)
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    D = (w[None, :] / w[:, None]) / diff
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


def lagrange_interpolation_matrix(nodes: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Matrix mapping nodal values at ``nodes`` to values at ``targets``.

    Barycentric form; rows for targets that coincide with a node reduce to
    a Kronecker delta (handled exactly, no division by zero).
    """
    x = np.asarray(nodes, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    w = barycentric_weights(x)
    M = np.zeros((t.size, x.size))
    for row, xt in enumerate(t):
        exact = np.isclose(xt, x, rtol=0.0, atol=1e-14)
        if exact.any():
            M[row, np.argmax(exact)] = 1.0
            continue
        terms = w / (xt - x)
        M[row] = terms / terms.sum()
    return M


@dataclass(frozen=True)
class NodalBasis:
    """All per-order operators for the DGSEM kernel (float64 masters).

    Attributes
    ----------
    order:
        Polynomial order N (N+1 GLL nodes per direction).
    nodes, weights:
        GLL points/weights on [-1, 1].
    D:
        Derivative matrix.
    V, Vinv:
        Legendre Vandermonde (orthonormalized) and inverse, for modal
        transforms.
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray
    D: np.ndarray
    V: np.ndarray
    Vinv: np.ndarray

    @classmethod
    @lru_cache(maxsize=32)
    def gll(cls, order: int) -> "NodalBasis":
        """Build (and cache) the basis for polynomial order ``order`` ≥ 1."""
        if order < 1:
            raise ValueError("polynomial order must be at least 1")
        nodes, weights = gauss_lobatto(order + 1)
        D = derivative_matrix(nodes)
        # orthonormalized Legendre Vandermonde: V[i, k] = P̃_k(x_i)
        V = np.stack(
            [legendre(k, nodes) * np.sqrt(k + 0.5) for k in range(order + 1)], axis=1
        )
        Vinv = np.linalg.inv(V)
        return cls(order=order, nodes=nodes, weights=weights, D=D, V=V, Vinv=Vinv)

    @property
    def npoints(self) -> int:
        return self.order + 1

    def cast(self, dtype: np.dtype) -> "CastBasis":
        """Operators converted to the run dtype (the precision knob)."""
        dtype = np.dtype(dtype)
        return CastBasis(
            order=self.order,
            nodes=self.nodes.astype(dtype),
            weights=self.weights.astype(dtype),
            D=self.D.astype(dtype),
            V=self.V.astype(dtype),
            Vinv=self.Vinv.astype(dtype),
        )


@dataclass(frozen=True)
class CastBasis:
    """A :class:`NodalBasis` snapshot at the simulation dtype."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray
    D: np.ndarray
    V: np.ndarray
    Vinv: np.ndarray

    @property
    def npoints(self) -> int:
        return self.order + 1
