"""Modal roll-off spectral filter.

High-order collocation methods accumulate energy in the highest resolvable
modes (aliasing of the nonlinear fluxes); SELF, like all spectral element
frameworks, ships a spectral filter to drain it.  We implement the
standard exponential roll-off of Hesthaven & Warburton:

    σ_k = 1                                   for k ≤ k_c
    σ_k = exp(-α ((k - k_c)/(N - k_c))^s)     for k > k_c

applied through the modal transform: ``F = V diag(σ) V⁻¹``.  With the
default α = -ln(eps_machine), the top mode is damped to machine epsilon
while modes at the cutoff are untouched.

The filter matrix is built in float64 and cast to the run dtype by the
caller; in a 3-D tensor-product element it is applied along each of the
three directions in turn.
"""

from __future__ import annotations

import numpy as np

from repro.self_.basis import NodalBasis, apply_along

__all__ = ["filter_sigma", "modal_filter_matrix", "apply_filter_3d"]


def filter_sigma(order: int, cutoff: int, strength: float = 36.0, exponent: int = 8) -> np.ndarray:
    """Per-mode damping factors σ_k for the exponential roll-off filter.

    Parameters
    ----------
    order:
        Polynomial order N (modes 0..N).
    cutoff:
        Highest untouched mode k_c; modes above roll off.
    strength:
        α in the exponential; 36 ≈ -ln(float64 eps).
    exponent:
        Roll-off sharpness s (even; higher = sharper).
    """
    if not 0 <= cutoff <= order:
        raise ValueError(f"cutoff must be in [0, {order}], got {cutoff}")
    if strength <= 0:
        raise ValueError("strength must be positive")
    if exponent < 2 or exponent % 2:
        raise ValueError("exponent must be an even integer >= 2")
    k = np.arange(order + 1, dtype=np.float64)
    sigma = np.ones(order + 1)
    if cutoff < order:
        ramp = (k[cutoff + 1 :] - cutoff) / (order - cutoff)
        sigma[cutoff + 1 :] = np.exp(-strength * ramp**exponent)
    return sigma


def modal_filter_matrix(
    order: int, cutoff: int | None = None, strength: float = 36.0, exponent: int = 8
) -> np.ndarray:
    """The nodal-space filter matrix F = V diag(σ) V⁻¹ for GLL points.

    ``cutoff`` defaults to 2N/3 (leave the well-resolved two-thirds alone,
    the usual aliasing rule of thumb).
    """
    basis = NodalBasis.gll(order)
    if cutoff is None:
        cutoff = (2 * order) // 3
    sigma = filter_sigma(order, cutoff, strength, exponent)
    return basis.V @ np.diag(sigma) @ basis.Vinv


def apply_filter_3d(
    field: np.ndarray,
    F: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Apply a 1-D filter matrix along the last three axes of a field.

    ``field`` has shape ``(..., n, n, n)``; the filter is the tensor
    product F ⊗ F ⊗ F, applied as three single-axis contractions (the
    standard sum-factorized form — O(n⁴) instead of O(n⁶) per element).
    The passes ping-pong between ``out`` and ``scratch`` (each allocated
    when omitted) and the result lands in ``out``.  ``scratch`` may be
    ``field`` itself, which is then overwritten; ``out`` must not overlap
    ``field``.  ``field`` and ``F`` must share a dtype.
    """
    n = F.shape[0]
    if F.shape != (n, n):
        raise ValueError("filter matrix must be square")
    if field.shape[-3:] != (n, n, n):
        raise ValueError(f"field trailing dims {field.shape[-3:]} do not match filter size {n}")
    if field.dtype != F.dtype:
        raise ValueError(f"field dtype {field.dtype} != filter matrix dtype {F.dtype}")
    if out is not None and np.may_share_memory(out, field):
        raise ValueError("apply_filter_3d out must not overlap the field")
    out = apply_along(F, field, 0, out=out)
    scratch = apply_along(F, out, 1, out=scratch, scratch=out)
    return apply_along(F, scratch, 2, out=out)
