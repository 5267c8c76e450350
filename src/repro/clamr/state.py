"""Shallow-water state arrays under a precision policy.

The conserved variables on the AMR cell soup:

* ``H`` — water height (the conserved "mass" per unit area);
* ``U`` — x-momentum ``h·u``;
* ``V`` — y-momentum ``h·v``.

These are CLAMR's "large physical state arrays": the arrays the *mixed*
precision mode keeps in float32 while promoting all local calculations to
float64 (paper §IV-C).  The class enforces that invariant — state arrays
are always exactly ``policy.state_dtype`` — and provides the promotion /
demotion helpers the kernels use at their load/store boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.precision.policy import PrecisionPolicy, FULL_PRECISION
from repro.sums.doubledouble import dd_sum

__all__ = ["ShallowWaterState", "GRAVITY"]

#: Gravitational acceleration used by CLAMR's shallow-water setup.
GRAVITY = 9.80


@dataclass
class ShallowWaterState:
    """H/U/V state stored at the policy's state dtype.

    Parameters
    ----------
    H, U, V:
        Per-cell conserved values; cast to ``policy.state_dtype`` on
        construction.
    policy:
        The active precision policy; recorded so kernels can resolve the
        compute dtype without consulting ambient context.
    """

    H: np.ndarray
    U: np.ndarray
    V: np.ndarray
    policy: PrecisionPolicy = FULL_PRECISION

    def __post_init__(self) -> None:
        dtype = self.policy.state_dtype
        self.H = np.ascontiguousarray(self.H, dtype=dtype)
        self.U = np.ascontiguousarray(self.U, dtype=dtype)
        self.V = np.ascontiguousarray(self.V, dtype=dtype)
        if not (self.H.shape == self.U.shape == self.V.shape) or self.H.ndim != 1:
            raise ValueError("H, U, V must be 1-D arrays of equal length")
        # The three components must be independent buffers: in-place stores
        # write each in turn, and aliased inputs (e.g. the same zeros array
        # passed for both U and V) would silently corrupt each other.
        if (
            np.shares_memory(self.H, self.U)
            or np.shares_memory(self.H, self.V)
            or np.shares_memory(self.U, self.V)
        ):
            self.H = self.H.copy()
            self.U = self.U.copy()
            self.V = self.V.copy()

    @classmethod
    def zeros(cls, ncells: int, policy: PrecisionPolicy = FULL_PRECISION) -> "ShallowWaterState":
        dtype = policy.state_dtype
        return cls(
            H=np.zeros(ncells, dtype=dtype),
            U=np.zeros(ncells, dtype=dtype),
            V=np.zeros(ncells, dtype=dtype),
            policy=policy,
        )

    @property
    def ncells(self) -> int:
        return int(self.H.size)

    @property
    def state_dtype(self) -> np.dtype:
        return self.H.dtype

    @property
    def compute_dtype(self) -> np.dtype:
        return self.policy.compute_dtype

    def promoted(self, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """H, U, V promoted to the compute dtype (the mixed-mode load).

        Arrays already at the compute dtype come back as they are.  A
        narrower state is cast into new arrays, or into the rows of
        ``out`` (a ``(3, ncells)`` compute-dtype buffer) when one is given;
        both are the same exact widening cast.
        """
        cdtype = self.policy.compute_dtype
        if out is not None and self.H.dtype != cdtype:
            for row, src in zip(out, (self.H, self.U, self.V)):
                np.copyto(row, src)
            return out[0], out[1], out[2]
        return (
            self.H.astype(cdtype, copy=False),
            self.U.astype(cdtype, copy=False),
            self.V.astype(cdtype, copy=False),
        )

    def store(self, H: np.ndarray, U: np.ndarray, V: np.ndarray) -> None:
        """Demote compute-dtype results back into the state arrays in place."""
        if H.shape != self.H.shape:
            raise ValueError(f"shape mismatch storing state: {H.shape} vs {self.H.shape}")
        # astype via assignment keeps the existing buffers (no realloc); a
        # value too large for the state dtype is stored as inf without a
        # warning: the run's NonFiniteStepError diagnosis reports it
        with np.errstate(over="ignore"):
            self.H[...] = H
            self.U[...] = U
            self.V[...] = V

    def copy(self) -> "ShallowWaterState":
        return ShallowWaterState(H=self.H.copy(), U=self.U.copy(), V=self.V.copy(), policy=self.policy)

    def with_policy(self, policy: PrecisionPolicy) -> "ShallowWaterState":
        """Re-store this state under another policy (rounding if narrower)."""
        return ShallowWaterState(H=self.H, U=self.U, V=self.V, policy=policy)

    def surface(self, bathy: np.ndarray | None = None) -> np.ndarray:
        """Free-surface elevation η = H + b at float64.

        ``bathy`` is the per-cell bottom elevation (``None`` means a flat
        bottom at zero, so η is just the depth).  This is the diagnostic
        the well-balanced scenarios check: over variable bathymetry a lake
        at rest is *constant η*, not constant H, so acceptance checks and
        line-outs must compare surfaces, not depths.
        """
        eta = self.H.astype(np.float64)
        if bathy is not None:
            eta = eta + np.asarray(bathy, dtype=np.float64)
        return eta

    def mass_contributions(self, cell_area: np.ndarray) -> np.ndarray:
        """Per-cell H·area at float64 — the dd_sum input.

        The single source of the conservation diagnostic's summands: both
        :meth:`total_mass` and the telemetry-instrumented mass measurement
        (which additionally feeds the cancellation watchpoint) consume this
        array, so the two paths cannot drift apart.
        """
        return self.H.astype(np.float64) * np.asarray(cell_area, dtype=np.float64)

    def total_mass(self, cell_area: np.ndarray) -> float:
        """∑ H·area via a double-double sum — the conservation diagnostic.

        Uses :func:`repro.sums.dd_sum` so the *diagnostic* cannot be fooled
        by accumulation error at reduced precision (paper §III-C: promote
        the global sums, demote the rest).
        """
        return float(dd_sum(self.mass_contributions(cell_area)))

    def total_momentum(self, cell_area: np.ndarray) -> tuple[float, float]:
        """(∑ U·area, ∑ V·area) via double-double sums."""
        area = np.asarray(cell_area, dtype=np.float64)
        px = float(dd_sum(self.U.astype(np.float64) * area))
        py = float(dd_sum(self.V.astype(np.float64) * area))
        return px, py

    def nbytes(self) -> int:
        """Bytes held by the three state arrays (Tables I/III memory axis)."""
        return int(self.H.nbytes + self.U.nbytes + self.V.nbytes)
