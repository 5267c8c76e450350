"""Low-storage third-order Runge-Kutta (Williamson 1980).

The paper times SELF around "a 3rd-order Runge-Kutta time integrator"
called 100 times; this is the standard low-storage LSRK3(3) scheme
spectral-element codes use — three stages, one registers' worth of extra
storage, classical order 3:

    k   <- A_s * k + dt * RHS(U)
    U   <- U + B_s * k

with A = (0, -5/9, -153/128) and B = (1/3, 15/16, 8/15).

The stage arithmetic runs at the state dtype: in single precision the
accumulator rounding is part of the measured precision signal, exactly as
in a Fortran build with default ``real(4)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["LowStorageRK3"]

_A = (0.0, -5.0 / 9.0, -153.0 / 128.0)
_B = (1.0 / 3.0, 15.0 / 16.0, 8.0 / 15.0)
_C = (0.0, 1.0 / 3.0, 3.0 / 4.0)  # stage times, exposed for completeness


@dataclass
class LowStorageRK3:
    """Williamson LSRK3 stepping ``U`` in place via a user RHS callable.

    Parameters
    ----------
    rhs:
        Function mapping a state tensor to its time derivative.  The
        stepper uses the returned array as scratch, so it must be one the
        caller no longer needs (a fresh array or a reused stage buffer);
        a result that overlaps the state is copied first.
    """

    rhs: Callable[[np.ndarray], np.ndarray]
    _register: np.ndarray | None = field(default=None, repr=False)

    @property
    def stage_times(self) -> tuple[float, ...]:
        return _C

    def step(self, U: np.ndarray, dt: float) -> np.ndarray:
        """Advance one step of size ``dt``; mutates and returns ``U``.

        The scratch register is reused across calls (reallocated only when
        the state shape/dtype changes) — low-storage in spirit as well as
        name.
        """
        ftype = U.dtype.type
        dt_c = ftype(dt)
        if (
            self._register is None
            or self._register.shape != U.shape
            or self._register.dtype != U.dtype
        ):
            self._register = np.zeros_like(U)
        k = self._register
        for a, b in zip(_A, _B):
            np.multiply(k, ftype(a), out=k)
            R = self.rhs(U)
            if np.may_share_memory(R, U):
                R = R.copy()
            # k += dt R and U += b k, with the stage result as the product buffer
            R *= dt_c
            k += R
            U += np.multiply(ftype(b), k, out=R)
        return U
