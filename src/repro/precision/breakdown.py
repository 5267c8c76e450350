"""A run that breaks down numerically ends in a one-line diagnosis.

Reduced precision can overflow a state (float16 momenta, say) or let a
non-finite value spread through it.  The first symptom both drivers can
see for free is their CFL timestep: it is already a Python float, and a
state holding a non-finite value, or a wave speed that overflowed, makes
it non-finite or non-positive.  :meth:`NonFiniteStepError.diagnose`
turns that into a typed error whose message names the step, the
precision policy and the first field holding a non-finite value, so a
run stops there instead of finishing with a NaN clock.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

__all__ = ["NonFiniteStepError"]


class NonFiniteStepError(FloatingPointError):
    """A run's timestep came out non-finite or non-positive."""

    @classmethod
    def diagnose(cls, step: int, policy: str, dt: float, fields: Mapping[str, np.ndarray]) -> "NonFiniteStepError":
        """The error for ``dt`` at ``step``, naming the first non-finite field."""
        where = "every field is finite"
        for name, values in fields.items():
            bad = np.count_nonzero(~np.isfinite(values))
            if bad:
                where = f"first non-finite field {name} ({bad} of {np.size(values)} values)"
                break
        return cls(f"step {step} at policy {policy}: timestep {dt!r}; {where}")
