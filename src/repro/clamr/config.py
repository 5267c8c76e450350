"""The CLAMR dam-break problem's parameters.

Kept apart so that building a config (a JobSpec's ``workload_key``,
say) loads none of the mesh, kernels or simulation;
:mod:`repro.clamr.simulation` re-exports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["DamBreakConfig"]


@dataclass(frozen=True)
class DamBreakConfig:
    """Parameters of the cylindrical dam-break problem.

    Defaults mirror the paper's fidelity run: 64 coarse cells per side and
    2 levels of AMR.  ``base_height``/``column_height`` set the quiescent
    depth and the column's elevated depth; the column is centered so the
    problem is ideally symmetric — the premise of the Fig. 2 asymmetry
    diagnostic.
    """

    nx: int = 64
    ny: int = 64
    max_level: int = 2
    domain_size: float = 1.0
    base_height: float = 1.0
    column_height: float = 1.8
    column_radius_fraction: float = 0.15
    courant: float = 0.25
    regrid_interval: int = 4
    refine_threshold: float = 0.02
    coarsen_threshold: float = 0.004
    start_refined: bool = True

    def __post_init__(self) -> None:
        if self.nx < 4 or self.ny < 4:
            raise ValueError("grid must be at least 4x4")
        for name in ("domain_size", "base_height", "column_height", "coarsen_threshold"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.column_height <= self.base_height:
            raise ValueError("column_height must exceed base_height")
        if not 0.0 < self.column_radius_fraction < 0.5:
            raise ValueError("column_radius_fraction must be in (0, 0.5)")
        if not 0.0 < self.courant < 1.0:
            raise ValueError(f"courant must be in (0, 1), got {self.courant}")
        if self.regrid_interval < 1:
            raise ValueError("regrid_interval must be at least 1")
        # the refinement indicator is a non-negative jump, so a coarsen
        # threshold <= 0 (checked above) or a refine threshold that is NaN
        # or not above it would switch AMR off without a word
        if not (math.isfinite(self.refine_threshold) and self.refine_threshold > self.coarsen_threshold):
            raise ValueError(
                f"refine_threshold must be finite and exceed coarsen_threshold "
                f"({self.coarsen_threshold}), got {self.refine_threshold}"
            )

    @property
    def coarse_size(self) -> float:
        return self.domain_size / self.nx
