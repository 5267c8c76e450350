"""CLAMR mini-app: cell-based AMR shallow-water hydrodynamics.

A Python/NumPy re-implementation of LANL's CLAMR mini-app (paper §IV-A),
faithful to its architecture:

* a **cell-based AMR mesh** — no patches, no tree walks at solve time; the
  mesh is a flat "cell soup" of ``(i, j, level)`` triples whose neighbors
  are found through a finest-level spatial hash, with a 2:1 level balance
  (:mod:`repro.clamr.mesh`, :mod:`repro.clamr.amr`);
* the **shallow-water equations** advanced by a conservative finite-volume
  kernel with face-by-face fluxes; the hot loop runs either as NumPy bulk
  array expressions ("vectorized", :mod:`repro.clamr.kernels`) or one face
  at a time on the ``python`` kernel backend ("unvectorized",
  :mod:`repro.clamr.backends.loops`) — the axis of the paper's Table III,
  with bit-identical results;
* **three precision modes** via :class:`repro.precision.PrecisionPolicy`:
  minimum (float32 throughout), mixed (float32 state, float64 locals),
  full (float64 throughout) (:mod:`repro.clamr.state`);
* **checkpoint output** whose file size scales with the state dtype — the
  86 MB vs 128 MB comparison of Table III (:mod:`repro.clamr.checkpoint`);
* the **cylindrical dam-break** driver with Courant-limited timestepping
  and double-double conservation accounting (:mod:`repro.clamr.simulation`).
"""

from repro.clamr.mesh import AmrMesh
from repro.clamr.state import ShallowWaterState
from repro.clamr.amr import regrid, refinement_flags
from repro.clamr.kernels import finite_diff_vectorized, compute_timestep
from repro.clamr.muscl import finite_diff_muscl
from repro.clamr.simulation import ClamrSimulation, DamBreakConfig, SimulationResult
from repro.clamr.checkpoint import write_checkpoint, read_checkpoint, checkpoint_nbytes
from repro.clamr.stoker import StokerSolution
from repro.clamr.graphics import write_pgm, write_ppm

__all__ = [
    "AmrMesh",
    "ShallowWaterState",
    "regrid",
    "refinement_flags",
    "finite_diff_vectorized",
    "finite_diff_muscl",
    "compute_timestep",
    "ClamrSimulation",
    "DamBreakConfig",
    "SimulationResult",
    "write_checkpoint",
    "read_checkpoint",
    "checkpoint_nbytes",
    "StokerSolution",
    "write_pgm",
    "write_ppm",
]
