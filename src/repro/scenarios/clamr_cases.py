"""CLAMR scenario library: shallow-water cases on the AMR mesh.

Five registered cases:

* ``clamr/dam-break`` — the paper's seed workload (tanh-smoothed
  cylindrical column), registered so every scenario consumer can also
  drive the baseline through one interface.  ``ic=None`` keeps the
  driver's built-in initial state, bit-for-bit.
* ``clamr/circular-dam`` — sharp circular dam break; the acceptance
  check is the quarter-turn symmetry the paper's Fig. 2 asymmetry
  diagnostic is built around.
* ``clamr/partial-breach`` — dam-break wave through a gap in a
  submerged ridge (first bathymetry-bearing case; mirror-symmetric
  about the channel axis).
* ``clamr/obstacle-field`` — surge over a field of Gaussian seamounts;
  stresses the well-balanced flux on steep, overlapping topography.
* ``clamr/lake-at-rest`` — the well-balancedness acid test: quantized
  bathymetry, flat free surface, zero momentum.  Acceptance demands the
  state is *bit-identical* to the initial condition after the full run
  (0 ulps at the state dtype), which the hydrostatic-reconstruction
  flux guarantees by construction.

All initial conditions return float64 (the state constructor demotes to
the policy's state dtype); all bathymetries return float64 master
copies.  Every function is module-level so scenario names resolve to
picklable work in process-parallel sweeps.
"""

from __future__ import annotations

import numpy as np

from repro.scenarios import checks
from repro.scenarios.registry import Scenario, register_scenario

__all__ = ["LAKE_QUANTUM"]

#: Bathymetry quantum for the lake-at-rest case: heights snapped to
#: k/256 are exact in float16, float32 and float64, so H = 1 − b and
#: the surface η = H + b = 1 are exact at *every* precision policy —
#: the bitwise acceptance check does not depend on the state dtype.
LAKE_QUANTUM = 256.0


def _zeros_like(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.zeros_like(H), np.zeros_like(H)


# --------------------------------------------------------------------------
# initial conditions and bathymetries
# --------------------------------------------------------------------------


def circular_dam_ic(cfg, x, y):
    """Sharp (unsmoothed) circular dam: 2.0 inside r<L/4, 1.0 outside."""
    half = 0.5 * cfg.domain_size
    r = np.sqrt((x - half) ** 2 + (y - half) ** 2)
    H = np.where(r < 0.25 * cfg.domain_size, 2.0, 1.0).astype(np.float64)
    U, V = _zeros_like(H)
    return H, U, V


def breach_bathymetry(cfg, x, y):
    """Submerged ridge along x = L/2 with a Gaussian gap at y = L/2."""
    L = cfg.domain_size
    ridge = np.exp(-(((x - 0.5 * L) / (0.05 * L)) ** 2))
    gap = np.exp(-(((y - 0.5 * L) / (0.10 * L)) ** 2))
    return np.asarray(0.4 * ridge * (1.0 - gap), dtype=np.float64)


def breach_ic(cfg, x, y):
    """High water left of the ridge, low right; depth = surface − bottom."""
    L = cfg.domain_size
    b = breach_bathymetry(cfg, x, y)
    w = 2.0 * L / cfg.nx  # front smoothed over ~2 coarse cells
    eta = 1.0 + 0.6 * 0.5 * (1.0 - np.tanh((x - 0.35 * L) / w))
    H = np.asarray(eta - b, dtype=np.float64)
    U, V = _zeros_like(H)
    return H, U, V


#: Seamount centres (fractions of L) — mirror-symmetric about y = L/2.
_OBSTACLES = ((0.35, 0.30), (0.35, 0.70), (0.65, 0.50), (0.85, 0.30), (0.85, 0.70))


def obstacle_bathymetry(cfg, x, y):
    """Field of Gaussian seamounts, max height 0.3 of the resting depth."""
    L = cfg.domain_size
    b = np.zeros_like(np.asarray(x, dtype=np.float64))
    for cx, cy in _OBSTACLES:
        r2 = (x - cx * L) ** 2 + (y - cy * L) ** 2
        b = np.maximum(b, 0.3 * np.exp(-r2 / (0.06 * L) ** 2))
    return b


def obstacle_ic(cfg, x, y):
    """Surge column near the left wall, surface-referenced over the bumps."""
    L = cfg.domain_size
    b = obstacle_bathymetry(cfg, x, y)
    w = 2.0 * L / cfg.nx
    r = np.sqrt((x - 0.12 * L) ** 2 + (y - 0.5 * L) ** 2)
    eta = 1.0 + 0.8 * 0.5 * (1.0 - np.tanh((r - 0.15 * L) / w))
    H = np.asarray(eta - b, dtype=np.float64)
    U, V = _zeros_like(H)
    return H, U, V


def lake_bathymetry(cfg, x, y):
    """Smooth central hump snapped to the k/256 grid (max < 0.5)."""
    L = cfg.domain_size
    r2 = (x - 0.5 * L) ** 2 + (y - 0.5 * L) ** 2
    smooth = 0.45 * np.exp(-r2 / (0.2 * L) ** 2)
    return np.round(smooth * LAKE_QUANTUM) / LAKE_QUANTUM


def lake_ic(cfg, x, y):
    """Flat surface η = 1 over the hump: H = 1 − b exactly, at rest."""
    b = lake_bathymetry(cfg, x, y)
    H = np.asarray(1.0 - b, dtype=np.float64)
    U, V = _zeros_like(H)
    return H, U, V


# --------------------------------------------------------------------------
# acceptance checks
# --------------------------------------------------------------------------


def _h_field64(run) -> np.ndarray:
    """Final H resampled to the finest uniform grid at float64."""
    return run.sim.mesh.sample_to_uniform(run.sim.state.H.astype(np.float64))


def _symmetry_tolerance(run) -> float:
    """Asymmetry budget: compute-dtype rounding amplified over the run.

    Shock fronts amplify the ulp-level seed asymmetry of the cell-centre
    coordinates; 1e7·eps at float64 covers quick-scale runs with two
    orders of margin, and the 1e-3 cap keeps reduced-precision runs
    aligned with the paper's Fig. 2 claim (relative asymmetry < 1e-4 at
    min precision on the *full-size* grid — small grids sit well under).
    """
    eps = float(np.finfo(run.sim.policy.compute_dtype).eps)
    steps = max(int(run.result.steps), 1)
    return min(1e-3, 1e7 * eps * steps / 24.0)


def _base_checks(run, name: str) -> list:
    state = run.sim.state
    out = [
        checks.finite_check(name, run.sim.state_fields()),
        checks.positive_depth_check(name, state.H),
        checks.conservation_check(
            name,
            run.result.mass_drift,
            checks.mass_tolerance(state.state_dtype, run.result.steps),
        ),
    ]
    return out


def accept_dam_break(run) -> list:
    out = _base_checks(run, "dam-break")
    out.append(
        checks.symmetry_check(
            "dam-break", "rot90", checks.rot90_asymmetry(_h_field64(run)), _symmetry_tolerance(run)
        )
    )
    return out


#: The uniform-grid sample indexes [row, column] with the *y* coordinate
#: on axis 0, so a y-mirror (y ↔ L − y) is a flip along axis 0.
_Y_MIRROR_AXIS = 0


def accept_circular_dam(run) -> list:
    out = _base_checks(run, "circular-dam")
    field = _h_field64(run)
    tol = _symmetry_tolerance(run)
    out.append(checks.symmetry_check("circular-dam", "rot90", checks.rot90_asymmetry(field), tol))
    out.append(
        checks.symmetry_check(
            "circular-dam", "mirror-y", checks.mirror_asymmetry(field, _Y_MIRROR_AXIS), tol
        )
    )
    return out


def accept_partial_breach(run) -> list:
    out = _base_checks(run, "partial-breach")
    out.append(
        checks.symmetry_check(
            "partial-breach",
            "mirror-y",
            checks.mirror_asymmetry(_h_field64(run), _Y_MIRROR_AXIS),
            _symmetry_tolerance(run),
        )
    )
    return out


def accept_obstacle_field(run) -> list:
    out = _base_checks(run, "obstacle-field")
    out.append(
        checks.symmetry_check(
            "obstacle-field",
            "mirror-y",
            checks.mirror_asymmetry(_h_field64(run), _Y_MIRROR_AXIS),
            _symmetry_tolerance(run),
        )
    )
    return out


def accept_lake_at_rest(run) -> list:
    """Well-balancedness: the run must not move a single bit.

    The initial condition is re-evaluated on the (uniform, max_level=0)
    mesh and compared bit-for-bit against the evolved state — H to the
    last ulp of the state dtype, momenta exactly zero.  The float64
    surface η = H + b must equal 1 exactly as well; together these are
    the "preserved to state-dtype ulps" contract of the issue.
    """
    sim = run.sim
    expected = sim._initial_state(sim.mesh)
    zero = np.zeros_like(sim.state.U)
    bathy = sim._bathy_for(sim.mesh)
    eta = sim.state.surface(bathy)
    out = [
        checks.bitwise_check(
            "lake-at-rest/depth",
            "H after the run is bit-identical to the initial condition",
            sim.state.H,
            expected.H,
        ),
        checks.bitwise_check(
            "lake-at-rest/x-momentum", "U stays exactly zero", sim.state.U, zero
        ),
        checks.bitwise_check(
            "lake-at-rest/y-momentum", "V stays exactly zero", sim.state.V, zero
        ),
        checks.bitwise_check(
            "lake-at-rest/surface",
            "float64 free surface η = H + b equals 1 exactly",
            eta,
            np.ones_like(eta),
        ),
    ]
    return out


# --------------------------------------------------------------------------
# registrations
# --------------------------------------------------------------------------

register_scenario(
    Scenario(
        name="clamr/dam-break",
        family="clamr",
        description="paper seed: tanh-smoothed cylindrical dam break (flat bottom)",
        ic=None,
        bathymetry=None,
        config={},
        scales={"quick": {"nx": 16, "max_level": 2, "steps": 24},
                "bench": {"nx": 32, "max_level": 2, "steps": 96}},
        acceptance=accept_dam_break,
        fingerprint_policy="mixed",
        symmetry="rot90",
    )
)

register_scenario(
    Scenario(
        name="clamr/circular-dam",
        family="clamr",
        description="sharp circular dam break; radial-symmetry acceptance",
        ic=circular_dam_ic,
        bathymetry=None,
        config={"max_level": 1},
        scales={"quick": {"nx": 16, "steps": 24}, "bench": {"nx": 32, "steps": 96}},
        acceptance=accept_circular_dam,
        fingerprint_policy="mixed",
        symmetry="rot90",
    )
)

register_scenario(
    Scenario(
        name="clamr/partial-breach",
        family="clamr",
        description="dam-break wave through a gap in a submerged ridge",
        ic=breach_ic,
        bathymetry=breach_bathymetry,
        config={"max_level": 1},
        scales={"quick": {"nx": 16, "steps": 24}, "bench": {"nx": 32, "steps": 96}},
        acceptance=accept_partial_breach,
        fingerprint_policy="mixed",
        symmetry="mirror-y",
    )
)

register_scenario(
    Scenario(
        name="clamr/obstacle-field",
        family="clamr",
        description="surge over a field of Gaussian seamounts",
        ic=obstacle_ic,
        bathymetry=obstacle_bathymetry,
        config={"max_level": 1},
        scales={"quick": {"nx": 16, "steps": 24}, "bench": {"nx": 32, "steps": 96}},
        acceptance=accept_obstacle_field,
        fingerprint_policy="mixed",
        symmetry="mirror-y",
    )
)

register_scenario(
    Scenario(
        name="clamr/lake-at-rest",
        family="clamr",
        description="well-balanced lake at rest over quantized bathymetry (bitwise)",
        ic=lake_ic,
        bathymetry=lake_bathymetry,
        # Uniform mesh: regridding is physics-neutral only up to rounding,
        # and the acceptance here is exactness, so AMR stays off.
        config={"max_level": 0, "start_refined": False},
        scales={"quick": {"nx": 16, "steps": 24}, "bench": {"nx": 32, "steps": 96}},
        acceptance=accept_lake_at_rest,
        fingerprint_policy="mixed",
        symmetry="rot90",
    )
)
