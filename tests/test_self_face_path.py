"""The SELF face path against its per-direction oracles, byte for byte.

``CompressibleEuler`` runs one surface routine per axis (a single ``_llf``
call over the stacked interior and wall faces), ``ViscousOperator`` runs
its interface penalty over the same face table with fancy ``+=``, and
every tensor contraction goes through ``basis.apply_along``.  The
spelled-out forms they replaced live in ``tests/reference_impls.py``;
these tests pin the production code to them bit for bit.
"""

import numpy as np
import pytest

from repro.self_.equations import RHO, RHOU, RHOW, AtmosphereConstants, CompressibleEuler
from repro.self_.filter import apply_filter_3d, modal_filter_matrix
from repro.self_.mesh import HexMesh
from repro.self_.viscous import ViscousOperator
from tests.reference_impls import (
    apply_filter_3d_explicit,
    self_rhs_per_direction,
    viscous_add_rhs_per_direction,
)

#: (nex, ney, nez, order): orders 1-6, anisotropic, several with an axis
#: one element thick (no interior faces along it)
MESHES = [
    (1, 1, 1, 1),
    (2, 3, 1, 2),
    (3, 2, 4, 3),
    (1, 4, 2, 4),
    (4, 4, 4, 4),
    (3, 1, 2, 5),
    (2, 2, 3, 6),
]
DTYPES = [np.float32, np.float64]


def mesh_id(case):
    return "{}x{}x{}-o{}".format(*case)


def make_solver(case, dtype):
    nex, ney, nez, order = case
    mesh = HexMesh(nex=nex, ney=ney, nez=nez, lengths=(300.0, 200.0, 500.0), order=order)
    c = AtmosphereConstants()
    _, _, z = mesh.node_coordinates()
    theta0 = 300.0
    exner = 1.0 - c.gravity * z / (c.cp * theta0)
    p_bar = c.p0 * exner ** (c.cp / c.gas_constant)
    rho_bar = c.p0 * exner ** (c.cv / c.gas_constant) / (c.gas_constant * theta0)
    return CompressibleEuler(mesh, np.dtype(dtype), c, rho_bar, p_bar)


def moving_state(solver, seed):
    """A non-rest state: perturbed density and O(1 m/s) momenta."""
    rng = np.random.default_rng(seed)
    U = solver.background_state()
    dt = solver.dtype.type
    U[:, RHO] *= 1 + dt(0.01) * rng.random(U[:, RHO].shape).astype(solver.dtype)
    U[:, RHOU : RHOW + 1] += rng.standard_normal(U[:, RHOU : RHOW + 1].shape).astype(solver.dtype)
    return U


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("case", MESHES, ids=mesh_id)
class TestBitOracles:
    def test_rhs_matches_per_direction_oracle(self, case, dtype):
        solver = make_solver(case, dtype)
        U = moving_state(solver, seed=sum(case))
        got = solver.rhs(U)
        want = self_rhs_per_direction(solver, U)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_viscous_add_rhs_matches_add_at_oracle(self, case, dtype):
        solver = make_solver(case, dtype)
        op = ViscousOperator(solver, mu=0.5, prandtl=0.7, penalty=4.0)
        U = moving_state(solver, seed=sum(case) + 1)
        got = solver.rhs(U)
        want = got.copy()
        op.add_rhs(U, got)
        viscous_add_rhs_per_direction(op, U, want)
        assert got.tobytes() == want.tobytes()

    def test_filter_matches_explicit_subscripts(self, case, dtype):
        order = case[3]
        solver = make_solver(case, dtype)
        F = modal_filter_matrix(order).astype(dtype)
        U = moving_state(solver, seed=sum(case) + 2)
        assert apply_filter_3d(U, F).tobytes() == apply_filter_3d_explicit(U, F).tobytes()


@pytest.mark.parametrize("case", MESHES, ids=mesh_id)
def test_face_table_is_disjoint(case):
    """Each face slot of each element takes exactly one update per axis.

    That is what lets one stacked ``_llf`` call and a fancy ``+=`` stand
    in for per-set calls and ``np.add.at`` with the same bits.
    """
    solver = make_solver(case, np.float64)
    nelem = solver.mesh.nelem
    assert len(solver.faces) == 3
    for axis, (lo, hi, walls_plus, walls_minus) in enumerate(solver.faces):
        assert lo.size == hi.size == nelem - nelem // case[axis]
        assert walls_plus.size == walls_minus.size == nelem // case[axis]
        for side in (np.concatenate((lo, walls_plus)), np.concatenate((hi, walls_minus))):
            np.testing.assert_array_equal(np.sort(side), np.arange(nelem))


def test_one_llf_call_per_axis(monkeypatch):
    solver = make_solver((3, 2, 2, 3), np.float64)
    calls = []
    original = CompressibleEuler._llf

    def counting(self, *args):
        calls.append(args[-1])
        return original(self, *args)

    monkeypatch.setattr(CompressibleEuler, "_llf", counting)
    solver.rhs(moving_state(solver, seed=0))
    assert calls == [1, 2, 3]  # RHOU, RHOV, RHOW: one call per axis
