"""The allocation-free SELF step against its allocating forms, byte for byte.

``CompressibleEuler`` writes every full-size tensor of the RHS into a
workspace it allocates once, ``LowStorageRK3`` uses the stage result as
its product buffer, the filter ping-pongs through the stage buffer and
``SelfSimulation.U``, and ``basis.apply_along`` runs the axis-1
contraction on the axis-0 layout.  These tests pin each of them to the
plain form (``tests/reference_impls.py``, direct ``np.einsum``) and bound
what one steady-state step may allocate.
"""

import tracemalloc

import numpy as np
import pytest

from repro.self_.basis import apply_along
from repro.self_.filter import apply_filter_3d, modal_filter_matrix
from repro.self_.simulation import SelfSimulation, ThermalBubbleConfig
from repro.self_.timeint import LowStorageRK3
from repro.self_.viscous import ViscousOperator
from tests.reference_impls import (
    filter_step_allocating,
    rk3_step_allocating,
    self_rhs_per_direction,
    viscous_add_rhs_per_direction,
)
from tests.test_self_face_path import make_solver, moving_state

EINSUM = ("il,...ljk->...ijk", "jl,...ilk->...ijk", "kl,...ijl->...ijk")
DTYPES = [np.float32, np.float64]


def signed_zero_block(n, dtype, seed):
    """(3, 5, n, n, n) normal data with runs of +0.0 and -0.0 mixed in."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((3, 5, n, n, n)).astype(dtype)
    A.reshape(-1)[::3] = 0.0
    A.reshape(-1)[1::5] = -0.0
    return A


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("order", range(1, 8))
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_apply_along_matches_direct_einsum(axis, order, dtype):
    n = order + 1
    rng = np.random.default_rng(100 * axis + order)
    M = rng.standard_normal((n, n)).astype(dtype)
    M[0, 0] = -0.0
    A = signed_zero_block(n, dtype, seed=order)
    want = np.einsum(EINSUM[axis], M, A).tobytes()
    assert apply_along(M, A, axis).tobytes() == want
    out = np.full_like(A, np.nan)
    scratch = np.full_like(A, np.nan)
    assert apply_along(M, A, axis, out=out, scratch=scratch) is out
    assert out.tobytes() == want
    consumed = A.copy()  # scratch may be the input itself
    assert apply_along(M, consumed, axis, out=out, scratch=consumed).tobytes() == want


def test_apply_along_rejects_bad_operands():
    A = np.ones((2, 5, 3, 3, 3))
    out = np.empty_like(A)
    with pytest.raises(ValueError, match="scratch"):
        apply_along(np.eye(3), A, 1, out=out, scratch=out)
    with pytest.raises(ValueError, match="block"):
        apply_along(np.ones((2, 3)), A, 0)
    with pytest.raises(ValueError, match="block"):
        apply_along(np.eye(3), np.ones((2, 3, 4, 3)), 1)


@pytest.mark.parametrize("dtype", DTYPES)
class TestRhsOut:
    def test_out_is_written_and_returned(self, dtype):
        solver = make_solver((3, 2, 4, 3), dtype)
        U = moving_state(solver, seed=7)
        fresh = solver.rhs(U)
        buf = np.full_like(U, np.nan)
        assert solver.rhs(U, out=buf) is buf
        assert buf.tobytes() == fresh.tobytes()
        assert buf.tobytes() == self_rhs_per_direction(solver, U).tobytes()

    def test_fresh_results_are_distinct(self, dtype):
        solver = make_solver((2, 2, 2, 2), dtype)
        U = moving_state(solver, seed=8)
        a, b = solver.rhs(U), solver.rhs(U)
        assert a is not b and not np.shares_memory(a, b)
        assert a.tobytes() == b.tobytes()

    def test_bad_out_rejected(self, dtype):
        solver = make_solver((2, 2, 2, 2), dtype)
        U = moving_state(solver, seed=9)
        with pytest.raises(ValueError, match="overlap"):
            solver.rhs(U, out=U)
        other = np.float64 if dtype == np.float32 else np.float32
        with pytest.raises(ValueError, match="match"):
            solver.rhs(U, out=np.empty(U.shape, dtype=other))


@pytest.mark.parametrize("viscosity", [0.0, 0.5])
@pytest.mark.parametrize("precision", ["single", "double"])
def test_step_and_filter_match_allocating_bodies(precision, viscosity):
    """Three full steps (stable dt, RK3, filter) against the old bodies."""
    cfg = ThermalBubbleConfig(nex=3, ney=2, nez=4, order=4, viscosity=viscosity)
    sim = SelfSimulation(cfg, precision=precision)
    solver = sim.solver
    U = sim.U.copy()
    k = np.zeros_like(U)
    background = solver.background_state()
    F = modal_filter_matrix(cfg.order).astype(sim.dtype)
    op = ViscousOperator(solver, mu=viscosity, prandtl=cfg.prandtl) if viscosity else None

    def rhs(state):
        out = self_rhs_per_direction(solver, state)
        if op is not None:
            viscous_add_rhs_per_direction(op, state, out)
        return out

    state = sim.U
    sim.run(3)
    assert sim.U is state  # the filter writes in place
    for _ in range(3):
        rk3_step_allocating(rhs, U, k, solver.stable_dt(U, cfg.courant))
        U = filter_step_allocating(U, background, F)
    assert sim.U.tobytes() == U.tobytes()
    assert sim._stepper._register.tobytes() == k.tobytes()


def test_stepper_copies_a_result_that_aliases_the_state():
    """y' = y with the state itself returned: the stage math still holds."""
    y = np.array([1.0, 2.0])
    want = y.copy()
    rk3_step_allocating(lambda v: v.copy(), want, np.zeros(2), 0.1)
    LowStorageRK3(rhs=lambda v: v).step(y, 0.1)
    assert y.tobytes() == want.tobytes()


def test_filter_out_and_scratch_match_allocating_form():
    F = modal_filter_matrix(4)
    field = signed_zero_block(5, np.float64, seed=3)
    want = apply_filter_3d(field, F).tobytes()
    out, scratch = np.empty_like(field), np.empty_like(field)
    assert apply_filter_3d(field, F, out=out, scratch=scratch) is out
    assert out.tobytes() == want
    consumed = field.copy()
    assert apply_filter_3d(consumed, F, out=out, scratch=consumed).tobytes() == want
    with pytest.raises(ValueError, match="overlap"):
        apply_filter_3d(field, F, out=field)


def test_inviscid_step_allocation_budget():
    """After warm-up a 6³ order-4 double step allocates under one U.nbytes at peak.

    The allocating step peaked at about 7.7 × U.nbytes; what remains is
    the ufuncs' iteration buffers for strided operands.
    """
    sim = SelfSimulation(ThermalBubbleConfig(nex=6, ney=6, nez=6, order=4), precision="double")

    def step():
        dt = sim.solver.stable_dt(sim.U, sim.config.courant)
        sim._stepper.step(sim.U, dt)
        sim._filter_state()

    step()
    step()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= sim.U.nbytes
