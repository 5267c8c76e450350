"""Tests for the compact viscous operator (Navier-Stokes terms)."""

import numpy as np
import pytest

from repro.self_.equations import RHO, RHOE, RHOU, RHOV, RHOW, AtmosphereConstants, CompressibleEuler
from repro.self_.mesh import HexMesh
from repro.self_.simulation import SelfSimulation, ThermalBubbleConfig
from repro.self_.viscous import ViscousOperator


def make_solver(nex=2, order=4, lengths=(100.0, 100.0, 100.0), dtype=np.float64):
    mesh = HexMesh(nex=nex, ney=nex, nez=nex, lengths=lengths, order=order)
    c = AtmosphereConstants()
    _, _, z = mesh.node_coordinates()
    theta0 = 300.0
    exner = 1.0 - c.gravity * z / (c.cp * theta0)
    p_bar = c.p0 * exner ** (c.cp / c.gas_constant)
    rho_bar = c.p0 * exner ** (c.cv / c.gas_constant) / (c.gas_constant * theta0)
    return mesh, CompressibleEuler(mesh, np.dtype(dtype), c, rho_bar, p_bar)


class TestConstruction:
    def test_kappa_from_prandtl(self):
        _, solver = make_solver()
        op = ViscousOperator(solver, mu=1.8e-5, prandtl=0.72)
        assert float(op.kappa) == pytest.approx(1.8e-5 * 1004.5 / 0.72, rel=1e-6)

    def test_validation(self):
        _, solver = make_solver()
        with pytest.raises(ValueError):
            ViscousOperator(solver, mu=-1.0)
        with pytest.raises(ValueError):
            ViscousOperator(solver, mu=1.0, prandtl=0.0)
        with pytest.raises(ValueError):
            ViscousOperator(solver, mu=1.0, penalty=-1.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                ViscousOperator(solver, mu=bad)
            with pytest.raises(ValueError, match="finite"):
                ViscousOperator(solver, mu=1.0, prandtl=bad)
            with pytest.raises(ValueError, match="finite"):
                ViscousOperator(solver, mu=1.0, penalty=bad)


class TestOperator:
    def test_rest_state_untouched(self):
        """Uniform temperature, zero velocity: all viscous terms vanish.

        (The hydrostatic background has a z-varying temperature, so we use
        an isothermal constant state instead.)"""
        mesh, solver = make_solver()
        n = mesh.npoints
        U = np.zeros((mesh.nelem, 5, n, n, n))
        U[:, RHO] = 1.0
        U[:, RHOE] = 1.0e5 / (solver.constants.gamma - 1.0)
        out = np.zeros_like(U)
        ViscousOperator(solver, mu=1e-3).add_rhs(U, out)
        assert np.abs(out).max() < 1e-8

    def test_shear_layer_momentum_diffuses(self):
        """u(z) shear: tau_xz = mu du/dz; d(rho u)/dt = mu d2u/dz2."""
        mesh, solver = make_solver(nex=2, order=5)
        n = mesh.npoints
        _, _, z = mesh.node_coordinates()
        U = np.zeros((mesh.nelem, 5, n, n, n))
        U[:, RHO] = 1.0
        Lz = 100.0
        u_profile = np.sin(2 * np.pi * z / Lz)
        U[:, RHOU] = u_profile
        U[:, RHOE] = 1.0e5 / (solver.constants.gamma - 1.0) + 0.5 * u_profile**2
        mu = 1.0
        out = np.zeros_like(U)
        ViscousOperator(solver, mu=mu, penalty=0.0).add_rhs(U, out)
        expected = -mu * (2 * np.pi / Lz) ** 2 * u_profile
        # the compact operator is one-sided at element-edge nodes; interior
        # nodes match the analytic Laplacian
        np.testing.assert_allclose(
            out[:, RHOU][:, :, :, 1:-1], expected[:, :, :, 1:-1], rtol=0.05, atol=3e-5
        )

    def test_heat_conduction_smooths_temperature(self):
        """A hot stripe's energy must diffuse: RHOE RHS opposes the bump."""
        mesh, solver = make_solver(nex=2, order=5)
        n = mesh.npoints
        x, _, _ = mesh.node_coordinates()
        U = np.zeros((mesh.nelem, 5, n, n, n))
        U[:, RHO] = 1.0
        T = 300.0 + 10.0 * np.sin(2 * np.pi * x / 100.0)
        p = 1.0 * solver.constants.gas_constant * T
        U[:, RHOE] = p / (solver.constants.gamma - 1.0)
        out = np.zeros_like(U)
        ViscousOperator(solver, mu=1e-2, penalty=0.0).add_rhs(U, out)
        # energy tendency anti-correlates with the temperature bump
        corr = float(np.sum(out[:, RHOE] * (T - 300.0)))
        assert corr < 0.0

    def test_penalty_is_conservative(self):
        """The interface jump terms cancel globally (quadrature-weighted)."""
        mesh, solver = make_solver(nex=3, order=3)
        n = mesh.npoints
        rng = np.random.default_rng(0)
        U = np.zeros((mesh.nelem, 5, n, n, n))
        U[:, RHO] = 1.0 + 0.01 * rng.random((mesh.nelem, n, n, n))
        U[:, RHOU] = 0.1 * rng.standard_normal((mesh.nelem, n, n, n))
        U[:, RHOE] = 1.0e5 / (solver.constants.gamma - 1.0)
        op_with = ViscousOperator(solver, mu=1e-2, penalty=5.0)
        op_without = ViscousOperator(solver, mu=1e-2, penalty=0.0)
        a = np.zeros_like(U)
        b = np.zeros_like(U)
        op_with.add_rhs(U, a)
        op_without.add_rhs(U, b)
        penalty_part = a - b
        w = solver.basis.weights
        w3 = w[:, None, None] * w[None, :, None] * w[None, None, :]
        for slot in (RHOU, RHOV, RHOW):
            total = float((penalty_part[:, slot] * w3).sum())
            scale = float(np.abs(penalty_part[:, slot]).max() * w3.sum() * mesh.nelem) + 1e-30
            assert abs(total) <= 1e-10 * scale

    def test_shape_mismatch_rejected(self):
        mesh, solver = make_solver()
        op = ViscousOperator(solver, mu=1e-3)
        n = mesh.npoints
        U = np.zeros((mesh.nelem, 5, n, n, n))
        with pytest.raises(ValueError):
            op.add_rhs(U, np.zeros((1, 5, n, n, n)))


class TestSimulationIntegration:
    def test_viscous_bubble_runs_and_differs(self):
        """The viscous path is active (fields deviate from inviscid) and
        stable.  (Physical damping of the km-scale bubble needs unphysical
        μ and tighter timesteps; the operator's diffusion physics is
        validated directly in TestOperator.)"""
        base = ThermalBubbleConfig(nex=3, ney=3, nez=3, order=3)
        viscous = ThermalBubbleConfig(nex=3, ney=3, nez=3, order=3, viscosity=10.0)
        r_base = SelfSimulation(base, precision="double").run(60)
        r_visc = SelfSimulation(viscous, precision="double").run(60)
        assert np.isfinite(r_visc.anomaly_field).all()
        assert not np.array_equal(r_visc.anomaly_field, r_base.anomaly_field)
        # and the deviation is a perturbation, not an instability
        assert abs(r_visc.max_vertical_velocity - r_base.max_vertical_velocity) < 0.5 * (
            r_base.max_vertical_velocity + 1e-12
        )

    def test_single_precision_viscous_path(self):
        cfg = ThermalBubbleConfig(nex=3, ney=3, nez=3, order=3, viscosity=1.0)
        res = SelfSimulation(cfg, precision="single").run(20)
        assert np.isfinite(res.anomaly_field).all()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ThermalBubbleConfig(viscosity=-1.0)
        with pytest.raises(ValueError):
            ThermalBubbleConfig(prandtl=0.0)
        # nan > 0 is false: a nan viscosity would otherwise run inviscid
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                ThermalBubbleConfig(viscosity=bad)
            with pytest.raises(ValueError, match="finite"):
                ThermalBubbleConfig(prandtl=bad)
