"""Unit tests for the modal spectral filter."""

import numpy as np
import pytest

from repro.self_.basis import NodalBasis
from repro.self_.filter import apply_filter_3d, filter_sigma, modal_filter_matrix


class TestSigma:
    def test_low_modes_untouched(self):
        s = filter_sigma(order=8, cutoff=5)
        np.testing.assert_array_equal(s[:6], 1.0)

    def test_top_mode_damped_to_machine_eps(self):
        s = filter_sigma(order=8, cutoff=5, strength=36.0)
        assert s[-1] == pytest.approx(np.exp(-36.0))

    def test_monotone_rolloff(self):
        s = filter_sigma(order=10, cutoff=3)
        assert (np.diff(s[3:]) <= 0).all()

    def test_cutoff_at_order_is_identity(self):
        s = filter_sigma(order=6, cutoff=6)
        np.testing.assert_array_equal(s, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            filter_sigma(4, cutoff=5)
        with pytest.raises(ValueError):
            filter_sigma(4, cutoff=2, strength=-1.0)
        with pytest.raises(ValueError):
            filter_sigma(4, cutoff=2, exponent=3)


class TestFilterMatrix:
    def test_preserves_low_degree_polynomials(self):
        order = 7
        F = modal_filter_matrix(order, cutoff=4)
        x = NodalBasis.gll(order).nodes
        for deg in range(4):
            f = x**deg
            np.testing.assert_allclose(F @ f, f, atol=1e-12)

    def test_damps_highest_mode(self):
        order = 6
        b = NodalBasis.gll(order)
        F = modal_filter_matrix(order, cutoff=2)
        # construct a pure top-mode field
        modal = np.zeros(order + 1)
        modal[-1] = 1.0
        nodal = b.V @ modal
        filtered = F @ nodal
        assert np.abs(b.Vinv @ filtered)[-1] < 1e-12

    def test_idempotent_on_kept_modes(self):
        order = 5
        F = modal_filter_matrix(order, cutoff=3)
        x = NodalBasis.gll(order).nodes
        f = 1.0 + x + x**2
        once = F @ f
        twice = F @ once
        np.testing.assert_allclose(once, twice, atol=1e-13)

    def test_default_cutoff_two_thirds(self):
        F = modal_filter_matrix(9)  # cutoff = 6
        x = NodalBasis.gll(9).nodes
        f = x**6
        np.testing.assert_allclose(F @ f, f, atol=1e-11)


class TestApply3D:
    def test_constant_field_unchanged(self):
        F = modal_filter_matrix(3, cutoff=1)
        field = np.ones((2, 5, 4, 4, 4))
        out = apply_filter_3d(field, F)
        np.testing.assert_allclose(out, field, atol=1e-13)

    def test_separable_polynomial_preserved(self):
        order = 4
        F = modal_filter_matrix(order, cutoff=2)
        x = NodalBasis.gll(order).nodes
        n = order + 1
        X = x[:, None, None] + np.zeros((n, n, n))
        Y = x[None, :, None] + np.zeros((n, n, n))
        field = (1 + X) * (1 + Y**2)  # degrees (1, 2, 0) all <= cutoff
        out = apply_filter_3d(field[None, ...], F)[0]
        np.testing.assert_allclose(out, field, atol=1e-12)

    def test_shape_validation(self):
        F = modal_filter_matrix(3)
        with pytest.raises(ValueError):
            apply_filter_3d(np.ones((2, 5, 3, 4, 4)), F)
        with pytest.raises(ValueError):
            apply_filter_3d(np.ones((4, 4, 4)), np.ones((3, 4)))

    def test_dtype_mismatch_rejected(self):
        """A float32 field with a float64 matrix used to come back float64."""
        F = modal_filter_matrix(3)
        with pytest.raises(ValueError, match="dtype"):
            apply_filter_3d(np.ones((2, 5, 4, 4, 4), dtype=np.float32), F)
        with pytest.raises(ValueError, match="dtype"):
            apply_filter_3d(np.ones((2, 5, 4, 4, 4)), F.astype(np.float32))

    def test_reduces_high_frequency_energy(self):
        order = 6
        F = modal_filter_matrix(order, cutoff=2)
        rng = np.random.default_rng(1)
        field = rng.normal(size=(3, 7, 7, 7))
        out = apply_filter_3d(field, F)
        assert np.linalg.norm(out) < np.linalg.norm(field)
