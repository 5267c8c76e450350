"""Property tests for the error-free transformations and double-double type."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sums import DoubleDouble, dd_sum, split, two_prod, two_sum
from tests.reference_impls import dd_sum_loop

# mantissa × 10**k for k in [-30, 30]: about 60 decades of magnitude, so
# the TwoSum errors are large and their running sum rounds
wide_floats = st.builds(lambda m, k: m * 10.0**k, st.floats(-1.0, 1.0), st.integers(-30, 30))


def _wide(shape, seed=5, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return (rng.uniform(-1, 1, shape) * 10.0 ** rng.integers(-30, 31, shape)).astype(dtype)


def _bits(hi: float, lo: float) -> bytes:
    return np.array([hi, lo], dtype=np.float64).tobytes()


moderate_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e150, max_value=1e150
)
# TwoProd's error-free property requires the product (and its error term)
# not to underflow: keep magnitudes well inside [2^-511, 2^511].
nonvanishing = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e100, max_value=1e100
).filter(lambda x: x == 0.0 or abs(x) >= 1e-80)


class TestTwoSum:
    @given(moderate_floats, moderate_floats)
    @settings(max_examples=300, deadline=None)
    def test_error_free(self, a, b):
        s, e = two_sum(a, b)
        assert s == a + b  # s is the rounded sum
        # exactness: a + b == s + e in exact arithmetic.  Verify via fsum,
        # which is exact for two-term decompositions.
        assert math.fsum([a, b, -s, -e]) == 0.0

    def test_catastrophic_cancellation_recovered(self):
        s, e = two_sum(1e16, 1.0)
        assert s == 1e16  # the 1.0 was absorbed...
        assert e == 1.0  # ...but captured exactly in the error term


class TestSplit:
    @given(st.floats(allow_nan=False, allow_infinity=False, min_value=-1e150, max_value=1e150))
    @settings(max_examples=300, deadline=None)
    def test_split_is_exact(self, a):
        hi, lo = split(a)
        assert hi + lo == a
        assert abs(lo) <= abs(hi) or a == 0.0

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            split(2.0**1000)


class TestTwoProd:
    @given(nonvanishing, nonvanishing)
    @settings(max_examples=300, deadline=None)
    def test_error_free(self, a, b):
        p, e = two_prod(a, b)
        assert p == a * b
        # exact check via integer arithmetic on scaled values is overkill;
        # Fraction gives an exact rational comparison.
        from fractions import Fraction

        assert Fraction(a) * Fraction(b) == Fraction(p) + Fraction(e)


class TestDoubleDouble:
    def test_construction_and_float(self):
        x = DoubleDouble.from_float(1.5)
        assert float(x) == 1.5
        assert x.lo == 0.0

    def test_add_recovers_low_bits(self):
        x = DoubleDouble.from_float(1e16) + 1.0
        assert x.hi == 1e16 and x.lo == 1.0
        y = x - 1e16
        assert float(y) == 1.0

    def test_mul(self):
        x = DoubleDouble.from_float(1.0 + 2**-30)
        y = x * x
        # (1 + u)^2 = 1 + 2u + u^2; u^2 = 2^-60 is below float64 resolution
        # at 1.0 but must be present in the double-double
        assert y.hi == float(np.float64((1 + 2**-30) ** 2))
        from fractions import Fraction

        exact = (Fraction(1) + Fraction(1, 2**30)) ** 2
        assert Fraction(y.hi) + Fraction(y.lo) == exact

    def test_comparisons(self):
        a = DoubleDouble.from_float(1.0) + 2**-80
        b = DoubleDouble.from_float(1.0)
        assert b < a
        assert b <= a
        assert a == a
        assert float(a) == 1.0  # invisible at float64...
        assert a != b  # ...but not to the double-double

    def test_neg_and_abs(self):
        x = DoubleDouble.from_float(-2.0) + 2**-70
        assert float(-x) == 2.0
        assert x.abs() >= DoubleDouble.from_float(0.0)

    def test_scalar_interop(self):
        assert float(2.0 + DoubleDouble.from_float(3.0)) == 5.0
        assert float(10.0 - DoubleDouble.from_float(4.0)) == 6.0
        assert float(DoubleDouble.from_float(3.0) * 2) == 6.0

    @given(st.lists(nonvanishing, min_size=2, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_renormalization_invariant(self, values):
        acc = DoubleDouble.from_float(0.0)
        for v in values:
            acc = acc + v
        # invariant: hi is the float64 rounding of the full value
        assert acc.hi == acc.hi + acc.lo or abs(acc.lo) <= abs(acc.hi) * 2**-52


class TestDdSum:
    def test_exact_on_cancellation(self):
        x = np.array([1e100, 1.0, -1e100])
        assert float(dd_sum(x)) == 1.0

    def test_matches_fsum(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=3000) * 10.0 ** rng.integers(-20, 20, size=3000)
        assert float(dd_sum(x)) == math.fsum(x.tolist())

    def test_empty(self):
        assert float(dd_sum(np.array([]))) == 0.0

    @given(
        st.lists(wide_floats, min_size=0, max_size=64),
        st.sampled_from([None, 0.0, -0.0, math.inf, -math.inf, math.nan]),
        st.integers(0, 64),
        st.booleans(),
        st.sampled_from(["1d", "2d", "float32"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_bitwise_matches_loop(self, values, special, at, lead_negzero, form):
        """The vectorized scans reproduce the element-by-element TwoSum loop
        bit for bit: signed zeros, ±inf, NaN, 2-D and float32 inputs."""
        if special is not None:
            values.insert(at, special)
        x = np.array(([-0.0] if lead_negzero else []) + values, dtype=np.float64)
        if form == "2d" and x.size % 2 == 0:
            x = x.reshape(2, -1)
        elif form == "float32":
            with np.errstate(over="ignore"):
                x = x.astype(np.float32)
        result = dd_sum(x)
        assert _bits(result.hi, result.lo) == _bits(*dd_sum_loop(x))

    @pytest.mark.parametrize(
        "x",
        [
            np.array([]),
            np.array([-0.0]),
            np.array([-0.0, -0.0, 1e-300, -1e-300]),
            np.array([np.inf, 1.0, -np.inf]),
            np.array([1e308, 1e308, -1e308]),
            np.array([np.nan, 1.0]),
            _wide((40, 50)),
            _wide(3000, dtype=np.float32),
        ],
        ids=["empty", "negzero", "signed-zero-cancel", "inf", "overflow", "nan", "2d", "float32"],
    )
    def test_edge_inputs_match_loop(self, x):
        result = dd_sum(x)
        assert _bits(result.hi, result.lo) == _bits(*dd_sum_loop(x))

    @given(st.lists(st.floats(-1e15, 1e15), min_size=0, max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_property_matches_fsum(self, values):
        # dd_sum accumulates error terms in a single float64, so inputs
        # spanning >106 bits can land one ulp off the correctly-rounded sum
        result = float(dd_sum(np.array(values, dtype=np.float64)))
        exact = math.fsum(values)
        assert result == pytest.approx(exact, rel=4 * np.finfo(np.float64).eps, abs=1e-290)
