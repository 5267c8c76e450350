"""Table III — finite_diff vectorization × precision, and checkpoint sizes.

Benchmarks the unvectorized (python-backend loop) and NumPy kernels, regenerates
the table (measured Python wall-clock + modelled Haswell times + paper-
scale checkpoint sizes), and checks the paper's shape: vectorization
unlocks the single-precision gain (1.9x vectorized vs ~1.1x scalar), and
min/mixed checkpoints are 2/3 of full.

The compiled-backend cases extend the same ladder one rung further:
scalar -> NumPy -> cext, each measured on the identical workload
(bit-identical by the backend contract, so the comparison is fair; see
benchmarks/bench_kernel_backends.py for the gated speedup floors).
"""

import pytest

from benchmarks.conftest import emit
from repro.clamr import ClamrSimulation, DamBreakConfig
from repro.clamr import backends
from repro.harness.experiments import table3_vectorization

CFG = DamBreakConfig(nx=24, ny=24, max_level=1)

#: the oracle plus the compiled backend, if this machine can build it
MEASURED_BACKENDS = ["numpy"] + (["cext"] if backends.cext.availability()[0] else [])


def test_finite_diff_vectorized(benchmark):
    sim = ClamrSimulation(CFG, policy="min", vectorized=True)
    benchmark.pedantic(sim.run, args=(10,), rounds=3, iterations=1)


def test_finite_diff_scalar(benchmark):
    sim = ClamrSimulation(CFG, policy="min", vectorized=False)
    benchmark.pedantic(sim.run, args=(10,), rounds=1, iterations=1)


@pytest.mark.parametrize("backend", MEASURED_BACKENDS)
def test_finite_diff_backend(benchmark, backend):
    with backends.kernel_backend(backend):
        backends.warmup(ClamrSimulation(CFG, policy="min").policy.compute_dtype)
        sim = ClamrSimulation(CFG, policy="min", vectorized=True)
        benchmark.pedantic(sim.run, args=(10,), rounds=3, iterations=1)


@pytest.mark.parametrize("backend", MEASURED_BACKENDS)
def test_muscl_backend(benchmark, backend):
    with backends.kernel_backend(backend):
        backends.warmup(ClamrSimulation(CFG, policy="min").policy.compute_dtype)
        sim = ClamrSimulation(CFG, policy="min", vectorized=True, scheme="muscl")
        benchmark.pedantic(sim.run, args=(10,), rounds=3, iterations=1)


def test_table3_shape(benchmark):
    table = benchmark.pedantic(
        table3_vectorization, kwargs=dict(nx=24, steps=60), rounds=1, iterations=1
    )
    emit(table)
    _, v_min, v_mixed, v_full = table.row_by_label("modelled Haswell vectorized (s)")
    _, u_min, u_mixed, u_full = table.row_by_label("modelled Haswell unvectorized (s)")
    # vectorized: large single-precision gain (paper: 9.2/4.8 = 1.9x)
    assert 1.3 < v_full / v_min < 2.5
    # unvectorized: small gain (paper: 12.7/11.4 = 1.1x)
    assert u_full / u_min < 1.35
    # vectorization itself is the big lever at every precision
    assert u_min / v_min > 1.5
    # checkpoint ratio is exactly the layout ratio
    _, c_min, c_mixed, c_full = table.row_by_label("checkpoint size (MB)")
    assert c_min / c_full == pytest.approx(2 / 3, abs=0.01)
    assert c_min == c_mixed
