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

Where the compiled backend builds, the table also carries a *measured*
Table III next to the modelled Haswell rows: microseconds per compiled
``clamr_rhs`` call on the 128² level-2 dam break mesh (the
clamr-muscl-128l2 workload after its 150 steps), for a scalar build
(``-fno-tree-vectorize``) and the default vector build, Rusanov and MUSCL.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import emit
from repro.clamr import ClamrSimulation, DamBreakConfig
from repro.clamr import backends
from repro.clamr.backends import cext
from repro.clamr.kernels import FaceLists, finite_diff_vectorized
from repro.clamr.muscl import finite_diff_muscl
from repro.harness.experiments import table3_vectorization
from repro.precision.policy import PrecisionPolicy, level_from_name
from tests.conftest import build_cext

CFG = DamBreakConfig(nx=24, ny=24, max_level=1)
CLAMR_LEVELS = ("min", "mixed", "full")

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


def _rhs_args(mesh, state, faces, kernel) -> tuple:
    """The arguments of the first compiled ``clamr_rhs`` call ``kernel`` makes."""
    calls = []
    with backends.kernel_backend("cext"), pytest.MonkeyPatch.context() as mp:
        ops = backends.dispatch_ops(state.policy.compute_dtype)
        mp.setattr(ops, "clamr_rhs", lambda *args: calls.append(args))
        kernel(mesh, state.copy(), 1e-5, faces=faces)
    return calls[0]


def measured_compiled_rows(tmp_path_factory, reps: int = 7, calls: int = 10) -> dict:
    """Median µs per ``clamr_rhs`` call, {(build, scheme): {level: µs}}.

    Scalar and vector builds alternate within each repetition, on the
    same arguments (the ctypes call is included).
    """
    libs = {build: lib for build, (lib, _cache) in build_cext(tmp_path_factory.mktemp).items()}
    with backends.kernel_backend("cext"):
        sim = ClamrSimulation(DamBreakConfig(nx=128, ny=128, max_level=2),
                              policy="full", scheme="muscl")
        sim.run(150)
    faces = FaceLists.from_mesh(sim.mesh)
    rows: dict = {}
    for scheme, kernel in (("Rusanov", finite_diff_vectorized), ("MUSCL", finite_diff_muscl)):
        for level in CLAMR_LEVELS:
            state = sim.state.with_policy(PrecisionPolicy.from_level(level_from_name(level)))
            args = _rhs_args(sim.mesh, state, faces, kernel)
            times = {build: [] for build in libs}
            with pytest.MonkeyPatch.context() as mp:
                for _ in range(reps):
                    for build, lib in libs.items():
                        mp.setattr(cext, "_lib", lib)
                        t0 = time.perf_counter()
                        for _ in range(calls):
                            cext.clamr_rhs(*args)
                        times[build].append((time.perf_counter() - t0) / calls * 1e6)
            for build in libs:
                rows.setdefault((build, scheme), {})[level] = float(np.median(times[build]))
    return rows


def test_table3_shape(benchmark, tmp_path_factory):
    table = benchmark.pedantic(
        table3_vectorization, kwargs=dict(nx=24, steps=60), rounds=1, iterations=1
    )
    if backends.cext.availability()[0]:
        measured = measured_compiled_rows(tmp_path_factory)
        for (build, scheme), by_level in measured.items():
            table.add_row(f"measured cext {build} build, {scheme} (µs/rhs call)",
                          *(by_level[level] for level in CLAMR_LEVELS))
        table.notes.append("cext rows: 128² L2 dam break mesh after 150 steps; "
                           "scalar build = the same flags plus -fno-tree-vectorize")
        # the single-precision cell of the paper's vectorized row
        assert measured[("vector", "MUSCL")]["min"] < measured[("scalar", "MUSCL")]["min"]
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
