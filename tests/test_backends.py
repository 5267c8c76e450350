"""Kernel-backend registry, dispatch, and bit-identity parity.

The loop backends (``python`` loops, compiled ``cext``) sit behind
the NumPy oracle under a hard contract: *bit-identical state at every
precision level, scheme, and scenario, or the dispatch is a bug*.  These
tests enforce the contract end to end — raw kernel calls, full
simulation runs (AMR regrids included), ledger conservation digests,
state-hash ladders, process-parallel sweeps — plus the registry
semantics (selection precedence, env var, graceful fallback) and the
deliberate exclusion of the backend from run identity.

The ``python`` backend is always importable, so the parity net stays
armed even where no compiler exists.  ``cext`` cases skip where
unavailable and run in CI.
"""

import inspect
import os
import re
from pathlib import Path

import numpy as np
import pytest

from repro.clamr import ClamrSimulation, DamBreakConfig
from repro.clamr import backends
from repro.clamr.amr import refinement_flags
from repro.clamr.backends import (
    BACKENDS,
    ENV_VAR,
    UnknownBackendError,
    active_backend,
    available_backends,
    kernel_backend,
    normalize_backend,
    resolved_backend,
    set_kernel_backend,
)
from repro.clamr.kernels import FaceLists, compute_timestep, finite_diff_vectorized
from repro.clamr.mesh import AmrMesh
from repro.clamr.muscl import finite_diff_muscl, limited_slopes
from repro.clamr.state import ShallowWaterState
from repro.precision.policy import PrecisionPolicy, level_from_name

HAVE_CEXT = backends.cext.availability()[0]

#: compiled backends present in this environment (parametrized cases)
COMPILED = [
    pytest.param("cext", marks=pytest.mark.skipif(not HAVE_CEXT, reason="no C compiler")),
]

#: cext built without the loop vectorizer (tests/conftest.py), for the
#: positivity-guard case: the vector build must not change its bits
SCALAR_BUILD = [
    pytest.param("cext-scalar", marks=pytest.mark.skipif(not HAVE_CEXT, reason="no C compiler")),
]

BEST_COMPILED = "cext" if HAVE_CEXT else None


@pytest.fixture(autouse=True)
def _isolate_backend():
    """Every test starts and ends on the default selection, env unset."""
    os.environ.pop(ENV_VAR, None)
    set_kernel_backend(None)
    yield
    os.environ.pop(ENV_VAR, None)
    set_kernel_backend(None)


class TestRegistry:
    def test_registry_names(self):
        assert BACKENDS == ("numpy", "python", "cext")

    def test_normalize_canonicalizes(self):
        assert normalize_backend(" CEXT ") == "cext"
        assert normalize_backend("NumPy") == "numpy"

    def test_unknown_backend_raises(self):
        with pytest.raises(UnknownBackendError, match="bogus"):
            normalize_backend("bogus")
        # a ValueError subclass: the CLI turns it into a one-line exit 2
        assert issubclass(UnknownBackendError, ValueError)

    def test_default_is_numpy(self):
        assert active_backend() == "numpy"
        assert resolved_backend() == "numpy"

    def test_env_var_selects(self):
        os.environ[ENV_VAR] = "python"
        assert active_backend() == "python"

    def test_explicit_beats_env(self):
        os.environ[ENV_VAR] = "python"
        set_kernel_backend("numpy")
        assert active_backend() == "numpy"

    def test_context_manager_restores(self):
        with kernel_backend("python"):
            assert active_backend() == "python"
            with kernel_backend("numpy"):
                assert active_backend() == "numpy"
            assert active_backend() == "python"
        assert active_backend() == "numpy"

    def test_available_backends_report(self):
        rows = {r["name"]: r for r in available_backends()}
        assert set(rows) == set(BACKENDS)
        assert rows["numpy"]["available"] and rows["python"]["available"]

    def test_float16_always_runs_the_oracle(self):
        # the half policy computes in float16, which cext does not
        # support; dispatch must fall back rather than convert
        with kernel_backend("cext"):
            assert resolved_backend(np.float16) == "numpy"
        # the pure-Python loops are dtype-generic and do run float16
        with kernel_backend("python"):
            assert resolved_backend(np.float16) == "python"

    def test_loop_and_c_exports_mirror(self):
        # every loop body has exactly one exported C twin and a cext
        # adapter taking the same arguments; static C helpers stay private.
        # Exports are per compute type (FN(name)) or, for the dtype-free
        # topology builders, plain names defined once
        src = (Path(backends.__file__).parent / "_kernels_impl.h").read_text()
        defs = re.findall(r"^(?!static\b)[A-Za-z_][\w ]*?\b(?:FN\((\w+)\)|(\w+))\(", src, re.M)
        exported = {typed or plain for typed, plain in defs}
        assert exported == set(backends.loops.__all__) == {
            "clamr_rhs", "heun_stage",
            "mesh_neighbors", "face_count", "face_fill",
            "refinement_flags", "enforce_balance",
        }
        for name in exported:
            loop_fn = getattr(backends.loops, name)
            adapter = getattr(backends.cext, name)
            assert inspect.signature(adapter) == inspect.signature(loop_fn), name


def _snapshot(level, nx=12, max_level=1, prerun=4):
    """A small evolved dam break: mixed-level mesh, live wave front."""
    cfg = DamBreakConfig(nx=nx, ny=nx, max_level=max_level)
    sim = ClamrSimulation(cfg, policy=level)
    sim.run(prerun)
    return sim.mesh, sim.state, FaceLists.from_mesh(sim.mesh)


def _evolve(mesh, state, faces, kernel, bathy, backend, steps=4):
    s = state.copy()
    dts = []
    with kernel_backend(backend):
        for _ in range(steps):
            dt = compute_timestep(mesh, s, 0.25)
            dts.append(dt)
            kernel(mesh, s, dt, faces=faces, bathy=bathy)
    return s, dts


def _assert_states_equal(a, b, context=""):
    assert np.array_equal(a.H, b.H, equal_nan=True), f"H bits diverged {context}"
    assert np.array_equal(a.U, b.U, equal_nan=True), f"U bits diverged {context}"
    assert np.array_equal(a.V, b.V, equal_nan=True), f"V bits diverged {context}"


class TestKernelParity:
    """Raw kernel calls on a frozen mesh: fd + muscl, flat + bathymetry."""

    @pytest.mark.parametrize("level", ["half", "min", "mixed", "full"])
    @pytest.mark.parametrize("kernel", [finite_diff_vectorized, finite_diff_muscl],
                             ids=["fd", "muscl"])
    @pytest.mark.parametrize("with_bathy", [False, True], ids=["flat", "bathy"])
    def test_python_matches_numpy(self, level, kernel, with_bathy):
        mesh, state, faces = _snapshot(level)
        bathy = 0.05 * np.random.default_rng(7).random(mesh.ncells) if with_bathy else None
        ref, ref_dts = _evolve(mesh, state, faces, kernel, bathy, "numpy")
        got, got_dts = _evolve(mesh, state, faces, kernel, bathy, "python")
        _assert_states_equal(ref, got, f"({level})")
        assert ref_dts == got_dts

    @pytest.mark.parametrize("backend", COMPILED)
    @pytest.mark.parametrize("level", ["min", "mixed", "full"])
    @pytest.mark.parametrize("kernel", [finite_diff_vectorized, finite_diff_muscl],
                             ids=["fd", "muscl"])
    @pytest.mark.parametrize("with_bathy", [False, True], ids=["flat", "bathy"])
    def test_compiled_matches_numpy(self, backend, level, kernel, with_bathy):
        mesh, state, faces = _snapshot(level, nx=16, max_level=2)
        bathy = 0.05 * np.random.default_rng(7).random(mesh.ncells) if with_bathy else None
        ref, ref_dts = _evolve(mesh, state, faces, kernel, bathy, "numpy", steps=6)
        got, got_dts = _evolve(mesh, state, faces, kernel, bathy, backend, steps=6)
        _assert_states_equal(ref, got, f"({backend}/{level})")
        assert ref_dts == got_dts

    @pytest.mark.parametrize("backend", ["numpy", "python", *COMPILED])
    @pytest.mark.parametrize("kernel", [finite_diff_vectorized, finite_diff_muscl],
                             ids=["fd", "muscl"])
    def test_wrong_length_bathymetry_raises(self, backend, kernel):
        # the compiled kernel indexes the bottom unchecked; a short one
        # must fail with both lengths named before any backend reads it
        mesh, state, faces = _snapshot("full")
        short = mesh.ncells // 2
        with kernel_backend(backend), pytest.raises(ValueError) as err:
            kernel(mesh, state.copy(), 1e-4, faces=faces, bathy=np.zeros(short))
        assert f"({short},)" in str(err.value) and str(mesh.ncells) in str(err.value)

    @pytest.mark.parametrize("backend", ["numpy", "python", *COMPILED])
    @pytest.mark.parametrize("stage", ["refinement_flags", "fd", "muscl"])
    @pytest.mark.parametrize("delta", [-3, 3], ids=["short", "long"])
    def test_wrong_length_state_raises(self, backend, stage, delta):
        # the compiled loops index the state unchecked; a state of another
        # length must fail with both lengths named, on every backend alike
        mesh, state, faces = _snapshot("full")
        n = mesh.ncells + delta
        H = np.resize(state.H, n)
        wrong = ShallowWaterState(H=H, U=np.zeros(n), V=np.zeros(n), policy=state.policy)
        with kernel_backend(backend), pytest.raises(ValueError) as err:
            if stage == "refinement_flags":
                refinement_flags(mesh, wrong)
            else:
                kernel = finite_diff_muscl if stage == "muscl" else finite_diff_vectorized
                kernel(mesh, wrong, 1e-4, faces=faces)
        assert str(err.value) == f"state has {n} cells; the mesh has {mesh.ncells}"

    @pytest.mark.parametrize("backend", ["python", *COMPILED, *SCALAR_BUILD])
    @pytest.mark.parametrize("level", ["half", "min", "full"])
    def test_muscl_positivity_guard_parity(self, backend, level, request, monkeypatch):
        # a 16^2 beach whose shoreline crosses the domain: the free-surface
        # reconstruction drives some face depths non-positive, so MUSCL's
        # positivity guard falls back to cell means there
        mesh = AmrMesh.uniform(16, 16, coarse_size=1 / 16)
        x, _ = mesh.cell_centers()
        bathy = 0.5 * x
        H = np.maximum(0.3 - bathy, 1e-3)
        policy = PrecisionPolicy.from_level(level_from_name(level))
        state = ShallowWaterState(H=H, U=0.05 * H, V=np.zeros_like(H), policy=policy)
        faces = FaceLists.from_mesh(mesh)

        cdtype = policy.compute_dtype
        b = bathy.astype(cdtype)
        eta = state.promoted()[0] + b
        size = mesh.cell_size().astype(cdtype)
        off = cdtype.type(0.5) * size
        sx, _ = limited_slopes(mesh, eta, size)
        lo, hi = faces.xl, faces.xr
        h_lo = (eta[lo] + sx[lo] * off[lo]) - b[lo]
        h_hi = (eta[hi] - sx[hi] * off[hi]) - b[hi]
        assert ((h_lo <= 0) | (h_hi <= 0)).any(), "the guard never fires"

        if backend == "cext-scalar":
            lib, _cache = request.getfixturevalue("cext_builds")["scalar"]
            monkeypatch.setattr(backends.cext, "_lib", lib)
            backend = "cext"
        ref, ref_dts = _evolve(mesh, state, faces, finite_diff_muscl, bathy, "numpy", steps=3)
        got, got_dts = _evolve(mesh, state, faces, finite_diff_muscl, bathy, backend, steps=3)
        assert all(np.isfinite(a).all() for a in (ref.H, ref.U, ref.V))
        _assert_states_equal(ref, got, f"({backend}/{level})")
        assert ref_dts == got_dts


class TestSimulationParity:
    """Whole runs through the drivers: dispatch + warmup + AMR regrids."""

    def _run(self, backend, level="mixed", scheme="rusanov", steps=12):
        cfg = DamBreakConfig(nx=12, ny=12, max_level=2)
        with kernel_backend(backend):
            sim = ClamrSimulation(cfg, policy=level, scheme=scheme)
            res = sim.run(steps)
        return sim, res

    @pytest.mark.parametrize("level", ["half", "min", "mixed", "full"])
    @pytest.mark.parametrize("scheme", ["rusanov", "muscl"])
    def test_python_full_run(self, level, scheme):
        ref_sim, ref = self._run("numpy", level, scheme, steps=8)
        got_sim, got = self._run("python", level, scheme, steps=8)
        _assert_states_equal(ref_sim.state, got_sim.state, f"({level}/{scheme})")
        assert ref.mass_history == got.mass_history

    @pytest.mark.parametrize("backend", COMPILED)
    @pytest.mark.parametrize("level", ["min", "mixed", "full"])
    @pytest.mark.parametrize("scheme", ["rusanov", "muscl"])
    def test_compiled_full_run(self, backend, level, scheme):
        ref_sim, ref = self._run("numpy", level, scheme)
        got_sim, got = self._run(backend, level, scheme)
        _assert_states_equal(ref_sim.state, got_sim.state, f"({backend}/{level}/{scheme})")
        assert ref.mass_history == got.mass_history

    def test_self_python_parity(self):
        from repro.self_ import SelfSimulation, ThermalBubbleConfig

        for precision in ("single", "double"):
            cfg = ThermalBubbleConfig(nex=2, ney=2, nez=2, order=2)
            with kernel_backend("numpy"):
                ref = SelfSimulation(cfg, precision=precision).run(4)
            with kernel_backend("python"):
                got = SelfSimulation(cfg, precision=precision).run(4)
            assert np.array_equal(ref.anomaly_field, got.anomaly_field), precision
            assert ref.max_vertical_velocity == got.max_vertical_velocity

    @pytest.mark.parametrize("backend", COMPILED)
    def test_self_compiled_parity(self, backend):
        from repro.self_ import SelfSimulation, ThermalBubbleConfig

        cfg = ThermalBubbleConfig(nex=2, ney=2, nez=2, order=3)
        with kernel_backend("numpy"):
            ref = SelfSimulation(cfg, precision="double").run(6)
        with kernel_backend(backend):
            got = SelfSimulation(cfg, precision="double").run(6)
        assert np.array_equal(ref.anomaly_field, got.anomaly_field)
        assert ref.max_vertical_velocity == got.max_vertical_velocity


@pytest.mark.skipif(BEST_COMPILED is None, reason="no compiled backend available")
class TestScenarioParity:
    """Every registered scenario, compiled vs oracle, bit for bit."""

    def _states(self, name, backend, steps=6):
        from repro.scenarios import scenario_spec

        with kernel_backend(backend):
            sim = scenario_spec(name, scale="quick").simulation()
            sim.run(steps)
        if hasattr(sim, "state"):
            return sim.state.H.copy(), sim.state.U.copy(), sim.state.V.copy()
        return (sim.U.copy(),)

    def test_all_scenarios_bit_identical(self):
        from repro.scenarios import scenario_names

        names = scenario_names()
        assert len(names) >= 8  # the full library rides through the backends
        for name in names:
            ref = self._states(name, "numpy")
            got = self._states(name, BEST_COMPILED)
            for a, b in zip(ref, got):
                assert a.dtype == b.dtype, name
                assert np.array_equal(a, b, equal_nan=True), \
                    f"{name}: state bits diverged on {BEST_COMPILED}"


class TestLadderAndLedgerParity:
    """Fingerprint-level equivalence: hashes, digests, run identity."""

    BACKEND = BEST_COMPILED or "python"

    def _record(self, backend):
        from repro.ledger import run_workload
        from repro.service.jobs import JobSpec

        with kernel_backend(backend):
            record, _tel = run_workload(JobSpec(
                "clamr", nx=12, steps=10, max_level=1,
                policy="mixed", scheme="rusanov",
            ))
        return record

    def test_conservation_hex_and_identity_shared(self):
        ref = self._record("numpy")
        got = self._record(self.BACKEND)
        # bitwise-identical conservation sums, same run identity...
        assert ref.fidelity["conservation_last_hex"] == got.fidelity["conservation_last_hex"]
        assert ref.workload_key == got.workload_key
        assert ref.fingerprint == got.fingerprint
        # ...while the provenance field says who computed it
        assert ref.backend == "numpy"
        assert got.backend in ("cext", "python")

    def test_workload_key_pinned(self):
        # the literal guards the *exclusion*: if the backend ever leaks
        # into the hashed identity, this stops matching and the committed
        # golden fingerprints all silently fork per machine
        assert self._record(self.BACKEND).workload_key == "584954c819aff89d"

    def test_scalar_run_records_python_backend(self):
        # an unvectorized run steps on the python loops whatever backend
        # is selected, so that is what its provenance must say
        from repro.ledger.record import record_from_clamr
        from repro.telemetry import Telemetry

        os.environ[ENV_VAR] = "cext"
        cfg = DamBreakConfig(nx=8, ny=8, max_level=1)
        records = {}
        for vectorized in (True, False):
            tel = Telemetry(label="t")
            res = ClamrSimulation(cfg, policy="mixed", vectorized=vectorized,
                                  telemetry=tel).run(4)
            records[vectorized] = record_from_clamr(res, tel, cfg)
        assert records[False].backend == "python"
        assert records[True].backend == ("cext" if HAVE_CEXT else "numpy")
        assert (records[False].fidelity["conservation_last_hex"]
                == records[True].fidelity["conservation_last_hex"])

    def test_record_roundtrip_and_legacy_default(self):
        from repro.ledger.record import RunRecord

        rec = self._record(self.BACKEND)
        clone = RunRecord.from_json(rec.to_json())
        assert clone.backend == rec.backend
        # pre-backend records (no field at all) read back as the oracle
        doc = __import__("json").loads(rec.to_json())
        del doc["backend"]
        assert RunRecord.from_dict(doc).backend == "numpy"

    def test_hash_ladder_root_identical(self):
        from repro.diverge.ladder import StateHashLadder
        from repro.telemetry import Telemetry

        roots = {}
        for backend in ("numpy", self.BACKEND):
            ladder = StateHashLadder(stride=2, label=backend)
            tel = Telemetry(label="t", ladder=ladder)
            cfg = DamBreakConfig(nx=12, ny=12, max_level=1)
            with kernel_backend(backend):
                ClamrSimulation(cfg, policy="mixed", telemetry=tel).run(10)
            roots[backend] = ladder.root()
        assert roots["numpy"] == roots[self.BACKEND]

    def test_warmup_span_only_off_oracle(self):
        from repro.telemetry import Telemetry

        for backend, expect in (("numpy", 0), (self.BACKEND, 1)):
            tel = Telemetry(label="t")
            cfg = DamBreakConfig(nx=8, ny=8, max_level=0)
            with kernel_backend(backend):
                ClamrSimulation(cfg, policy="full", telemetry=tel).run(2)
            spans = [s for s in tel.tracer.spans if s.name == "clamr/backend_warmup"]
            assert len(spans) == expect, backend


@pytest.mark.skipif(BEST_COMPILED is None, reason="no compiled backend available")
class TestExecutorParity:
    def test_jobs2_compiled_matches_serial_oracle(self):
        # workers are spawned processes: they inherit the selection via
        # $REPRO_KERNEL_BACKEND, not via module state
        from repro.harness.experiments import run_clamr_levels

        serial = run_clamr_levels(nx=12, steps=8)
        os.environ[ENV_VAR] = BEST_COMPILED
        parallel = run_clamr_levels(nx=12, steps=8, jobs=2)
        assert serial.keys() == parallel.keys()
        for level in serial:
            a, b = serial[level], parallel[level]
            assert np.array_equal(a.slice_precise, b.slice_precise), level
            assert a.mass_history == b.mass_history, level
            assert np.array_equal(a.field, b.field), level


class TestFallback:
    def test_cext_absent_falls_back_to_oracle(self, monkeypatch):
        # force the compiler probe to fail, whatever this environment has
        monkeypatch.setattr(
            backends.cext, "availability", lambda: (False, "forced absent")
        )
        backends._OPS_CACHE.clear()
        try:
            with kernel_backend("cext"):
                assert resolved_backend(np.float64) == "numpy"
                cfg = DamBreakConfig(nx=8, ny=8, max_level=1)
                got = ClamrSimulation(cfg, policy="mixed")
                got.run(6)
            ref = ClamrSimulation(DamBreakConfig(nx=8, ny=8, max_level=1), policy="mixed")
            ref.run(6)
            _assert_states_equal(ref.state, got.state, "(cext fallback)")
        finally:
            backends._OPS_CACHE.clear()

    def test_explicit_oracle_scatter_mode_disables_dispatch(self):
        # scatter_mode("add_at") is the *other* oracle switch; backends
        # must never engage under it, so the two escape hatches compose
        from repro.clamr.kernels import scatter_mode

        mesh, state, faces = _snapshot("full", nx=8)
        with scatter_mode("add_at"):
            ref, _ = _evolve(mesh, state, faces, finite_diff_vectorized, None, "numpy")
            got, _ = _evolve(mesh, state, faces, finite_diff_vectorized, None, "python")
        _assert_states_equal(ref, got, "(add_at)")


class TestCli:
    def test_backends_subcommand(self, capsys):
        from repro.cli import main

        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in BACKENDS:
            assert name in out

    def test_unknown_backend_exits_2_one_line(self, capsys):
        from repro.cli import main

        assert main(["clamr", "--nx", "8", "--steps", "2", "--backend", "tpu"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown kernel backend" in err

    @pytest.mark.parametrize("argv,env", [
        (["--backend", "auto"], None),
        ([], "auto"),
    ], ids=["flag", "env"])
    def test_removed_backend_names_exit_2_one_line(self, capsys, argv, env):
        from repro.cli import main

        if env is not None:
            os.environ[ENV_VAR] = env
        assert main(["clamr", "--nx", "8", "--steps", "2", *argv]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown kernel backend" in err

    def test_backend_flag_runs_and_exports_env(self, capsys):
        from repro.cli import main

        assert main(["clamr", "--nx", "8", "--steps", "3", "--backend", "python"]) == 0
        assert os.environ.get(ENV_VAR) == "python"
