"""What a run loads: each case imports in a fresh interpreter.

Every package loads its modules on first use, so a run and the CLI's
start-up load none of the modules they do not execute (``UNUSED``), and
every package's ``import *`` resolves its whole ``__all__``.  A CLAMR
process loads scipy's compiled ``_sparsetools`` extension straight
from its file (``repro.clamr.kernels._load_sparsetools``), without the
``scipy.sparse`` package, ``numpy.f2py`` or ``numpy.testing``; a SELF or
scenario run does not load CLAMR, selecting a kernel backend loads
none of its kernels or simulation, and a CLAMR job's key loads only its
config; the sweep service's queue loads neither
CLAMR nor the parallel decomposition, nor — for a job without a
scenario — the scenario library.  The directly loaded routines, and
the ordinary ``scipy.sparse`` import the loader falls back to when the
extension file cannot be found, give the same bits.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent

#: hides scipy's package location from ``kernels._load_sparsetools``, so it
#: finds no extension file and takes the ordinary import
FAIL_LOCATOR = """
import importlib.util
_find_spec = importlib.util.find_spec
importlib.util.find_spec = lambda name, package=None: (
    None if name == "scipy" else _find_spec(name, package))
"""


def fresh(code: str):
    """Run ``code`` in a new interpreter; it prints one JSON document last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout.strip().splitlines()[-1])


def loaded_after(imports: str, names: tuple[str, ...]) -> list[str]:
    """Which of ``names`` are in ``sys.modules`` after ``imports`` ran."""
    code = f"import json, sys\n{imports}\nprint(json.dumps([n for n in {names!r} if n in sys.modules]))"
    return fresh(code)


#: what no run and no CLI start-up loads: the precision tuner and sweeps,
#: the machine models, the sum ladder beside ``dd_sum``, the ledger's
#: gate/report/bench, the exporters (telemetry off), the scenario runner
#: and the kernel loaders
UNUSED = tuple(
    f"repro.{pkg}.{m}" for pkg, names in (
        ("precision", ("tuner", "bitsweep", "stochastic")),
        ("machine", ("roofline", "energy", "compiler", "opcost")),
        ("sums", ("kahan", "pairwise", "reproducible")),
        ("ledger", ("bench", "gate", "report")),
        ("telemetry", ("export", "flight")),
        ("scenarios", ("runner",)),
        ("clamr.backends", ("cext", "loops")),
    ) for m in names
)

#: the three start-up paths: a tiny SELF run, a NumPy-backend CLAMR run
#: through a regrid, and the CLI's parser
BUDGET_PATHS = {
    "self-run": """
import numpy as np
from repro.clamr import backends
from repro.self_ import SelfSimulation, ThermalBubbleConfig
backends.set_kernel_backend("numpy")
backends.warmup(np.float64, which="self")
SelfSimulation(ThermalBubbleConfig(nex=2, ney=2, nez=2, order=2)).run(2)
""",
    "clamr-run": """
from repro.clamr import ClamrSimulation, DamBreakConfig, backends
backends.set_kernel_backend("numpy")
ClamrSimulation(DamBreakConfig(nx=16, ny=16, max_level=1)).run(12)
""",
    "cli-parser": """
import repro.cli
repro.cli.build_parser()
""",
}


def _ctypes_modules(imports: str) -> set[str]:
    code = (f"import json, sys\n{imports}\nprint(json.dumps("
            "[m for m in sys.modules if m.split('.')[0] in ('ctypes', '_ctypes')]))")
    return set(fresh(code))


@pytest.mark.parametrize("path", BUDGET_PATHS)
def test_import_budget(path):
    assert loaded_after(BUDGET_PATHS[path], UNUSED) == []
    if path == "self-run":
        # the switch a SELF run selects its backend through holds none of
        # the CLAMR marshalling, and the marshalling module stays unloaded
        code = BUDGET_PATHS[path] + (
            "import json, sys\nprint(json.dumps(["
            "'repro.clamr.backends.bridge' in sys.modules, "
            "'try_clamr_rhs' in vars(backends)]))"
        )
        assert fresh(code) == [False, False]
    if path.endswith("-run"):
        # NumPy imports ctypes itself; a run loads nothing of it beyond that
        assert _ctypes_modules(BUDGET_PATHS[path]) <= _ctypes_modules("import numpy")


PACKAGES = sorted(
    ".".join(init.parent.relative_to(ROOT / "src").parts)
    for init in (ROOT / "src" / "repro").rglob("__init__.py")
)

STAR = """
import importlib, json, types
bad = {}
for pkg in PACKAGES:
    names = getattr(importlib.import_module(pkg), "__all__", [])
    ns = {}
    try:
        exec(f"from {pkg} import *", ns)
    except Exception as exc:
        bad[pkg] = repr(exc)
        continue
    wrong = [n for n in names if n not in ns or isinstance(ns[n], types.ModuleType)]
    if wrong:
        bad[pkg] = wrong
print(json.dumps(bad))
"""


def test_every_package_star_import_resolves():
    # a name map entry that names the wrong module fails here, as does an
    # export that resolves to a module (a submodule of the export's name,
    # which an import would bind over the export)
    assert len(PACKAGES) >= 17
    assert fresh(f"PACKAGES = {PACKAGES!r}\n" + STAR) == {}


def test_clamr_loads_no_scipy_package():
    # the whole public API: every name loads its module on first access
    heavy = ("scipy.sparse", "numpy.f2py", "numpy.testing", "repro.harness.experiments")
    modules = tuple(f"repro.clamr.{m}" for m in (
        "amr", "checkpoint", "config", "kernels", "mesh", "muscl", "simulation",
        "state", "stoker"))
    got = loaded_after("from repro.clamr import *", heavy + modules)
    assert got == list(modules)


def test_backend_selection_loads_no_clamr_kernels():
    # how a SELF run picks its kernel backend (cli._apply_backend, the e2e child)
    names = ("repro.clamr.kernels", "repro.clamr.simulation", "repro.clamr.mesh")
    assert loaded_after("import repro.self_\nfrom repro.clamr import backends", names) == []


def test_self_and_scenarios_load_no_clamr():
    assert loaded_after("import repro.self_, repro.scenarios", ("repro.clamr",)) == []


def test_clamr_key_loads_only_the_config():
    # a CLAMR job's key builds its DamBreakConfig: no mesh, kernels or simulation
    code = """
import json, sys
from repro.service.jobs import JobSpec
JobSpec("clamr", nx=16).workload_key()
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro.clamr."))))
"""
    assert fresh(code) == ["repro.clamr.config"]


def test_service_queue_loads_no_clamr():
    # a job document without a scenario loads no scenario code either
    names = ("repro.clamr", "repro.parallel.halo", "repro.scenarios")
    imports = """
import repro.service.jobs, repro.service.queue
repro.service.jobs.JobSpec.from_dict({"workload": "clamr", "scenario": ""})
repro.service.jobs.JobSpec("self", elems=2, order=2).workload_key()
"""
    assert loaded_after(imports, names) == []


def csr_digests(st) -> dict:
    """sha256 of ``coo_tocsr`` and ``csr_matvec`` outputs from module ``st``.

    A 40-cell plan of 150 random faces, converted once; then an
    antisymmetric scatter and a sided one (high-side entries read the
    second half of a stacked vector) at float32 and float64.
    """
    rng = np.random.default_rng(11)
    ncells, nf = 40, 150
    low, high = rng.integers(0, ncells, (2, nf))
    faces = np.arange(nf, dtype=np.int32)
    sizes = rng.uniform(0.1, 1.0, nf)
    indptr = np.empty(ncells + 1, dtype=np.int32)
    cols = np.empty(2 * nf, dtype=np.int32)
    signed = np.empty(2 * nf)
    st.coo_tocsr(ncells, nf, 2 * nf, np.concatenate([low, high]).astype(np.int32),
                 np.concatenate([faces, faces]), np.concatenate([-sizes, sizes]),
                 indptr, cols, signed)
    out = {"plan": hashlib.sha256(indptr.tobytes() + cols.tobytes() + signed.tobytes()).hexdigest()}
    sided = cols + np.int32(nf) * (signed > 0)
    for dtype in (np.float32, np.float64):
        data = signed.astype(dtype)
        stacked = rng.standard_normal(2 * nf).astype(dtype)
        acc = rng.standard_normal(ncells).astype(dtype)
        flat, both = acc.copy(), acc.copy()
        st.csr_matvec(ncells, nf, indptr, cols, data, stacked[:nf], flat)
        st.csr_matvec(ncells, 2 * nf, indptr, sided, data, stacked, both)
        out[np.dtype(dtype).name] = hashlib.sha256(flat.tobytes() + both.tobytes()).hexdigest()
    return out


PROBE = """
import json, sys
from repro.clamr import kernels
from tests.test_imports import csr_digests
print(json.dumps({"file": kernels._sparsetools.__file__,
                  "package": "scipy.sparse" in sys.modules,
                  "digests": csr_digests(kernels._sparsetools)}))
"""


def test_direct_load_matches_scipy_sparse():
    from scipy.sparse import _sparsetools

    direct = fresh(PROBE)
    assert not direct["package"]  # loaded without running scipy/sparse/__init__.py
    assert Path(direct["file"]).name.startswith("_sparsetools")
    want = csr_digests(_sparsetools)
    assert set(want) == {"plan", "float32", "float64"}
    assert direct["digests"] == want


STEPS = """
import hashlib, json, sys
from repro.clamr import ClamrSimulation, DamBreakConfig
from repro.clamr import kernels
from tests.test_imports import csr_digests
states = {}
for scheme in ("rusanov", "muscl"):
    for policy in ("min", "mixed", "full"):
        sim = ClamrSimulation(DamBreakConfig(nx=16, ny=16, max_level=2), policy=policy, scheme=scheme)
        sim.run(12, record_mass=False)
        s = sim.state
        states[scheme + "/" + policy] = hashlib.sha256(
            s.H.tobytes() + s.U.tobytes() + s.V.tobytes()).hexdigest()
print(json.dumps({"package": "scipy.sparse" in sys.modules,
                  "digests": csr_digests(kernels._sparsetools), "states": states}))
"""


def test_fallback_import_gives_same_bits():
    direct = fresh(STEPS)
    fallback = fresh(FAIL_LOCATOR + STEPS)
    assert not direct["package"] and fallback["package"]  # each took its own path
    assert fallback["digests"] == direct["digests"]
    assert fallback["states"] == direct["states"]
