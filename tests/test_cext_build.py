"""The compiled kernel's bits do not depend on how it is built.

``cext`` builds with ``-fno-trapping-math`` and ``-march=native`` so that
the compiler vectorizes the slope and face loops of ``_kernels_impl.h``.
A vector lane rounds exactly as the scalar unit does and the flags allow
no value-changing transformation, so a scalar build (the same flags plus
``-fno-tree-vectorize``) and the vector build must give the NumPy
oracle's bytes: state, mass hex and cell-count history, on flat and
bathymetric runs, both schemes and every compiled precision level.  (The
beach whose MUSCL positivity guard fires runs on the scalar build in
``test_backends.py``.)  The last test asks GCC whether those loops still
vectorize at every compute type.
"""

import re
import subprocess

import numpy as np
import pytest

from repro.clamr import backends
from repro.clamr.backends import cext, kernel_backend
from repro.service import JobSpec

HAVE_CEXT = cext.availability()[0]
pytestmark = pytest.mark.skipif(not HAVE_CEXT, reason="no C compiler")


def _run(scenario, policy, scheme):
    spec = JobSpec("clamr", nx=16, max_level=2, policy=policy, scheme=scheme,
                   scenario=scenario or "")
    sim = spec.simulation()
    res = sim.run(40)
    s = sim.state
    return {
        "H": s.H.tobytes(), "U": s.U.tobytes(), "V": s.V.tobytes(),
        "mass": [float(m).hex() for m in res.mass_history],
        "ncells": list(res.ncells_history),
    }


@pytest.mark.parametrize("policy", ["min", "mixed", "full"])
@pytest.mark.parametrize("scenario", [None, "clamr/partial-breach"], ids=["flat", "breach"])
@pytest.mark.parametrize("scheme", ["rusanov", "muscl"])
def test_scalar_and_vector_builds_match_the_oracle(cext_builds, monkeypatch, scheme, scenario, policy):
    with kernel_backend("numpy"):
        want = _run(scenario, policy, scheme)
    for build, (lib, _cache) in cext_builds.items():
        monkeypatch.setattr(cext, "_lib", lib)
        with kernel_backend("cext"):
            assert backends.resolved_backend(np.float64) == "cext"
            got = _run(scenario, policy, scheme)
        for key in want:
            assert got[key] == want[key], f"{build} build: {key} differs"


def test_host_build_is_keyed_on_the_host_cpu(monkeypatch):
    portable = [f for f in cext._CFLAGS if f != cext._NATIVE]
    before = cext._digest("cc", cext._CFLAGS), cext._digest("cc", portable)
    monkeypatch.setattr(cext, "_host_cpu", lambda: "another cpu")
    after = cext._digest("cc", cext._CFLAGS), cext._digest("cc", portable)
    assert after[0] != before[0] and after[1] == before[1]


def _no_compiler(*args, **kwargs):
    raise AssertionError("a cached load ran the compiler")


def test_cached_host_build_runs_no_compiler(cext_builds, monkeypatch):
    _lib, cache = cext_builds["vector"]  # built with the backend's own flags
    monkeypatch.setenv("REPRO_CEXT_CACHE", str(cache))
    monkeypatch.setattr(cext.subprocess, "run", _no_compiler)
    assert cext._build_and_load()[1] == f"compiled via {cext._find_compiler()}, -march=native"


def test_rejected_host_flag_builds_portable_once(tmp_path, monkeypatch):
    # a host flag the compiler rejects: one portable build, and a marker
    # that sends the next load straight to it
    monkeypatch.setenv("REPRO_CEXT_CACHE", str(tmp_path))
    portable = [f for f in cext._CFLAGS if f != cext._NATIVE]
    monkeypatch.setattr(cext, "_NATIVE", "-mno-such-host-flag")
    monkeypatch.setattr(cext, "_CFLAGS", [*portable, "-mno-such-host-flag"])
    _lib, detail = cext._build_and_load()
    assert detail == (f"compiled via {cext._find_compiler()}, "
                      "portable (-mno-such-host-flag rejected)")
    assert len(list(tmp_path.glob("*.rejected"))) == 1
    monkeypatch.setattr(cext.subprocess, "run", _no_compiler)
    assert cext._build_and_load()[1] == detail


def test_other_build_failure_is_raised(tmp_path, monkeypatch):
    # a failure whose error does not name the host flag pins nothing
    monkeypatch.setenv("REPRO_CEXT_CACHE", str(tmp_path))
    monkeypatch.setattr(cext, "_CFLAGS", [*cext._CFLAGS, "-fno-such-option"])
    with pytest.raises(RuntimeError, match="-fno-such-option"):
        cext._build_and_load()
    assert list(tmp_path.iterdir()) == []


def _is_gcc(compiler: str) -> bool:
    out = subprocess.run([compiler, "--version"], capture_output=True, text=True)
    return "Free Software Foundation" in out.stdout and "clang" not in out.stdout


def test_face_pass_vectorizes(tmp_path):
    """Every face-body clone and the slopes loop vectorize at float and double.

    Compiled with the backend's own flags plus the vectorizer's report,
    without epilogue vectorization so that each vectorized loop reports
    once; the per-function dump attributes each report to its ``_f32`` or
    ``_f64`` instance.  A compiler clone (``faces_f32.constprop.0``) counts
    for its function, and a face body left out of line for ``faces``.
    """
    compiler = cext._find_compiler()
    if not _is_gcc(compiler):
        pytest.skip(f"{compiler} is not GCC")
    dump = tmp_path / "vect.txt"
    cmd = [compiler, *cext._CFLAGS, "-fopt-info-vec-optimized",
           "--param", "vect-epilogues-nomask=0", f"-fdump-tree-vect-optimized={dump}",
           "-o", str(tmp_path / "k.so"), str(cext._SRC_DIR / "_kernels.c")]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    vectorized = {}
    function = None
    for line in dump.read_text().splitlines():
        head = re.match(r";; Function ([\w.]+) ", line)
        if head:
            function = head.group(1).split(".")[0].replace("face_body_", "faces_")
        elif "optimized: loop vectorized" in line:
            vectorized[function] = vectorized.get(function, 0) + 1
    # faces: one clone per (muscl, well-balanced) pair; slopes: one loop
    want = {f"{fn}_{t}": n for fn, n in (("faces", 4), ("slopes", 1)) for t in ("f32", "f64")}
    got = {name: vectorized.get(name, 0) for name in want}
    assert all(got[name] >= n for name, n in want.items()), (got, proc.stderr)
