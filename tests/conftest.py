"""Fixtures shared by the test modules."""

import pytest

#: the compiled kernel's builds: the backend's own flags without the loop
#: vectorizer, and as they are
CEXT_BUILDS = {"scalar": ["-fno-tree-vectorize"], "vector": []}


def build_cext(mktemp) -> dict:
    """``{build: (lib, cache_dir)}`` for each of CEXT_BUILDS, each compiled
    into a fresh cache directory from ``mktemp(name)``."""
    from repro.clamr.backends import cext

    out = {}
    for name, extra in CEXT_BUILDS.items():
        cache = mktemp(name)
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("REPRO_CEXT_CACHE", str(cache))
            mp.setattr(cext, "_CFLAGS", [*cext._CFLAGS, *extra])
            out[name] = cext._build_and_load()[0], cache
    return out


@pytest.fixture(scope="session")
def cext_builds(tmp_path_factory):
    """The scalar and vector builds of the compiled kernel, built once."""
    from repro.clamr.backends import cext

    if not cext.availability()[0]:
        pytest.skip("no C compiler")
    return build_cext(tmp_path_factory.mktemp)
