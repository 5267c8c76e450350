"""Hierarchical state-hash ladder: chunk → field → site → step → root.

The ledger can already say *that* two runs diverge (one fingerprint per
run); the ladder says *where*.  Every recorded step hashes the live
state at each instrumentation site (one per kernel launch plus a
driver-level post-step site), and each level of the ladder is a sha256
over the level below:

* **chunk** — sha256 over a fixed-size slice of the field's
  little-endian contiguous bytes (``hash_chunk`` elements per slice);
* **field** — sha256 over the dtype/shape tag and the chunk digests;
* **site**  — sha256 over the (name, hash) pairs of its fields, in
  record order;
* **step**  — sha256 over the (name, hash) pairs of its sites;
* **root**  — running sha256 chained over the step hashes.

All digests are truncated to 16 hex chars (the repo-wide convention —
these are divergence *locators*, not security primitives).  Hashing is
bit-exact: two runs get equal hashes iff the bytes are equal, so a
single flipped mantissa bit in one chunk of one field changes every
hash above it and the comparator can bisect straight back down.

``hash_stride`` works like ``watch_stride``: only steps where
``step % stride == 0`` are hashed, trading resolution (divergence is
then *bracketed* to a stride window) for overhead
(``benchmarks/bench_statehash_overhead.py`` gates the stride-4 cost).

Persistence is a schema-versioned JSONL (``hashes.jsonl``) written
atomically via :mod:`repro.ioutil`, byte-identical across re-runs of
the same workload.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

import numpy as np

from repro import ioutil

__all__ = [
    "HASH_SCHEMA_VERSION",
    "FieldHash",
    "SiteHash",
    "StepHash",
    "StateHashLadder",
    "hash_array",
    "ladder_digest",
    "read_hashes",
    "write_hashes",
]

#: Bump when the hashes.jsonl line format changes incompatibly.
HASH_SCHEMA_VERSION = 1

#: Repo-wide digest truncation (matches the ledger's ``_HASH_CHARS``).
_HASH_CHARS = 16


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:_HASH_CHARS]


def _combine(pairs: Iterable[tuple[str, str]]) -> str:
    """One digest over ordered (name, hash) pairs of the level below."""
    h = hashlib.sha256()
    for name, hexdigest in pairs:
        h.update(name.encode("utf-8"))
        h.update(b"=")
        h.update(hexdigest.encode("ascii"))
        h.update(b";")
    return h.hexdigest()[:_HASH_CHARS]


def hash_array(value: Any, chunk: int = 4096) -> "FieldHash":
    """Hash one field's bytes into per-chunk digests + a field digest.

    ``value`` may be an ndarray or a python scalar (hashed as a
    one-element float64 array, so ``dt`` and mass sums join the ladder).
    The bytes hashed are always the little-endian contiguous
    representation, so the digests are platform-independent for the
    dtypes the mini-apps use.
    """
    arr = np.asarray(value)
    if arr.ndim == 0:
        arr = arr.reshape(1).astype(np.float64)
    le_dtype = arr.dtype.newbyteorder("<")
    flat = np.ascontiguousarray(arr, dtype=le_dtype).reshape(-1)
    chunks = [
        _digest(flat[i : i + chunk].tobytes())
        for i in range(0, max(flat.size, 1), chunk)
    ]
    tag = f"{le_dtype.str}|{list(arr.shape)}|"
    field_hash = _digest(tag.encode("ascii") + "".join(chunks).encode("ascii"))
    return FieldHash(
        name="",
        dtype=le_dtype.str,
        shape=tuple(int(n) for n in arr.shape),
        hash=field_hash,
        chunks=chunks,
    )


@dataclass
class FieldHash:
    """One field (named array) at one site: digest plus chunk digests."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    hash: str
    chunks: list[str]

    def to_doc(self) -> dict:
        return {
            "name": self.name,
            "dtype": self.dtype,
            "shape": list(self.shape),
            "hash": self.hash,
            "chunks": list(self.chunks),
        }

    @classmethod
    def from_doc(cls, doc: Mapping) -> "FieldHash":
        entry = cls(
            name=str(doc["name"]),
            dtype=str(doc["dtype"]),
            shape=tuple(int(n) for n in doc["shape"]),
            hash=str(doc["hash"]),
            chunks=[str(c) for c in doc["chunks"]],
        )
        tag = f"{entry.dtype}|{list(entry.shape)}|"
        recomputed = _digest(tag.encode("ascii") + "".join(entry.chunks).encode("ascii"))
        if recomputed != entry.hash:
            raise ValueError(
                f"field {entry.name!r}: stored field hash {entry.hash} does not "
                f"match its chunks ({recomputed}) — damaged hashes.jsonl"
            )
        return entry


@dataclass
class SiteHash:
    """One instrumentation site (kernel launch or driver probe)."""

    name: str
    fields: list[FieldHash]
    hash: str = ""

    def __post_init__(self) -> None:
        if not self.hash:
            self.hash = _combine((f.name, f.hash) for f in self.fields)

    def to_doc(self) -> dict:
        return {
            "name": self.name,
            "hash": self.hash,
            "fields": [f.to_doc() for f in self.fields],
        }

    @classmethod
    def from_doc(cls, doc: Mapping) -> "SiteHash":
        entry = cls(
            name=str(doc["name"]),
            fields=[FieldHash.from_doc(f) for f in doc["fields"]],
            hash=str(doc["hash"]),
        )
        recomputed = _combine((f.name, f.hash) for f in entry.fields)
        if recomputed != entry.hash:
            raise ValueError(
                f"site {entry.name!r}: stored site hash {entry.hash} does not "
                f"match its fields ({recomputed}) — damaged hashes.jsonl"
            )
        return entry


@dataclass
class StepHash:
    """All sites recorded during one simulation step."""

    step: int
    sites: list[SiteHash] = field(default_factory=list)

    @property
    def hash(self) -> str:
        return _combine((s.name, s.hash) for s in self.sites)

    def to_doc(self) -> dict:
        return {
            "type": "hash_step",
            "step": self.step,
            "hash": self.hash,
            "sites": [s.to_doc() for s in self.sites],
        }

    @classmethod
    def from_doc(cls, doc: Mapping) -> "StepHash":
        entry = cls(
            step=int(doc["step"]),
            sites=[SiteHash.from_doc(s) for s in doc["sites"]],
        )
        recorded = str(doc.get("hash", ""))
        if recorded and recorded != entry.hash:
            raise ValueError(
                f"hash_step {entry.step}: stored step hash {recorded} does not "
                f"match its sites ({entry.hash}) — damaged hashes.jsonl"
            )
        return entry


class StateHashLadder:
    """Recorder for the hash ladder of one run.

    Attach one via ``TelemetrySpec(hash_stride=...)`` and both simulations
    hash their state at every kernel site on hashed steps; drivers may append
    further sites to the current step (e.g. the post-injection ``state``
    probe in ``repro diverge record``).
    """

    def __init__(self, stride: int = 1, chunk: int = 4096, label: str = "") -> None:
        if stride < 1:
            raise ValueError(f"hash stride must be >= 1, got {stride}")
        if chunk < 1:
            raise ValueError(f"hash chunk must be >= 1 element, got {chunk}")
        self.stride = int(stride)
        self.chunk = int(chunk)
        self.label = label
        self.steps: list[StepHash] = []
        self.meta: dict = {}

    # -- recording ---------------------------------------------------------

    def should_hash(self, step: int) -> bool:
        """Whether ``step`` lands on the hashing cadence."""
        return step % self.stride == 0

    def record_site(self, step: int, site: str, arrays: Mapping[str, Any]) -> SiteHash:
        """Hash ``arrays`` *now* (they mutate later) under site ``site``.

        Steps must arrive in non-decreasing order; recording a site for
        the latest step again appends to that step's entry, which is how
        the driver-level ``state`` probe lands after the in-sim sites.
        """
        step = int(step)
        if self.steps and step < self.steps[-1].step:
            raise ValueError(
                f"hash ladder steps must be non-decreasing: got {step} after "
                f"{self.steps[-1].step}"
            )
        fields = []
        for name, value in arrays.items():
            fh = hash_array(value, self.chunk)
            fh.name = name
            fields.append(fh)
        entry = SiteHash(name=site, fields=fields)
        if self.steps and self.steps[-1].step == step:
            self.steps[-1].sites.append(entry)
        else:
            self.steps.append(StepHash(step=step, sites=[entry]))
        return entry

    # -- introspection -----------------------------------------------------

    @property
    def nsteps(self) -> int:
        return len(self.steps)

    @property
    def last_step(self) -> int:
        return self.steps[-1].step if self.steps else 0

    def root(self) -> str:
        """Run root: sha256 chained over the step hashes, in order."""
        h = hashlib.sha256()
        for entry in self.steps:
            h.update(f"{entry.step}:{entry.hash};".encode("ascii"))
        return h.hexdigest()[:_HASH_CHARS]

    def step_entry(self, step: int) -> StepHash | None:
        for entry in self.steps:
            if entry.step == step:
                return entry
        return None


def ladder_digest(ladder: StateHashLadder) -> dict:
    """Compact summary for the ledger fidelity block."""
    return {
        "root": ladder.root(),
        "steps": ladder.nsteps,
        "last_step": ladder.last_step,
    }


def write_hashes(
    ladder: StateHashLadder, path: str | Path, extra_meta: Mapping | None = None
) -> Path:
    """Atomically write the ladder as a schema-versioned ``hashes.jsonl``.

    ``extra_meta`` (workload, config echo, fault plan, ...) is folded
    into the meta line so a hash stream is self-describing.  Identical
    ladders always serialize to byte-identical files.
    """
    path = Path(path)
    meta = {
        "type": "hash_meta",
        "version": HASH_SCHEMA_VERSION,
        "label": ladder.label,
        "stride": ladder.stride,
        "chunk": ladder.chunk,
        "nsteps": ladder.nsteps,
        "root": ladder.root(),
    }
    if extra_meta:
        for key, value in extra_meta.items():
            if key not in meta:
                meta[key] = value
    lines = [ioutil.canonical_json(meta)]
    lines.extend(ioutil.canonical_json(entry.to_doc()) for entry in ladder.steps)
    ioutil.write_jsonl_lines(path, lines)
    return path


def read_hashes(path: str | Path) -> StateHashLadder:
    """Read a ``hashes.jsonl`` back into a :class:`StateHashLadder`.

    Refuses files written by a *newer* schema (upgrade repro to read
    them); the reconstructed ladder carries the meta line as ``.meta``.
    """
    path = Path(path)
    ladder: StateHashLadder | None = None
    expected_root = ""
    for lineno, doc in ioutil.iter_jsonl(path):
        kind = doc.get("type")
        if kind == "hash_meta":
            version = int(doc.get("version", 0))
            if version > HASH_SCHEMA_VERSION:
                raise ValueError(
                    f"{path}: hashes schema v{version} is newer than supported "
                    f"v{HASH_SCHEMA_VERSION}; upgrade repro to read this file"
                )
            ladder = StateHashLadder(
                stride=int(doc.get("stride", 1)),
                chunk=int(doc.get("chunk", 4096)),
                label=str(doc.get("label", "")),
            )
            ladder.meta = dict(doc)
            expected_root = str(doc.get("root", ""))
        elif kind == "hash_step":
            if ladder is None:
                raise ValueError(f"{path}:{lineno}: hash_step before hash_meta")
            ladder.steps.append(StepHash.from_doc(doc))
        else:
            raise ValueError(f"{path}:{lineno}: unknown record type {kind!r}")
    if ladder is None:
        raise ValueError(f"{path}: no hash_meta line — not a hashes.jsonl file")
    if expected_root and ladder.nsteps == int(ladder.meta.get("nsteps", ladder.nsteps)):
        actual = ladder.root()
        if actual != expected_root:
            raise ValueError(
                f"{path}: run root {actual} does not match recorded root "
                f"{expected_root} — damaged hashes.jsonl"
            )
    return ladder
