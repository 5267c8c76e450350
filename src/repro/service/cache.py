"""Content-addressed result cache: ``.cache/<workload_key>.json``.

A cache entry is one finished :class:`~repro.ledger.record.RunRecord`
wrapped in an integrity envelope:

```json
{"schema": 1, "workload_key": "...", "digest": "sha256...", "record": {...}}
```

Reads re-derive *everything* the envelope claims before serving:

1. the whole-document ``digest`` over the record's canonical JSON —
   catches any byte of tampering, including fields (fidelity, kernel
   times) that the identity hashes deliberately exclude;
2. the record's ``workload_key`` recomputed from its own
   (workload, config, policy, seed) — catches a record transplanted
   under the wrong filename;
3. the record's ``fingerprint`` recomputed from the same inputs plus its
   embedded machine spec and git sha — catches identity-field edits that
   kept the envelope digest consistent (an attacker rewriting both).

Any failure — unparseable JSON, schema from the future, digest or hash
mismatch — is a *miss*, reported with a warning: the caller recomputes
and overwrites.  A damaged cache can cost time; it can never serve a
wrong record.  Writes go through the atomic-replace path, so a crashed
writer leaves either the old entry or the new one, never a torn file.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

from repro.ioutil import atomic_write_bytes, json_digest

__all__ = ["CACHE_SCHEMA_VERSION", "ResultCache"]

CACHE_SCHEMA_VERSION = 1


class ResultCache:
    """Precomputed run records keyed by machine-independent workload key."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def path_for(self, workload_key: str) -> Path:
        return self.root / f"{workload_key}.json"

    # -- writing -----------------------------------------------------------

    def put(self, record) -> Path:
        """Store ``record`` under its own workload key (atomic overwrite)."""
        doc = json.loads(record.to_json())
        envelope = {
            "schema": CACHE_SCHEMA_VERSION,
            "workload_key": record.workload_key,
            "digest": json_digest(doc),
            "record": doc,
        }
        path = self.path_for(record.workload_key)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(path, [json.dumps(envelope, sort_keys=True).encode()])
        return path

    # -- reading -----------------------------------------------------------

    def get(self, workload_key: str):
        """The validated record for ``workload_key``, or ``None`` (= recompute).

        Never raises on a damaged entry — damage is demoted to a miss
        with a one-line :class:`RuntimeWarning` naming the reason.
        """
        path = self.path_for(workload_key)
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            return None
        reason = None
        record = None
        try:
            envelope = json.loads(raw)
        except ValueError as exc:
            reason = f"unreadable JSON ({exc})"
        else:
            reason, record = self._validate(envelope, workload_key)
        if reason is not None:
            warnings.warn(
                f"{path}: rejecting cache entry ({reason}); recomputing",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        return record

    @staticmethod
    def _validate(envelope, workload_key: str):
        """(reason, record): reason is ``None`` only for a fully valid entry."""
        from repro.ledger.record import RunRecord, fingerprint_of, workload_key_of

        if not isinstance(envelope, dict):
            return "not a cache envelope", None
        schema = envelope.get("schema")
        if not isinstance(schema, int) or schema > CACHE_SCHEMA_VERSION:
            return f"unsupported cache schema {schema!r}", None
        doc = envelope.get("record")
        if not isinstance(doc, dict):
            return "missing record payload", None
        if envelope.get("digest") != json_digest(doc):
            return "content digest mismatch (tampered or torn entry)", None
        try:
            record = RunRecord.from_dict(doc)
        except (ValueError, KeyError, TypeError) as exc:
            return f"invalid run record ({exc})", None
        derived_key = workload_key_of(
            record.workload, record.config, record.policy, record.seed
        )
        if derived_key != workload_key or record.workload_key != workload_key:
            return (
                f"workload key mismatch (file {workload_key}, record "
                f"{record.workload_key}, derived {derived_key})",
                None,
            )
        derived_fp = fingerprint_of(
            record.workload,
            record.config,
            record.policy,
            record.seed,
            record.machine,
            record.git_sha,
        )
        if derived_fp != record.fingerprint:
            return (
                f"fingerprint mismatch (record {record.fingerprint}, "
                f"derived {derived_fp})",
                None,
            )
        return None, record

    # -- maintenance -------------------------------------------------------

    def keys(self) -> list[str]:
        """Workload keys with an entry on disk (valid or not)."""
        if not self.root.is_dir():
            return []
        return sorted(p.stem for p in self.root.glob("*.json"))

    def stats(self) -> dict:
        """Entry/byte/valid counts for ``repro queue status``."""
        keys = self.keys()
        valid = 0
        nbytes = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for key in keys:
                nbytes += self.path_for(key).stat().st_size
                if self.get(key) is not None:
                    valid += 1
        return {"entries": len(keys), "valid": valid, "bytes": nbytes}
