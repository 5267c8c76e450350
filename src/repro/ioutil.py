"""Durable file-write primitives shared by checkpoint, ledger and
telemetry I/O.

Rollback recovery is only as good as the checkpoint it rolls back to: a
process killed mid-``write()`` must never leave a torn file that a later
restart would try to load.  The standard POSIX recipe gives that
guarantee and is what :func:`atomic_write_bytes` implements:

1. write the full payload to a temporary file *in the same directory*
   (same filesystem, so the final rename cannot degrade to a copy);
2. flush and ``fsync`` the temp file, so the bytes are on stable storage
   before the name exists;
3. ``os.replace`` onto the destination — atomic on POSIX and Windows;
4. best-effort ``fsync`` of the containing directory, so the rename
   itself survives a power cut.

Readers therefore observe either the complete old file or the complete
new file, never a prefix of one.

The JSONL helpers layered on top give every line-oriented store in the
repo (ledger, telemetry export, flight recorder, hash ladder) the same
durability and damage contract:

* :func:`append_jsonl_line` — fsync'd append, the only write an
  interruption can tear, and only at the very end of the file;
* :func:`write_jsonl_lines` — whole-document rewrite through
  :func:`atomic_write_bytes`, so re-runs are byte-identical and never
  observed half-written;
* :func:`iter_jsonl` — tolerant reader: a *trailing* line that is not
  valid JSON (the one corruption an interrupted append can produce) is
  skipped with a :class:`RuntimeWarning`; invalid JSON anywhere else is
  real damage and raises :class:`ValueError` with ``path:lineno``.

:func:`canonical_json` and :func:`json_digest` are the one spelling of
canonical JSON (sorted keys, no whitespace) and its sha256 that every
hashed identity in the repo uses: ledger workload keys and fingerprints,
result-cache envelopes, flight digests and ``hashes.jsonl`` lines.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time
import warnings
from pathlib import Path
from typing import Any, Iterable, Iterator

__all__ = [
    "append_jsonl_line",
    "atomic_write_bytes",
    "canonical_json",
    "fsync_directory",
    "fsync_file",
    "iter_jsonl",
    "json_digest",
    "locked",
    "write_jsonl_lines",
]


def canonical_json(doc: Any) -> str:
    """Canonical JSON text: sorted keys, no whitespace variance."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def json_digest(doc: Any, chars: int | None = None) -> str:
    """sha256 hex of :func:`canonical_json`, truncated to ``chars`` if given."""
    digest = hashlib.sha256(canonical_json(doc).encode()).hexdigest()
    return digest if chars is None else digest[:chars]


@contextlib.contextmanager
def locked(path: str | Path, timeout_s: float = 30.0, poll_s: float = 0.05):
    """Advisory exclusive lock scoped to ``path`` (for cross-process writers).

    The lock lives on a sibling ``<name>.lock`` file (never on ``path``
    itself, which atomic replaces would swap out from under the lock) and
    is taken with non-blocking ``fcntl.flock`` retried until
    ``timeout_s``, then :class:`TimeoutError` — a crashed holder's lock
    vanishes with its process, so there is nothing to clean up and no way
    to deadlock on a corpse.  *Not* reentrant: every ``locked()`` call
    opens its own file description, so flock excludes concurrent holders
    everywhere — other processes, other threads, and a nested block in
    the same thread (which therefore times out; don't nest).

    On platforms without ``fcntl`` (Windows) this degrades to a no-op —
    the callers that matter (ledger appends) still have the
    whole-line-``O_APPEND`` fallback behavior they always had.
    """
    path = Path(path)
    lock_path = path.with_name(path.name + ".lock")
    lock_path.parent.mkdir(parents=True, exist_ok=True)
    try:
        import fcntl
    except ImportError:  # pragma: no cover — POSIX-only repo, Windows fallback
        yield
        return
    fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                break
            except OSError:
                if time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"could not acquire {lock_path} within {timeout_s:g}s "
                        f"(another writer is holding it)"
                    ) from None
                time.sleep(poll_s)
        try:
            yield
        finally:
            with contextlib.suppress(OSError):
                fcntl.flock(fd, fcntl.LOCK_UN)
    finally:
        os.close(fd)


def fsync_file(fh) -> None:
    """Flush python buffers and fsync an open file object to disk."""
    fh.flush()
    os.fsync(fh.fileno())


def fsync_directory(path: str | Path) -> None:
    """Best-effort fsync of a directory (persists renames/creates).

    Silently a no-op where directories cannot be opened for reading
    (e.g. Windows) — the file-level fsync has already happened.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str | Path, chunks: Iterable[bytes]) -> int:
    """Atomically and durably write ``chunks`` to ``path``.

    Returns the number of bytes written.  On any failure the destination
    is untouched (old contents, or still absent) and the temp file is
    removed.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    total = 0
    try:
        with tmp.open("wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
                total += len(chunk)
            fsync_file(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    fsync_directory(path.parent)
    return total


def append_jsonl_line(path: str | Path, line: str) -> None:
    """Durably append one pre-serialized JSON line to ``path``.

    Parent directories are created as needed; the line (plus newline) is
    fsync'd before returning, so at most the final line of the file can
    ever be torn — exactly the damage :func:`iter_jsonl` tolerates.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as fh:
        fh.write(line + "\n")
        fsync_file(fh)


def write_jsonl_lines(path: str | Path, lines: Iterable[str]) -> int:
    """Atomically write a whole JSONL document (one line per entry).

    Returns the number of bytes written.  Built on
    :func:`atomic_write_bytes`, so readers never observe a partial file
    and identical ``lines`` always produce byte-identical output.
    """
    return atomic_write_bytes(
        path, ((line + "\n").encode("utf-8") for line in lines)
    )


def iter_jsonl(path: str | Path) -> Iterator[tuple[int, Any]]:
    """Yield ``(lineno, parsed)`` for each non-blank line of a JSONL file.

    A final line that fails to parse as JSON is skipped with a
    :class:`RuntimeWarning` — an interrupted append leaves exactly that
    kind of tail and must not take the rest of the store down.  A
    non-JSON line anywhere *else* cannot come from a torn append and
    raises :class:`ValueError` naming ``path:lineno``.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            parsed = json.loads(stripped)
        except ValueError as exc:
            if lineno == len(lines):
                warnings.warn(
                    f"{path}:{lineno}: skipping unreadable trailing line "
                    f"(likely a truncated write): {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            raise ValueError(f"{path}:{lineno}: invalid JSONL line: {exc}") from exc
        yield lineno, parsed
