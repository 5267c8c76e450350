"""Process-parallel sweep execution with deterministic collection.

Every sweep in the repo — the harness experiment grids, the resilience
campaign, the tradespace enumeration — has the same shape: a list of
independent tasks whose results are consumed *in task order* (printed
rows, ledger appends, report tables).  :class:`SweepExecutor` runs that
shape either inline (``jobs=1``, the default — byte-for-byte today's
behavior) or across a :class:`concurrent.futures.ProcessPoolExecutor`
(``jobs>1``), while keeping three invariants the rest of the repo
depends on:

**Deterministic ordering.**  ``stream()`` yields results in submission
order regardless of which worker finishes first, so downstream ledger
records land in the same sequence as a serial run and fingerprint
comparisons stay meaningful.

**Deterministic seeding.**  Workers must not share or race a global RNG.
:func:`derive_seed` folds a base seed and a task's coordinates through
CRC-32 into a stable per-task seed — the same formula (and the same
"/"-joined string) the resilience campaign has always used for its
cells, so parallelizing a sweep cannot change which faults fire.

**Parent-side effects.**  Ledger appends, progress callbacks, and
telemetry persistence happen in the parent as results stream back.
Workers return plain picklable values (results and ``RunRecord``-style
dataclasses); they never write shared files.

**Worker telemetry.**  A task carrying a
:class:`~repro.telemetry.TelemetrySpec` builds its own
:class:`~repro.telemetry.Telemetry` (tracer, metrics registry, numerics
watch, optional flight recorder and hash ladder) inside the worker,
passes it to the task function as the ``telemetry=`` keyword, and
returns a :class:`TracedResult` — the value plus a frozen, picklable
:class:`~repro.telemetry.TelemetryBundle`.  The parent can build
ledger records from the bundle, persist per-task trace files, or merge
all bundles into one Chrome trace with per-worker lanes
(:func:`~repro.telemetry.merged_chrome_trace`) — so ``--jobs N``
sweeps are exactly as observable as serial ones.

Tasks must be module-level callables with picklable arguments (the
usual multiprocessing constraint).  The ``fork`` start method is used
when the platform offers it — workers inherit the imported modules and
start in milliseconds; ``spawn`` is the automatic fallback elsewhere.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

__all__ = [
    "SweepTask",
    "SweepExecutor",
    "SweepWorkerError",
    "TracedResult",
    "resolve_jobs",
    "derive_seed",
]


class SweepWorkerError(RuntimeError):
    """A sweep task failed — and we know *which* one.

    Raised in place of a raw ``BrokenProcessPool`` when a worker process
    dies (``kill -9``, OOM, segfault), which would otherwise lose the
    identity of the task whose result vanished.  ``task_name`` and
    ``index`` carry the task's coordinates; ``crashed`` distinguishes a
    dead worker from a task that raised an ordinary exception (the latter
    is only wrapped on the ``on_error="continue"`` path — on the default
    raise path ordinary exceptions still propagate unchanged, so existing
    callers keep their exception types).

    Attribution note: when a pool breaks, *every* unfinished future fails
    at once; the error names the earliest unfinished task in submission
    order, which is the task whose result was lost first.
    """

    def __init__(self, task_name: str, index: int, cause: BaseException, crashed: bool):
        kind = "worker process died" if crashed else "task raised"
        super().__init__(
            f"sweep task {task_name!r} (index {index}) failed: {kind}: {cause}"
        )
        self.task_name = task_name
        self.index = index
        self.cause = cause
        self.crashed = crashed


def derive_seed(base: int, *parts: object) -> int:
    """A stable per-task seed from a base seed and task coordinates.

    CRC-32 of the "/"-joined decimal/str coordinates, masked to a
    non-negative int31.  This is exactly the resilience campaign's
    historical cell-seed formula (``crc32(f"{seed}/{array}/{kind}/
    {level}/{trial}")``), promoted to a shared utility: any sweep that
    seeds its tasks this way gets seeds that are independent of
    execution order and worker count.
    """
    text = "/".join(str(p) for p in (base, *parts))
    return zlib.crc32(text.encode()) & 0x7FFFFFFF


def resolve_jobs(jobs: int, ntasks: int) -> int:
    """Validate and clamp a ``--jobs`` request against a sweep's size.

    ``jobs < 1`` is a user error (raises ``ValueError`` — the CLI turns
    that into its one-line exit-2 message); ``jobs > ntasks`` silently
    clamps, since extra workers could never receive work.
    """
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError(f"--jobs must be a positive integer, got {jobs}")
    return max(1, min(jobs, ntasks))


@dataclass(frozen=True)
class TracedResult:
    """A traced task's return: the value plus the worker's telemetry bundle."""

    value: Any
    bundle: Any  # TelemetryBundle; typed loosely to keep this module import-light


@dataclass(frozen=True)
class SweepTask:
    """One unit of sweep work: a picklable callable plus its arguments.

    ``name`` is a human-readable identity ("clamr/mixed", "cell 3/12")
    used for progress display and in :class:`SweepWorkerError`.

    With ``telemetry`` set (a :class:`~repro.telemetry.TelemetrySpec`),
    :meth:`run` builds a fresh Telemetry in the executing process,
    passes it to ``fn`` as the ``telemetry=`` keyword, and wraps the
    return in a :class:`TracedResult` carrying the frozen bundle.
    """

    name: str
    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    telemetry: Any = None  # TelemetrySpec; typed loosely, like TracedResult.bundle

    def run(self) -> Any:
        if self.telemetry is None:
            return self.fn(*self.args, **self.kwargs)
        from repro.telemetry import TelemetryBundle

        tel = self.telemetry.build()
        value = self.fn(*self.args, telemetry=tel, **self.kwargs)
        return TracedResult(value=value, bundle=TelemetryBundle.of(tel))


class SweepExecutor:
    """Run sweep tasks inline or across a process pool, in order.

    ``jobs=1`` executes each task inline as it is requested — no pool,
    no pickling, no behavior change from a plain loop.  ``jobs>1``
    submits every task to a ``ProcessPoolExecutor`` up front and yields
    results in submission order (a result that finishes early waits for
    its turn).  Worker exceptions propagate from ``stream()``/``map()``
    at the failing task's position, after the pool is shut down.
    """

    def __init__(self, jobs: int = 1):
        if int(jobs) < 1:
            raise ValueError(f"jobs must be a positive integer, got {jobs}")
        self.jobs = int(jobs)

    def stream(
        self, tasks: Sequence[SweepTask], on_error: str = "raise"
    ) -> Iterator[tuple[SweepTask, Any]]:
        """Yield ``(task, result)`` pairs in task order.

        ``on_error="raise"`` (the default, and the historical behavior):
        an ordinary task exception propagates unchanged at the failing
        task's position; a dead worker process surfaces as a
        :class:`SweepWorkerError` naming the lost task instead of a bare
        ``BrokenProcessPool``.

        ``on_error="continue"``: a failed task yields ``(task,
        SweepWorkerError)`` in place of its result and the sweep keeps
        going — after a worker death the pool is rebuilt and the
        remaining tasks resubmitted, so one poison task cannot sink the
        sweep.  Callers filter with ``isinstance(result,
        SweepWorkerError)``.  Note that tasks that were in flight in
        *other* workers when a pool broke are re-executed — at-least-once
        semantics past a crash, exactly-once otherwise.
        """
        if on_error not in ("raise", "continue"):
            raise ValueError(
                f"on_error must be 'raise' or 'continue', got {on_error!r}"
            )
        tasks = list(tasks)
        jobs = min(self.jobs, max(1, len(tasks)))
        if jobs <= 1:
            for index, task in enumerate(tasks):
                try:
                    result = task.run()
                except Exception as exc:
                    if on_error == "raise":
                        raise
                    yield task, SweepWorkerError(task.name, index, exc, crashed=False)
                    continue
                yield task, result
            return

        import concurrent.futures
        import multiprocessing as mp
        from concurrent.futures.process import BrokenProcessPool

        method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        ctx = mp.get_context(method)

        def new_pool():
            return concurrent.futures.ProcessPoolExecutor(
                max_workers=jobs, mp_context=ctx
            )

        pool = new_pool()
        futures = [pool.submit(task.run) for task in tasks]
        index = 0
        try:
            while index < len(tasks):
                task = tasks[index]
                try:
                    result = futures[index].result()
                except (BrokenProcessPool, concurrent.futures.BrokenExecutor) as exc:
                    failure = SweepWorkerError(task.name, index, exc, crashed=True)
                    if on_error == "raise":
                        raise failure from exc
                    yield task, failure
                    index += 1
                    # the broken pool poisoned every unfinished future:
                    # rebuild and resubmit the rest of the sweep
                    pool.shutdown(wait=False)
                    pool = new_pool()
                    futures[index:] = [pool.submit(t.run) for t in tasks[index:]]
                    continue
                except Exception as exc:
                    if on_error == "raise":
                        raise
                    yield task, SweepWorkerError(task.name, index, exc, crashed=False)
                    index += 1
                    continue
                yield task, result
                index += 1
        finally:
            pool.shutdown(wait=True)

    def map(self, tasks: Sequence[SweepTask], on_error: str = "raise") -> list[Any]:
        """All results, in task order."""
        return [result for _, result in self.stream(tasks, on_error=on_error)]
