"""Job specs: a sweep-service job, identified *before* it runs.

The whole service rests on one fact the ledger established: a run's
``workload_key`` is a machine-independent hash of (workload, config,
policy, seed) — computable from the request alone.  :class:`JobSpec`
is that request, and :meth:`JobSpec.workload_key` builds the config
payload through :func:`repro.ledger.record.identity_config`, the same
function :func:`~repro.ledger.record.record_from_clamr` /
``record_from_self`` hash after the run, so

* the result cache can be consulted before paying for a computation,
* a finished record can be cross-checked against the job that asked for
  it (:func:`execute_job` refuses to return a record whose identity
  drifted from its spec — that would poison the cache).

The prediction is pinned by tests that run real workloads and compare
keys, so a run knob that reaches the record but not the spec fails them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from repro.workload import WORKLOADS, make_config, run_label

__all__ = ["JOB_SCHEMA_VERSION", "JobSpec", "execute_job"]

JOB_SCHEMA_VERSION = 1

_CLAMR_POLICIES = ("half", "min", "mixed", "full")
_SELF_PRECISIONS = ("single", "double")
_SCHEMES = ("rusanov", "muscl")


@dataclass(frozen=True)
class JobSpec:
    """Everything :func:`repro.ledger.run_workload` needs, picklable and JSON-safe.

    CLAMR jobs use ``nx``/``max_level``/``policy``/``scheme``; SELF jobs
    use ``elems``/``order``/``precision``; both share ``steps``,
    ``seed``, ``watch_stride`` and an optional display ``label``.  The
    irrelevant family's knobs are carried at their defaults and excluded
    from the hashed identity (the config payload is built per family,
    exactly as the ledger does it).
    """

    workload: str
    steps: int = 40
    seed: int = 0
    watch_stride: int = 4
    label: str = ""
    # clamr knobs
    nx: int = 24
    max_level: int = 1
    policy: str = "mixed"
    scheme: str = "rusanov"
    # self knobs
    elems: int = 3
    order: int = 3
    precision: str = "double"

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; expected one of {WORKLOADS}"
            )
        for name in ("steps", "nx", "max_level", "elems", "order"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not isinstance(self.watch_stride, int) or self.watch_stride < 1:
            raise ValueError(
                f"watch_stride must be a positive integer, got {self.watch_stride!r}"
            )
        if self.workload == "clamr":
            if self.policy not in _CLAMR_POLICIES:
                raise ValueError(
                    f"unknown policy {self.policy!r}; expected one of {_CLAMR_POLICIES}"
                )
            if self.scheme not in _SCHEMES:
                raise ValueError(
                    f"unknown scheme {self.scheme!r}; expected one of {_SCHEMES}"
                )
        elif self.precision not in _SELF_PRECISIONS:
            raise ValueError(
                f"unknown precision {self.precision!r}; "
                f"expected one of {_SELF_PRECISIONS}"
            )

    # -- identity ----------------------------------------------------------

    def config_payload(self) -> dict:
        """The config dict the ledger will hash for this job's run.

        Built by :func:`repro.ledger.record.identity_config`, the same
        function ``record_from_clamr``/``record_from_self`` use after the
        run, from the config :func:`repro.workload.make_config` builds.
        """
        from repro.ledger.record import identity_config

        cfg = make_config(
            self.workload, nx=self.nx, max_level=self.max_level,
            elems=self.elems, order=self.order,
        )
        return identity_config(
            self.workload, cfg, steps=self.steps, watch_stride=self.watch_stride,
            scheme=self.scheme,
        )

    @property
    def policy_name(self) -> str:
        """The policy string that joins the hashed identity."""
        return self.policy if self.workload == "clamr" else self.precision

    def workload_key(self) -> str:
        """The machine-independent identity this job's record will carry."""
        from repro.ledger.record import workload_key_of

        return workload_key_of(self.workload, self.config_payload(), self.policy_name, self.seed)

    # -- execution ---------------------------------------------------------

    def run_kwargs(self) -> dict:
        """Keyword arguments for :func:`repro.ledger.run_workload`."""
        common = {
            "seed": self.seed,
            "watch_stride": self.watch_stride,
            "label": self.label,
            "steps": self.steps,
        }
        if self.workload == "clamr":
            return {
                "workload": "clamr",
                "nx": self.nx,
                "max_level": self.max_level,
                "policy": self.policy,
                "scheme": self.scheme,
                **common,
            }
        return {
            "workload": "self",
            "elems": self.elems,
            "order": self.order,
            "precision": self.precision,
            **common,
        }

    def describe(self) -> str:
        if self.label:
            return self.label
        return run_label(
            self.workload, steps=self.steps, policy=self.policy_name, nx=self.nx,
            elems=self.elems, order=self.order, scheme=self.scheme,
        )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "JobSpec":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ValueError(f"unknown job spec field(s): {', '.join(unknown)}")
        return cls(**doc)


def execute_job(spec_doc: dict):
    """Run one job spec to a :class:`~repro.ledger.record.RunRecord`.

    The service worker calls it in-process under a heartbeat lease.
    The returned record's ``workload_key`` must equal the spec's
    prediction — a mismatch means the identity recipe drifted, and
    caching under the predicted key would serve wrong records forever,
    so it raises instead.
    """
    from repro.ledger.runner import run_workload

    spec = JobSpec.from_dict(dict(spec_doc))
    record, _tel = run_workload(**spec.run_kwargs())
    expected = spec.workload_key()
    if record.workload_key != expected:
        raise RuntimeError(
            f"workload_key drift for {spec.describe()}: spec predicts {expected}, "
            f"record carries {record.workload_key} — refusing to cache under a stale key"
        )
    return record
