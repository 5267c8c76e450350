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

from dataclasses import MISSING, asdict, dataclass, field, fields, replace

from repro.workload import (
    CLAMR_POLICIES,
    WORKLOADS,
    resolve_scenario,
    run_label,
    self_precision,
)

__all__ = ["JOB_SCHEMA_VERSION", "JobSpec", "execute_job"]

JOB_SCHEMA_VERSION = 1

#: Each family's size knobs: JobSpec field → the config fields it sets.
#: A scenario pins a knob by setting the first of them.
_SIZES = {
    "clamr": {"nx": ("nx", "ny"), "max_level": ("max_level",)},
    "self": {"elems": ("nex", "ney", "nez"), "order": ("order",)},
}


def _knob(default, help: str, *, family: str = "", choices: tuple = (), minimum: int = 1):
    """A JobSpec field with what its CLI flag and validation need to know."""
    meta = {"help": help, "family": family, "choices": choices, "minimum": minimum}
    return field(default=default, metadata=meta)


@dataclass(frozen=True)
class JobSpec:
    """A workload run: everything :func:`repro.ledger.run_workload` needs.

    The one description of such a run — picklable and JSON-safe, with the
    defaults (the ledger smoke workload), choices and help that every CLI
    run flag is built from (``repro.cli._add_job_arguments``).  CLAMR jobs
    use ``nx``/``max_level``/``policy``/``scheme``; SELF jobs use
    ``elems``/``order``/``precision``; both share ``steps``, ``seed``,
    ``watch_stride``, an optional display ``label`` and an optional
    registered ``scenario`` (empty: the seed case).  The irrelevant
    family's knobs are carried at their defaults and excluded from the
    hashed identity (the config payload is built per family, exactly as
    the ledger does it).  A size the scenario's config sets (the lake at
    rest's ``max_level`` 0) replaces the one given, so the spec says what
    runs.
    """

    workload: str = _knob(MISSING, "mini-app to run", choices=WORKLOADS)
    steps: int = _knob(40, "timesteps")
    seed: int = _knob(0, "workload seed (fingerprint input)", minimum=0)
    watch_stride: int = _knob(4, "numerics watchpoint stride (steps)")
    label: str = _knob("", "display label for the run")
    scenario: str = _knob("", "registered scenario to run instead of the workload's "
                          "seed case (see 'repro scenario list')")
    # clamr knobs
    nx: int = _knob(24, "clamr: coarse grid cells per side", family="clamr")
    max_level: int = _knob(1, "clamr: AMR levels", family="clamr", minimum=0)
    policy: str = _knob("mixed", "clamr: precision policy; also SELF's precision where "
                        "a command has no --precision (half/min/mixed → single, "
                        "full → double)", family="clamr", choices=CLAMR_POLICIES)
    scheme: str = _knob("rusanov", "clamr: flux scheme", family="clamr",
                        choices=("rusanov", "muscl"))
    # self knobs
    elems: int = _knob(3, "self: elements per side", family="self")
    order: int = _knob(3, "self: polynomial order", family="self")
    precision: str = _knob("double", "self: floating-point precision", family="self",
                           choices=("single", "double"))

    def __post_init__(self) -> None:
        for f in fields(self):
            self.check_field(f.name, getattr(self, f.name), self.workload)
        scenario = resolve_scenario(self.scenario, self.workload)
        if scenario is not None:
            for name, keys in _SIZES[self.workload].items():
                if keys[0] in scenario.config:
                    object.__setattr__(self, name, scenario.config[keys[0]])

    @classmethod
    def check_field(cls, name: str, value, workload: str) -> None:
        """Raise the one-line ValueError if ``value`` is not a valid ``name``.

        The rule every door applies: the CLI checks each parsed run flag
        with it before a command prints anything.  A knob of the other
        family than ``workload`` is carried, not checked against its
        choices.  A ``scenario`` must be registered and, given a
        ``workload``, of its family; an empty one loads no scenario code.
        """
        f = cls.__dataclass_fields__[name]
        meta = f.metadata
        if name == "scenario":
            resolve_scenario(value, workload)
        elif meta["choices"]:
            if meta["family"] in ("", workload) and value not in meta["choices"]:
                raise ValueError(f"unknown {name} {value!r}; expected one of {meta['choices']}")
        elif isinstance(f.default, int) and (
            not isinstance(value, int) or value < meta["minimum"]
        ):
            kind = "positive" if meta["minimum"] else "non-negative"
            raise ValueError(f"{name} must be a {kind} integer, got {value!r}")

    # -- identity ----------------------------------------------------------

    def config_payload(self) -> dict:
        """The config dict the ledger will hash for this job's run.

        Built by :func:`repro.ledger.record.identity_config`, the same
        function ``record_from_clamr``/``record_from_self`` use after the
        run, from :meth:`config`.
        """
        from repro.ledger.record import identity_config

        return identity_config(
            self.workload, self.config(), scenario=self.scenario, steps=self.steps,
            watch_stride=self.watch_stride, scheme=self.scheme,
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

    def config(self, **fields):
        """The family config dataclass this job runs: its sizes, then
        ``fields``, then the scenario's config.

        ``fields`` are config fields a JobSpec does not carry (``repro self
        --viscosity``); a run given them has its own identity.
        """
        if self.workload == "clamr":
            from repro.clamr import DamBreakConfig as config_cls
        else:
            from repro.self_ import ThermalBubbleConfig as config_cls
        kwargs = {key: getattr(self, name)
                  for name, keys in _SIZES[self.workload].items() for key in keys}
        kwargs.update(fields)
        scenario = resolve_scenario(self.scenario)
        if scenario is not None:
            kwargs.update(scenario.config)
        return config_cls(**kwargs)

    def telemetry(self, flight_stride: int = 0):
        """This job's telemetry: labelled :meth:`describe`, watching every
        ``watch_stride`` steps, with a flight recorder if ``flight_stride > 0``."""
        from repro.telemetry import TelemetrySpec

        return TelemetrySpec(
            label=self.describe(), watch_stride=self.watch_stride, flight_stride=flight_stride
        ).build()

    def simulation(self, telemetry=None, *, vectorized: bool = True, config=None):
        """The simulation this job runs, with the scenario's IC/bathymetry
        hooks, under ``telemetry``.

        Every run in the package is built here, directly or through
        :func:`repro.ledger.run_workload`.  ``config`` replaces
        :meth:`config` (a run given extra fields, or a live config
        re-typed at another precision).  ``vectorized=False`` selects
        CLAMR's scalar kernel, which gives the same bits; the flux
        ``scheme`` and ``vectorized`` apply to CLAMR only.
        """
        config = self.config() if config is None else config
        scenario = resolve_scenario(self.scenario)
        ic = scenario.ic if scenario is not None else None
        if self.workload == "clamr":
            from repro.clamr import ClamrSimulation

            bathymetry = scenario.bathymetry if scenario is not None else None
            return ClamrSimulation(config, policy=self.policy, vectorized=vectorized,
                                   scheme=self.scheme, telemetry=telemetry, ic=ic,
                                   bathymetry=bathymetry)
        from repro.self_ import SelfSimulation

        return SelfSimulation(config, precision=self.precision, telemetry=telemetry, ic=ic)

    def at_level(self, level: str) -> "JobSpec":
        """This run at precision ``level``: CLAMR's ``policy``, or SELF's
        ``precision`` with a level on either axis (``min`` runs single).
        ``level`` may be any name :func:`~repro.precision.policy.level_from_name`
        takes (``double`` is ``full``)."""
        from repro.precision.policy import level_from_name

        level = level_from_name(level).value
        if self.workload == "clamr":
            return replace(self, policy=level)
        return replace(self, precision=self_precision(level))

    def describe(self) -> str:
        """The run's label: ``label``, else :func:`repro.workload.run_label`."""
        if self.label:
            return self.label
        return run_label(
            self.workload, steps=self.steps, policy=self.policy_name, nx=self.nx,
            elems=self.elems, order=self.order, scheme=self.scheme, scenario=self.scenario,
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
    record, _tel = run_workload(spec)
    expected = spec.workload_key()
    if record.workload_key != expected:
        raise RuntimeError(
            f"workload_key drift for {spec.describe()}: spec predicts {expected}, "
            f"record carries {record.workload_key} — refusing to cache under a stale key"
        )
    return record
