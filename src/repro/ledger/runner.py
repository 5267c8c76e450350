"""Run one workload under telemetry and reduce it to a :class:`RunRecord`.

The single entry point every traced workload run uses — the ``repro
ledger record`` CLI, the sweep service's ``execute_job`` and the
scenario records — so a record means the same thing no matter which
door the run came through: the run is a :class:`repro.service.JobSpec`,
its instrumentation a :class:`repro.telemetry.TelemetrySpec`.  ``repro
clamr|self --ledger``, the harness sweeps and the resilience runs build
and run the same JobSpec themselves and reduce it with
:func:`record_job`.
"""

from __future__ import annotations

from repro.ledger.record import identity_config, record_from_clamr, record_from_self

__all__ = ["record_job", "run_workload"]


def run_workload(spec, flight_stride: int = 0):
    """Run a :class:`~repro.service.JobSpec` traced; return ``(record, telemetry)``.

    ``spec`` is typed loosely: :mod:`repro.service` imports the ledger, so
    the ledger does not import it back.  ``flight_stride > 0`` attaches a
    flight recorder (sampling every that many steps), which folds its
    digest into the record's fidelity.
    """
    tel = spec.telemetry(flight_stride)
    sim = spec.simulation(tel)
    return record_job(spec, sim.run(spec.steps), tel, config=sim.config), tel


def record_job(spec, result, tel, *, config=None, label=None, extra=None):
    """The :class:`RunRecord` of ``spec`` run to ``result`` under ``tel``.

    ``config`` is the config that ran where it is not ``spec.config()``
    (a run given extra fields); ``extra`` entries join the hashed config
    (a resilience run's fault plan and recovery policy); ``label``
    replaces ``tel.label`` (``""`` lets the record name itself).
    """
    to_record = record_from_clamr if spec.workload == "clamr" else record_from_self
    config = identity_config(spec.workload, spec.config() if config is None else config,
                             scenario=spec.scenario)
    config.update(extra or {})
    return to_record(result, tel, config, seed=spec.seed,
                     label=tel.label if label is None else label)
