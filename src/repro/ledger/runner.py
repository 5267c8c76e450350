"""Run one workload under telemetry and reduce it to a :class:`RunRecord`.

The single entry point every ``--ledger`` wire uses — the ``repro ledger
record`` CLI, the ``repro clamr``/``repro self`` flags, and the harness
runners — so a record means the same thing no matter which door the run
came through.
"""

from __future__ import annotations

from repro.ledger.record import RunRecord, record_from_clamr, record_from_self

__all__ = ["run_workload"]


def run_workload(
    workload: str,
    *,
    seed: int = 0,
    watch_stride: int = 4,
    flight_stride: int = 0,
    flight_capacity: int = 512,
    label: str = "",
    # clamr knobs
    nx: int = 24,
    steps: int = 40,
    max_level: int = 1,
    policy: str = "mixed",
    scheme: str = "rusanov",
    # self knobs
    elems: int = 3,
    order: int = 3,
    precision: str = "double",
):
    """Run ``"clamr"`` or ``"self"`` traced, return ``(record, telemetry)``.

    Defaults are the ledger smoke workload: a few seconds end to end, big
    enough that the hot kernels clear the gate's ``min_kernel_s`` floor.
    ``flight_stride > 0`` attaches a flight recorder (sampling every that
    many steps), which folds its digest into the record's fidelity.
    """
    from repro.telemetry import Telemetry
    from repro.workload import make_config, make_simulation, run_label

    level = policy if workload == "clamr" else precision
    cfg = make_config(workload, nx=nx, max_level=max_level, elems=elems, order=order)
    name = label or run_label(
        workload, steps=steps, policy=level, nx=nx, elems=elems, order=order,
        scheme=scheme,
    )
    flight = None
    if flight_stride > 0:
        from repro.telemetry.flight import FlightRecorder

        flight = FlightRecorder(
            stride=flight_stride, capacity=flight_capacity, label=name
        )
    tel = Telemetry(label=name, watch_stride=watch_stride, flight=flight)
    result = make_simulation(
        workload, cfg, policy=level, scheme=scheme, telemetry=tel
    ).run(steps)
    to_record = record_from_clamr if workload == "clamr" else record_from_self
    return to_record(result, tel, cfg, seed=seed, label=tel.label), tel
