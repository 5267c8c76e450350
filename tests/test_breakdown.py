"""A run that breaks down numerically ends in a one-line diagnosis.

A non-finite or non-positive timestep from CLAMR's ``compute_timestep``
or SELF's ``stable_dt`` raises :class:`NonFiniteStepError`, naming the
step, the precision policy and the first non-finite field.  ``repro
clamr|self`` and ``ledger record`` print that line and exit 1, and a
sweep job fails with it as its error.
"""

import warnings

import numpy as np
import pytest

from repro.cli import main
from repro.precision.breakdown import NonFiniteStepError
from repro.service.jobs import JobSpec

#: the two silent-NaN runs: float16 momenta overflow at half, and a
#: column tall enough to overflow float32 arithmetic at min
BREAKDOWNS = [("half", 2000.0, 17, "U"), ("min", 1e19, 2, "U")]


def _line(match: str) -> str:
    return rf"^step \d+ at policy {match}: timestep \S+; first non-finite field \w+ \(\d+ of \d+ values\)$"


@pytest.mark.parametrize("policy, column_height, step, field", BREAKDOWNS)
def test_clamr_breakdown_raises_at_its_step(policy, column_height, step, field):
    spec = JobSpec("clamr", nx=32, max_level=1, policy=policy)
    sim = spec.simulation(config=spec.config(column_height=column_height))
    with np.errstate(all="ignore"), pytest.raises(NonFiniteStepError, match=_line(policy)) as err:
        sim.run(200)
    assert str(err.value).startswith(f"step {step} at policy {policy}: ")
    assert f"first non-finite field {field} " in str(err.value)
    # the step that could not be taken was not counted
    assert sim.step_count == step - 1 and np.isfinite(sim.time)


def test_self_breakdown_names_the_first_non_finite_field():
    sim = JobSpec("self", elems=2, order=2, precision="single").simulation()
    sim.run(1)
    sim.U[:, 2].flat[3] = np.inf  # rhov
    with np.errstate(all="ignore"), pytest.raises(NonFiniteStepError, match=_line("single")) as err:
        sim.run(5)
    assert str(err.value).startswith("step 2 at policy single: timestep ")
    assert "first non-finite field rhov (1 of " in str(err.value)


def test_a_non_positive_timestep_with_a_finite_state():
    err = NonFiniteStepError.diagnose(7, "full", 0.0, {"H": np.ones(3)})
    assert str(err) == "step 7 at policy full: timestep 0.0; every field is finite"
    assert isinstance(err, FloatingPointError) and not isinstance(err, ValueError)


@pytest.fixture
def tall_column(monkeypatch):
    """Every CLAMR config gets the half-precision breakdown's column."""
    real = JobSpec.config

    def config(spec, **fields):
        if spec.workload == "clamr":
            fields["column_height"] = 2000.0
        return real(spec, **fields)

    monkeypatch.setattr(JobSpec, "config", config)


@pytest.mark.parametrize("argv", [
    ["clamr", "--nx", "32", "--max-level", "1", "--steps", "200", "--policy", "half"],
    ["ledger", "record", "clamr", "--nx", "32", "--max-level", "1", "--steps", "200",
     "--policy", "half", "--runs", "1"],
])
def test_cli_prints_the_line_and_exits_1(tall_column, tmp_path, capsys, argv):
    if argv[0] == "ledger":
        argv = argv + ["--ledger", str(tmp_path / "obs")]
    # the overflow into inf is reported by the diagnosis alone, with no
    # NumPy "overflow encountered in cast" warning before it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("repro: step 17 at policy half: timestep 0.0; first non-finite field U")


def test_cli_self_prints_the_line_and_exits_1(monkeypatch, capsys):
    real = JobSpec.simulation

    def poisoned(spec, *args, **kwargs):
        sim = real(spec, *args, **kwargs)
        sim.U.flat[0] = np.nan
        return sim

    # JobSpec.simulation builds repro self's run
    monkeypatch.setattr(JobSpec, "simulation", poisoned)
    with np.errstate(all="ignore"):
        assert main(["self", "--elems", "2", "--order", "2", "--steps", "3"]) == 1
    [line] = capsys.readouterr().err.strip().splitlines()
    assert line.startswith("repro: step 1 at policy double: timestep nan; first non-finite field rho ")


def test_sweep_job_fails_with_the_line(tall_column, tmp_path):
    from repro.service.jobs import JobSpec
    from repro.service.queue import JobQueue
    from repro.service.retry import RetryPolicy
    from repro.service.worker import WorkerOptions, run_worker

    opts = WorkerOptions(queue=tmp_path / "queue", ledger=tmp_path / "ledger",
                         retry=RetryPolicy(max_attempts=1), poll_s=0.02, drain=True)
    queue = JobQueue(opts.queue)
    queue.submit(JobSpec(workload="clamr", nx=32, max_level=1, steps=200, policy="half"))
    with np.errstate(all="ignore"):
        report = run_worker(opts)
    assert report.failed == 1 and report.completed == 0
    [parked] = queue.jobs("failed")
    assert parked.doc["error"].startswith(
        "NonFiniteStepError: step 17 at policy half: timestep 0.0; first non-finite field U"
    )
