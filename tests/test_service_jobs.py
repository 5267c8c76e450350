"""Job specs: validation, round-trips, and the pinned workload-key prediction.

The service caches results under a key predicted *before* the run; these
tests pin the prediction against the key the ledger actually computes
after a real run.  If the hashed run identity ever changes on one side
only, ``test_predicted_key_matches_*`` fails and the spec (or the
ledger) must be updated in the same commit.
"""

from dataclasses import replace

import pytest

from repro.scenarios import scenario_names
from repro.service.jobs import JobSpec, execute_job

#: workload keys computed before JobSpec carried a scenario: a spec without
#: one hashes the same bytes as it always has
PINNED_KEYS = [
    (JobSpec("clamr"), "f2ca319db10f6066"),
    (JobSpec("clamr", nx=16, steps=8, max_level=2, policy="min", scheme="muscl"),
     "832345ea3b112113"),
    (JobSpec("self", elems=2, order=2, steps=4, precision="single"), "1f7cffe62dedef80"),
]


class TestValidation:
    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            JobSpec(workload="hydra")

    def test_clamr_knobs_validated(self):
        with pytest.raises(ValueError, match="policy"):
            JobSpec(workload="clamr", policy="quadruple")
        with pytest.raises(ValueError, match="scheme"):
            JobSpec(workload="clamr", scheme="godunov")

    def test_self_precision_validated(self):
        with pytest.raises(ValueError, match="precision"):
            JobSpec(workload="self", precision="half")
        # clamr-only knobs are not validated against the self family
        JobSpec(workload="self", precision="single")

    def test_positive_integers_enforced(self):
        with pytest.raises(ValueError, match="steps"):
            JobSpec(workload="clamr", steps=0)
        with pytest.raises(ValueError, match="seed"):
            JobSpec(workload="clamr", seed=-1)
        with pytest.raises(ValueError, match="watch_stride"):
            JobSpec(workload="clamr", watch_stride=0)

    def test_round_trip(self):
        spec = JobSpec(workload="clamr", nx=16, steps=10, policy="full", label="rt")
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_fields_rejected(self):
        doc = JobSpec(workload="clamr").to_dict()
        doc["gpu"] = True
        with pytest.raises(ValueError, match="unknown job spec field"):
            JobSpec.from_dict(doc)

    def test_describe(self):
        assert JobSpec(workload="clamr", label="named").describe() == "named"
        assert "clamr" in JobSpec(workload="clamr", nx=16).describe()
        assert "self" in JobSpec(workload="self").describe()


class TestIdentity:
    def test_key_ignores_other_familys_knobs(self):
        a = JobSpec(workload="clamr", nx=16, steps=10)
        b = JobSpec(workload="clamr", nx=16, steps=10, elems=7, order=2)
        assert a.workload_key() == b.workload_key()

    def test_key_tracks_own_knobs(self):
        base = JobSpec(workload="clamr", nx=16, steps=10, policy="mixed")
        keys = {
            base.workload_key(),
            JobSpec(workload="clamr", nx=18, steps=10, policy="mixed").workload_key(),
            JobSpec(workload="clamr", nx=16, steps=12, policy="mixed").workload_key(),
            JobSpec(workload="clamr", nx=16, steps=10, policy="full").workload_key(),
            JobSpec(workload="clamr", nx=16, steps=10, policy="mixed", seed=1).workload_key(),
        }
        assert len(keys) == 5

    def test_predicted_key_matches_clamr_record(self):
        spec = JobSpec(workload="clamr", nx=12, steps=8, watch_stride=2, policy="mixed")
        record = execute_job(spec.to_dict())
        assert record.workload_key == spec.workload_key()
        assert record.policy == spec.policy_name

    def test_predicted_key_matches_muscl_clamr_record(self):
        spec = JobSpec(
            workload="clamr", nx=12, steps=8, watch_stride=2, policy="min", scheme="muscl"
        )
        record = execute_job(spec.to_dict())
        assert record.workload_key == spec.workload_key()
        assert record.config["run"]["scheme"] == "muscl"
        assert record.label == spec.describe()

    @pytest.mark.parametrize("spec", [
        JobSpec("clamr", nx=12, steps=6, max_level=2, policy="min", scheme="muscl", seed=3),
        JobSpec("self", elems=2, order=2, steps=3, precision="single", seed=5),
    ], ids=["clamr", "self"])
    def test_run_workload_takes_the_spec(self, spec):
        from repro.ledger import run_workload

        record, tel = run_workload(spec)
        assert record.workload_key == spec.workload_key()
        assert record.label == tel.label == spec.describe()
        assert record.seed == spec.seed

    def test_predicted_key_matches_self_record(self):
        spec = JobSpec(workload="self", elems=2, order=2, steps=4, watch_stride=2)
        record = execute_job(spec.to_dict())
        assert record.workload_key == spec.workload_key()
        assert record.policy == "double"


class TestPinnedKeys:
    @pytest.mark.parametrize("spec, key", PINNED_KEYS, ids=["smoke", "muscl", "self"])
    def test_workload_key_is_pinned(self, spec, key):
        assert spec.workload_key() == key
        assert "scenario" not in spec.config_payload()


class TestScenario:
    def test_scenario_validated(self):
        with pytest.raises(ValueError, match="^unknown scenario 'clamr/nope'; available: "):
            JobSpec("clamr", scenario="clamr/nope")
        with pytest.raises(ValueError, match="belongs to workload 'self', not 'clamr'"):
            JobSpec("clamr", scenario="self/thermal-bubble")

    def test_scenario_joins_identity_and_label(self):
        spec = JobSpec("clamr", nx=12, steps=4, scenario="clamr/lake-at-rest")
        assert spec.config_payload()["scenario"] == "clamr/lake-at-rest"
        assert spec.workload_key() != replace(spec, scenario="").workload_key()
        assert spec.describe() == "clamr/lake-at-rest/nx12s4/mixed"
        assert spec.config().max_level == 0  # the scenario's overlay

    @pytest.mark.parametrize("spec", [
        JobSpec("clamr", nx=12, steps=4, scenario="clamr/lake-at-rest"),
        JobSpec("self", elems=2, order=2, steps=2, scenario="self/density-current"),
    ], ids=["clamr", "self"])
    def test_predicted_key_matches_scenario_record(self, spec):
        record = execute_job(spec.to_dict())
        assert record.workload_key == spec.workload_key()
        assert record.config["scenario"] == spec.scenario
        assert record.label == spec.describe()

    @pytest.mark.parametrize("name", scenario_names())
    def test_spec_carries_the_sizes_its_scenario_sets(self, name):
        family = name.split("/")[0]
        spec = JobSpec(family, scenario=name, nx=12, max_level=3, elems=2, order=2)
        cfg = spec.config()
        if family == "clamr":
            assert (spec.nx, spec.max_level) == (cfg.nx, cfg.max_level)
        else:
            assert (spec.elems, spec.order) == (cfg.nex, cfg.order)

    def test_a_pinned_size_replaces_the_one_given(self):
        spec = JobSpec("clamr", nx=12, max_level=2, steps=4, scenario="clamr/lake-at-rest")
        assert spec.max_level == spec.config().max_level == 0
        assert spec.to_dict()["max_level"] == 0
        assert JobSpec.from_dict(spec.to_dict()) == spec
        assert spec.workload_key() == replace(spec, max_level=0).workload_key()
        # a size the scenario leaves open stays the caller's
        assert spec.nx == spec.config().nx == 12

    def test_at_level(self):
        assert JobSpec("clamr").at_level("full").policy == "full"
        assert JobSpec("clamr").at_level("double").policy == "full"
        assert JobSpec("self").at_level("min").precision == "single"
        assert JobSpec("self").at_level("full").precision == "double"
        assert JobSpec("self", precision="single").at_level("double").precision == "double"
