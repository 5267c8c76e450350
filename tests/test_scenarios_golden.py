"""Golden-fingerprint regression suite for the scenario library.

``benchmarks/baseline_ledger.jsonl`` carries one committed golden
record per registered scenario, minted at the golden scale.  These
tests pin the contract:

* every registered scenario has a committed golden;
* a fresh run reproduces the golden's ``workload_key`` (identity) and
  its ``conservation_*_hex`` digests (bitwise fidelity) — both fields
  are machine-independent, unlike the full fingerprint;
* any tamper or numerical drift fails :func:`gate_scenarios` and makes
  ``repro scenario gate`` exit nonzero.
"""

import json
from pathlib import Path

import pytest

from repro.scenarios import (
    GOLDEN_SCALE,
    gate_scenarios,
    load_golden_records,
    record_scenario,
    scenario_names,
    scenario_spec,
)

BASELINE = Path(__file__).resolve().parent.parent / "benchmarks" / "baseline_ledger.jsonl"


@pytest.fixture(scope="module")
def goldens():
    return load_golden_records(BASELINE)


class TestCommittedGoldens:
    def test_every_scenario_has_a_golden(self, goldens):
        missing = [n for n in scenario_names() if n not in goldens]
        assert not missing, f"scenarios without a committed golden: {missing}"

    def test_goldens_carry_the_gated_digests(self, goldens):
        for name, record in goldens.items():
            assert record.workload_key, name
            assert record.fidelity.get("conservation_first_hex"), name
            assert record.fidelity.get("conservation_last_hex"), name

    @pytest.mark.parametrize("name", scenario_names())
    def test_fresh_run_reproduces_the_golden(self, name, goldens):
        golden = goldens[name]
        fresh = record_scenario(name, scale=GOLDEN_SCALE)
        assert fresh.workload_key == golden.workload_key
        for key in ("conservation_first_hex", "conservation_last_hex"):
            assert fresh.fidelity[key] == golden.fidelity[key], (
                f"{name}: {key} drifted from the committed golden"
            )

    @pytest.mark.parametrize("name", scenario_names())
    def test_spec_predicts_the_golden_key(self, name, goldens):
        # the identity is known before any run
        assert scenario_spec(name, GOLDEN_SCALE).workload_key() == goldens[name].workload_key

    @pytest.mark.parametrize("name", ["clamr/dam-break", "self/density-current"])
    def test_record_carries_the_predicted_key(self, name):
        predicted = scenario_spec(name, GOLDEN_SCALE).workload_key()
        assert record_scenario(name).workload_key == predicted

    def test_lake_at_rest_golden_is_bitwise_conservative(self, goldens):
        # the well-balanced case's whole point: first == last, exactly
        g = goldens["clamr/lake-at-rest"].fidelity
        assert g["conservation_first_hex"] == g["conservation_last_hex"]


def _tampered_baseline(tmp_path, victim: str) -> Path:
    out = tmp_path / "tampered.jsonl"
    lines = []
    for line in BASELINE.read_text(encoding="utf-8").splitlines():
        doc = json.loads(line)
        if doc.get("config", {}).get("scenario") == victim:
            doc["fidelity"]["conservation_last_hex"] = "0xdeadbeefp+0"
        lines.append(json.dumps(doc, sort_keys=True))
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out


class TestGate:
    def test_gate_passes_against_committed_goldens(self):
        checks = gate_scenarios(BASELINE, names=["clamr/lake-at-rest"])
        assert checks and all(c.passed for c in checks), "\n".join(map(str, checks))

    def test_gate_fails_on_tamper(self, tmp_path):
        tampered = _tampered_baseline(tmp_path, "clamr/lake-at-rest")
        checks = gate_scenarios(tampered, names=["clamr/lake-at-rest"])
        failed = [c for c in checks if not c.passed]
        assert failed, "tampered digest slipped through the gate"
        assert any("conservation_last" in c.name for c in failed)

    def test_gate_fails_on_missing_golden(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        checks = gate_scenarios(empty, names=["clamr/dam-break"])
        assert len(checks) == 1 and not checks[0].passed
        assert "no golden record" in checks[0].evidence

    def test_cli_gate_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        name = "self/thermal-bubble"
        ok = main(["scenario", "gate", name, "--baseline", str(BASELINE)])
        assert ok == 0
        tampered = _tampered_baseline(tmp_path, name)
        bad = main(["scenario", "gate", name, "--baseline", str(tampered)])
        assert bad == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
