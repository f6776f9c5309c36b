"""The golden ledger's command payloads, and how a moved value reads.

The quick battery's payload is compared in
`test_acceptance.py::test_criterion_14_determinism`, from the run that
test already makes.
"""

import json

import numpy as np
import pytest

import golden_ledger as G
from lawbound.reporting import canonical_json


@pytest.mark.parametrize("name", ["certify", "pfode"])
def test_command_report_matches_the_ledger(tmp_path, name):
    G.compare(name, G.run_payload(name, tmp_path))


def _planted(name, check, ulps=1):
    doc = json.loads((G.GOLDEN / f"{name}.json").read_text())
    row = next(c for c in doc["checks"] if c["name"] == check)
    for _ in range(ulps):
        row["value"] = float(np.nextafter(row["value"], np.inf))
    return canonical_json(doc)


def test_one_ulp_change_to_a_check_value_fails_naming_the_check():
    doc = json.loads((G.GOLDEN / "verify_quick.json").read_text())
    check = next(c["name"] for c in doc["checks"] if c["value"] != 0.0)
    with pytest.raises(AssertionError) as info:
        G.compare("verify_quick", _planted("verify_quick", check))
    message = str(info.value)
    assert f"checks[{check}].value" in message
    assert "within 1e-13" in message
    assert "1 moved" in message and "machine block" not in message


def test_mismatch_names_the_machine_block_when_it_differs():
    stored = dict(G.machine(), numpy="0.0.0")
    with pytest.raises(AssertionError, match="machine block differs"):
        G.compare("certify", _planted("certify", "certify.cross_route"),
                  stored=stored)
    # an unchanged payload passes whatever machine made the ledger
    text = (G.GOLDEN / "certify.json").read_text().rstrip("\n")
    G.compare("certify", text, stored=stored)


def test_moved_values_reports_the_relative_change():
    want = canonical_json({"checks": [{"name": "a", "value": 1.0}],
                           "extra": {"x": [2.0, "s"]}})
    got = canonical_json({"checks": [{"name": "a", "value": 1.5}],
                          "extra": {"x": [2.0, "t"], "y": 1}})
    lines = G.moved_values(want, got)
    assert lines == [
        "checks[a].value: 1.0 -> 1.5 (relative change 0.333, BEYOND 1e-13)",
        "extra.x[1]: 's' -> 't'",
        "extra.y: (new) -> 1",
    ]


def test_a_moved_benchmark_digest_names_its_workload_and_operation():
    doc = json.loads((G.GOLDEN / "bench_digests.json").read_text())
    doc["cli-pipeline"]["operations"]["lawbound scores"] = "0" * 64
    with pytest.raises(AssertionError) as info:
        G.compare("bench_digests", json.dumps(doc, indent=1, sort_keys=True))
    assert "1 moved" in str(info.value)
    assert "cli-pipeline.operations.lawbound scores" in str(info.value)
