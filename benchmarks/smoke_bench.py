"""Smoke test of the benchmark: one cheap case per workload.

    python3 -m pytest benchmarks/smoke_bench.py -q

Checks that an untraced run prints every end-to-end metric named in
BENCHMARK.json with its unit, that a traced run prints every per-layer
metric, and that every exact check passes.  The file name does not match
pytest's test pattern and lives outside ``testpaths``, so the package's own
test run does not collect it.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
CHEAP = {
    "ty_center": "2^1_1/+1",
    "lattice_realize": "3^1_- x 2^2_3",
    "pointed_enum": "2^2_1 x 2^1_3",
}


def run(workload, trace):
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
        "--case", CHEAP[workload],
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    lines = out.stdout.strip().splitlines()
    cases = [json.loads(line) for line in lines if line.startswith('{"case"')]
    return json.loads(lines[-1]), cases


def check_metrics(result, spec):
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


def test_workload_names_match_spec():
    assert sorted(CHEAP) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", sorted(CHEAP))
def test_end_to_end_metrics(workload):
    result, cases = run(workload, 0)
    check_metrics(result, SPEC["end_to_end"])
    assert result["metrics"]["case_s.p50"]["value"] > 0
    assert [c["case"] for c in cases] == [CHEAP[workload]] * len(cases)
    assert all(c["order"] > 1 for c in cases)


def test_traced_run_emits_every_layer_metric():
    result, cases = run("pointed_enum", 1)
    check_metrics(result, SPEC["per_layer"])
    assert any(c.get("traced") for c in cases)
    metrics = result["metrics"]
    assert metrics["pointed.enum_z.s"]["value"] > 0
    assert metrics["abelian.all_subgroups.returned"]["value"] > 0
