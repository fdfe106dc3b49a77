"""Smoke test of the benchmark harness (tiny inputs; measures nothing).

Run: python3 -m pytest bench/test_smoke.py
"""
import filecmp
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
import workloads  # noqa: E402

OUT = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args):
    cmd = [sys.executable, str(BENCH / "run.py"), *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_metric_names_and_units_match_spec(workload, trace):
    result = _run("--workload", workload, "--seed", "3", "--seconds", "0.5",
                  "--trace", str(trace), "--smoke")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in spec}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected


def _generate(workload, seed, name):
    out = OUT / "test-inputs" / name
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, str(BENCH / "setup_inputs.py"), workload, str(seed), str(out)]
    subprocess.run(cmd, timeout=120, check=True)
    return out


def _same_tree(a, b):
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


def _argv(workload, seed, work, rounds=3):
    manifest = json.loads((work / "manifest.json").read_text())
    return [
        [argv for argv, _ in req["steps"]]
        for r in range(rounds)
        for req in workloads.round_requests(workload, seed, work, manifest, r)
    ]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_same_seed_gives_byte_identical_inputs(workload):
    first = _generate(workload, 7, f"{workload}-a")
    second = _generate(workload, 7, f"{workload}-b")
    other = _generate(workload, 8, f"{workload}-c")
    try:
        assert _same_tree(first, second)
        assert not _same_tree(first, other)
        assert _argv(workload, 7, first) == _argv(workload, 7, first)
        assert _argv(workload, 7, first) != _argv(workload, 8, first)
    finally:
        shutil.rmtree(OUT / "test-inputs", ignore_errors=True)
