"""Smoke test of the benchmark: python3 -m pytest perfbench/test_smoke.py

Short runs of every workload, traced and untraced, plus checks that the
checkers reject wrong outputs and that BENCHMARK.json matches run.py.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("spinor-suite", "dirac-planewave", "algebra-sweep")


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ("0", "1"))
def test_short_run(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    want = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert set(result["metrics"]) == set(want)
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}
        assert m["unit"] == want[name][0]
    if workload == "dirac-planewave":
        # exactly the on-shell points of the two charged fields in each round
        # of 8 fields x 4 points fail, until the ideal-form coupling is mended
        assert result["failed"] * 32 == result["attempted"] * 6
    else:
        assert result["failed"] == 0
    if trace == "1":
        m = result["metrics"]
        assert m["trace.op_ms"]["value"] > m["trace.bench_self_ms"]["value"] > 0


def test_same_seed_same_work():
    a = bench("--workload", "algebra-sweep", "--seed", "5", "--seconds", "1", "--trace", "0")
    b = bench("--workload", "algebra-sweep", "--seed", "5", "--seconds", "1", "--trace", "0")
    ra, rb = (json.loads(p.stdout.strip().splitlines()[-1]) for p in (a, b))
    assert ra["attempted"] == rb["attempted"]
    assert ra["metrics"]["residual_digits"] == rb["metrics"]["residual_digits"]


def test_benchmark_json_matches_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == table


def test_checks_reject_wrong_outputs():
    w = workloads.SpinorSuite(seed=1, rounds=1)
    case = w.cases[1]
    out = w.run(case)
    w.check(case, out)
    out["cov"] = workloads.cs.BilinearCovariants(
        out["cov"].sigma, out["cov"].omega, out["cov"].J, -out["cov"].S, out["cov"].K
    )
    with pytest.raises(workloads.CheckFailed):
        w.check(case, out)

    a = workloads.AlgebraSweep(seed=1, rounds=1)
    case = a.cases[0]
    out = a.run(case)
    a.check(case, out)
    out["results"]["product"] = out["results"]["product"] + 1e-6
    with pytest.raises(workloads.CheckFailed):
        a.check(case, out)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench("--workload", "spinor-suite", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
