"""The benchmark's own test: smoke runs of all four workloads, traced and
untraced, plus checks that wrong output is counted as failed and that the
benchmark refuses to run without the program's sources.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from jobs import run_job  # noqa: E402
from workloads import Requests, Staircase, Tails  # noqa: E402

# a layer metric that must be nonzero wherever the workload exercises it
EXERCISED = {
    "staircase": ["semigroup.folds", "semigroup.frobenius_reads", "intervals.grid_points"],
    "wilf": ["semigroup.apery_calls", "semigroup.atoms_s", "intervals.builds", "wilf.rows"],
    "tails": ["goldbach.tail_calls", "goldbach.folds_per_tail", "pool.busy_ratio"],
    "requests": ["goldbach.certs", "goldbach.validate_s", "wilf.density_s", "primes.sieve_builds"],
}


def _smoke(workload: str, trace: int) -> tuple[list[str], dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    lines = out.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    report, result = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    printed = {line.split()[0]: line.split() for line in report if line.strip()}
    for name, unit in wanted.items():
        assert unit in printed[name], name
    assert "fail_ratio" in printed
    if trace:
        for name in EXERCISED[workload]:
            assert result["metrics"][name]["value"] > 0, name
        # traced runs also print the untraced end-to-end figures
        assert all(m["name"] in printed for m in SPEC["end_to_end"])


def test_tails_spans_come_from_pool_workers():
    _, result = _smoke("tails", 1)
    metrics = result["metrics"]
    # one sieve in the job process and one in each worker
    assert metrics["primes.sieve_builds"]["value"] >= 3
    assert metrics["goldbach.tail_calls"]["value"] == 37  # n in 5:41


def _corrupt_f(text: str, row: int) -> str:
    lines = text.splitlines(keepends=True)
    cells = lines[row].split(",")
    cells[4] = str(int(cells[4]) + 2)
    lines[row] = ",".join(cells)
    return "".join(lines)


def test_corrupted_staircase_row_is_a_failure(tmp_path):
    workload = Staircase(0, True, str(tmp_path))
    job = workload.next_job(0)
    result = run_job(job.argv, str(tmp_path), job.files)
    assert workload.check(job, result.code, result.stdout, result.files) == job.items
    files = dict(result.files)
    files[workload.csv] = _corrupt_f(files[workload.csv], 10)
    assert workload.check(job, result.code, result.stdout, files) == job.items - 1
    assert workload.check(job, 1, result.stdout, result.files) == 0


def test_corrupted_tail_row_is_a_failure(tmp_path):
    workload = Tails(0, True, str(tmp_path))
    job = workload.next_job(0)
    result = run_job(job.argv, str(tmp_path), job.files)
    assert workload.check(job, result.code, result.stdout, result.files) == job.items
    lines = result.files[workload.out].splitlines(keepends=True)
    lines[5] = lines[5].replace("true", "false", 1)
    files = {workload.out: "".join(lines)}
    assert workload.check(job, result.code, result.stdout, files) == job.items - 1


def test_corrupted_request_is_a_failure(tmp_path):
    workload = Requests(0, False, str(tmp_path))
    for i in range(6):
        job = workload.next_job(i)
        result = run_job(job.argv, str(tmp_path))
        assert workload.check(job, result.code, result.stdout, {}) == 1, job.argv
        wrong = result.stdout.replace("1", "7", 1) if "1" in result.stdout else result.stdout + "x"
        assert workload.check(job, result.code, wrong, {}) == 0, job.argv


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wilf", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_stratified_draws_cover_every_slice_per_cycle():
    import random

    from workloads import _Stratified

    band = _Stratified(random.Random(5), range(100), 10)
    for _ in range(3):
        assert sorted(band.draw() // 10 for _ in range(10)) == list(range(10))
