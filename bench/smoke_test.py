"""Smoke test of the benchmark itself.

Run from the repository root with ``python3 bench/smoke_test.py`` (or
``python3 -m pytest bench/smoke_test.py``).  It makes the shortest runs of
every workload, with tracing off and on, and checks that each prints the
result line with exactly the metrics BENCHMARK.json names, each with its
unit, and that every output passed its checks.  It also checks that the
benchmark refuses to run, printing no result, in a directory that holds
only BENCHMARK.json and the benchmark's own files.
"""

import json
import shutil
import subprocess
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", "0", "--seconds", "1",
                           "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0, proc.stdout[-2000:]
    assert result["attempted"] >= 1
    return result


def check_metrics(result: dict, declared: list):
    expected = {m["name"]: m["unit"] for m in declared}
    assert sorted(result["metrics"]) == sorted(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name], name
        assert isinstance(metric["value"], (int, float)), name


def test_every_metric_is_emitted_with_its_unit():
    for workload in (w["name"] for w in SPEC["workloads"]):
        check_metrics(result_line(run_benchmark(ROOT, workload, 0)), SPEC["end_to_end"])
        check_metrics(result_line(run_benchmark(ROOT, workload, 1)), SPEC["per_layer"])


def test_refuses_to_run_without_the_program():
    bare = BENCH / ".smoke_bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns(
                ".smoke_bare", "__pycache__"))
        proc = run_benchmark(bare, SPEC["workloads"][0]["name"], 0)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    test_refuses_to_run_without_the_program()
    test_every_metric_is_emitted_with_its_unit()
    print("ok")
