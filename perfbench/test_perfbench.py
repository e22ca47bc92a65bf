"""Self-test of the benchmark at toy size: the workloads pass, the answer
checks catch a wrong equality, exact counters repeat across hash seeds and
the benchmark refuses to run without the sources.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hypersetdb import bisim, engine, evaluator  # noqa: E402

from perfbench import run as bench  # noqa: E402
from perfbench.workloads import EXACT, TOY, WORKLOADS, run_workload  # noqa: E402


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(bench.NAMED)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert set(EXACT) <= set(bench.PER_LAYER)


def toy_run(workload, tmp_path, trace=False):
    run = run_workload(workload, seed=7, seconds=0.1, trace=trace,
                       workdir=tmp_path, sizes=TOY)
    assert run.attempted > 0
    return run


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_answers_are_right(workload, tmp_path):
    run = toy_run(workload, tmp_path, trace=True)
    assert run.failed == 0, run.problems
    assert run.layers and run.samples["cycle_ms"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_always_true_bisimilar_is_caught(workload, tmp_path, monkeypatch):
    def always_true(x, y, store, facts, helpers=None):
        facts.resolve(x, y, True)
        return True
    for module in (bisim, evaluator, engine):
        monkeypatch.setattr(module, "bisimilar", always_true)
    run = toy_run(workload, tmp_path)
    assert run.failed / run.attempted > 0


def _traced_metrics(workload, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", "1", "--toy"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"], done.stdout
    return {key: value["value"] for key, value in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counters_repeat_across_hash_seeds(workload):
    first, second = _traced_metrics(workload, 0), _traced_metrics(workload, 1)
    assert {key: first[key] for key in EXACT} == {key: second[key] for key in EXACT}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "linorder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
