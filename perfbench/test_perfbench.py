"""The benchmark's own tests, at small scale.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from layers import PER_LAYER, TARGETS
from spans import Tracer
from workloads import WORKLOADS, make_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = sorted(WORKLOADS)


@pytest.fixture(autouse=True)
def _workdir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == NAMES
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in PER_LAYER
    ]


def _one_pass(name: str, tmp_path: Path):
    workload = make_workload(name, 1, tmp_path, small=True)
    workload.setup()
    job = workload.prepare(0)
    return workload, job, workload.run(job)


def _plant(name: str, kind: str, workload, out) -> None:
    """Corrupt one answer of a correct pass, as a buggy change would."""
    if kind == "answer":
        report = out[1]
        rid, answer = next(iter(report.results.items()))
        report.results[rid] = dataclasses.replace(answer, best_score=answer.best_score + 1)
    elif name == "construct-web":
        out[2].coreness[0] += 1
    elif name == "sharded-web":
        out.coreness[0] += 1
    else:
        workload.dyn._coreness[0] += 1


@pytest.mark.parametrize("name, kind", [
    ("construct-web", "coreness"),
    ("churn-social", "coreness"),
    ("churn-social", "answer"),
    ("sharded-web", "coreness"),
])
def test_a_planted_wrong_answer_is_a_failure(name, kind, tmp_path):
    workload, job, out = _one_pass(name, tmp_path)
    try:
        assert workload.check(job, out) == 0
        _plant(name, kind, workload, out)
        assert workload.check(job, out) >= 1
    finally:
        workload.close()


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", NAMES)
def test_every_oracle_passes_on_more_than_one_seed(name, seed):
    result = run.end_to_end(name, seed, 0.01, small=True)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert [m for m, _ in run.END_TO_END] == list(metrics)
    assert all(entry["value"] > 0 for entry in metrics.values())


@pytest.mark.parametrize("name", NAMES)
def test_tracing_leaves_the_sim_clock_bit_identical(name):
    result = run.traced(name, 3, 0.01, small=True)
    assert result["sim_identical"]
    assert result["correct"]
    assert list(result["metrics"]) == [name for name, _, _, _ in PER_LAYER]
    spans = result["tracer"].spans
    assert spans and all(span.end >= span.start for span in spans)


def test_wrapping_restores_every_binding():
    import repro.pipeline
    from repro.graph.graph import Graph

    before = (vars(Graph)["from_edges"], repro.pipeline.pkc_core_decomposition)
    with Tracer().wrapping(TARGETS):
        assert repro.pipeline.pkc_core_decomposition is not before[1]
    assert (vars(Graph)["from_edges"], repro.pipeline.pkc_core_decomposition) == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "construct-web",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
