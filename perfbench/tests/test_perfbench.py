"""Tests of the benchmark harness: span arithmetic, hooks, and tiny end-to-end runs.

Run from the checkout root::

    python -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench.tracing import Span, Tracer, covered, self_times  # noqa: E402

RUN = ROOT / "perfbench" / "run.py"


def _span(span_id, parent, name, start, end):
    return Span(span_id, parent, "op1", name, start, end, None)


def test_covered_merges_overlaps_and_clips_to_the_interval():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]) == 7.0
    assert covered(0.0, 10.0, [(2.0, 3.0), (2.5, 2.8)]) == 1.0


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        _span("a", None, "cli.sweep", 0.0, 10.0),
        _span("b", "a", "structure.edge_weights", 1.0, 4.0),
        _span("c", "a", "structure.max_arborescence", 3.0, 6.0),  # overlaps b
        _span("d", "a", "baselines.fit_critic", 8.0, 12.0),  # outlives a
        _span("e", "b", "families.fit_conditional", 2.0, 3.0),
    ]
    assert self_times(spans) == {
        "cli": 10.0 - 7.0,
        "structure": (3.0 - 1.0) + 3.0,
        "baselines": 4.0,
        "families": 1.0,
    }


def test_tracer_hooks_every_binding_and_restores_it(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from usable_info import cli, estimation, structure
    from usable_info.families import FamilyConfig

    originals = (cli.edge_weights, structure.edge_weights,
                 structure.empirical_conditional_entropy, estimation.fit_conditional)
    tracer = Tracer(tmp_path)
    tracer.install()
    try:
        assert cli.edge_weights is structure.edge_weights
        assert cli.edge_weights is not originals[0]
        rng = np.random.default_rng(0)
        variables = [rng.normal(size=(50, 1)) for _ in range(3)]
        with tracer.operation("op1"):
            structure.edge_weights(variables, FamilyConfig("linear_gaussian"))
    finally:
        tracer.uninstall()
    assert (cli.edge_weights, structure.edge_weights,
            structure.empirical_conditional_entropy, estimation.fit_conditional) == originals
    names = [s.name for s in tracer.spans]
    assert names.count("structure.edge_weights") == 1
    assert names.count("estimation.empirical_conditional_entropy") == 6
    assert names.count("families.fit_conditional") == 6
    top = next(s for s in tracer.spans if s.name == "structure.edge_weights")
    assert top.attrs == {"pairs": 6}
    assert all(s.op == "op1" for s in tracer.spans)


def _benchmark_metrics(kind: str) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["tree_csv", "tree_wide", "sweep_fits"])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = _benchmark_metrics("per_layer" if trace else "end_to_end")
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tree_csv", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
