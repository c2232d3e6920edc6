"""Self-tests of the benchmark at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

from repro import (  # noqa: E402
    CSRGraph,
    ShardedCSRGraph,
    VirtualShardLayout,
    generate_walks,
)
from repro.walks.kernels import available_backends, resolve_backend  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))

TINY = {
    "n2v-corpus": {"nodes": 60, "length": 10, "chunk_size": 16},
    "budget-churn": {"nodes": 60, "length": 5, "batch_walkers": 8},
    "out-of-core": {
        "nodes": 80,
        "length": 10,
        "num_shards": 3,
        "starts": 16,
        "batch": 8,
    },
}
WORKLOADS = sorted(TINY)


@pytest.fixture
def tiny(monkeypatch: pytest.MonkeyPatch, tmp_path: Path):
    """Tiny workloads; benchmark outputs go to a temporary directory."""
    for name, overrides in TINY.items():
        monkeypatch.setitem(harness.WORKLOADS, name, {**harness.WORKLOADS[name], **overrides})
    monkeypatch.setattr(harness, "MIN_OPS", 4)
    monkeypatch.setattr(run, "WORK_DIR", tmp_path / "work")
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")
    return tmp_path


def _run(inputs: Path, trace: bool) -> harness.RunResult:
    recorder = tracing.Recorder() if trace else tracing.OFF
    backend = resolve_backend("numpy")
    if trace:
        backend = tracing.traced_backend(recorder, backend)
    result = harness.Runner(inputs, 0.05, recorder, backend).run()
    result.info["recorder"] = recorder
    return result


def _digests(result: harness.RunResult) -> dict[str, str]:
    return {
        label: harness.walks_digest(*harness.pack_walks(walks))
        for label, _, walks in result.records
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(tiny, capsys, workload, trace):
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0.05", "--trace", str(trace)]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    provenance = json.loads(lines[-2])["provenance"]
    assert provenance["seed"] == 3 and provenance["backend"] == "numpy"
    assert provenance["traced_digests_equal"] in ((True,) if trace else (None,))
    if trace:
        assert (tiny / "out" / f"trace-{workload}-s3-t1.json").is_file()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_corpus_equals_untraced(tmp_path, monkeypatch, workload):
    monkeypatch.setattr(harness, "MIN_OPS", 4)
    harness.make_inputs(workload, 5, tmp_path, TINY[workload])
    untraced, traced = _digests(_run(tmp_path, False)), _digests(_run(tmp_path, True))
    common = set(untraced) & set(traced)
    assert common
    assert all(untraced[label] == traced[label] for label in common)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_add_up_to_each_phase(tmp_path, monkeypatch, workload):
    monkeypatch.setattr(harness, "MIN_OPS", 4)
    harness.make_inputs(workload, 2, tmp_path, TINY[workload])
    recorder = _run(tmp_path, True).info["recorder"]
    for phase, duration, layers in recorder.phases:
        selfs = [self_ns for _, self_ns, _ in layers.values()]
        assert min(selfs) >= 0, phase
        assert sum(selfs) == duration, phase
    assert {name for name, _, _ in recorder.phases} == {"phase.setup", "phase.pass"}


def test_out_of_core_corpus_equals_in_memory_layout(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "MIN_OPS", 4)
    params = harness.make_inputs("out-of-core", 4, tmp_path, TINY["out-of-core"])
    result = _run(tmp_path, False)
    graph = harness.load_graph(tmp_path)
    layout = VirtualShardLayout(graph, num_shards=params["num_shards"])
    model = harness.make_model(params["model"])
    assert len(result.records) >= 2
    for label, starts, walks in result.records:
        memory = generate_walks(
            layout,
            model,
            num_walks=1,
            length=params["length"],
            max_resident=params["max_resident"],
            workers=1,
            nodes=[int(v) for v in starts],
            rng=harness.walk_rng(params["seed"], label),
        )
        assert harness.walks_digest(*harness.pack_walks(walks)) == harness.walks_digest(
            *harness.pack_walks(memory.walks)
        ), label
    # The on-disk layout really is a separate, sharded copy.
    assert ShardedCSRGraph.open(tmp_path / "layout").num_shards == params["num_shards"]


def test_wrapper_backend_leaves_registry_unchanged(tmp_path):
    names = available_backends()
    numpy_backend = resolve_backend("numpy")
    recorder = tracing.Recorder()
    wrapped = tracing.traced_backend(recorder, numpy_backend)
    assert wrapped.name == "numpy" and wrapped is not numpy_backend

    params = harness.make_inputs("out-of-core", 1, tmp_path, TINY["out-of-core"])
    layout = ShardedCSRGraph.open(tmp_path / "layout")
    model = harness.make_model(params["model"])
    with recorder.span("phase.pass"):
        generate_walks(
            layout, model, num_walks=1, length=5, workers=1,
            nodes=params["starts"], rng=1, backend=wrapped,
        )
    assert any(name.startswith("walks.kernels.") for name in recorder.phases[0][2])
    assert available_backends() == names
    assert resolve_backend("numpy") is numpy_backend
    assert resolve_backend(None) is numpy_backend


def test_validation_counts_each_broken_walk():
    graph = CSRGraph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3)], undirected=False)
    walks = [
        np.array([0, 1, 2, 0]),  # fine
        np.array([0, 2, 0, 1]),  # 0 -> 2 is not an edge
        np.array([1, 2, 0, 1]),  # starts at 1, expected 2
        np.array([1, 2]),  # stops early at a node with neighbours
        np.array([2, 3]),  # stops early at a sink: fine
    ]
    starts = np.array([0, 0, 2, 1, 2])
    lengths, flat = harness.pack_walks(walks)
    assert harness.invalid_walks(graph, starts, lengths, flat, 3) == 3
    assert harness.invalid_walks(graph, starts[:4], lengths, flat, 3) == 5


def test_without_program_source_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        ".work", "out", "__pycache__"
    ))
    shutil.copyfile(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "n2v-corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
