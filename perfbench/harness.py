"""Workload inputs, runners, output validation and metric assembly.

Three workloads, each run in its own interpreter by ``measure.py``:

* ``n2v-corpus`` — node2vec corpus from every node through the
  memory-aware framework's batch engine (set-up heavy, kernel loop);
* ``budget-churn`` — autoregressive model under a budget that cycles
  down and up, each step followed by an engine rebuild and a short walk
  batch (adaptive optimizer, incremental sampler rebuild, engine init);
* ``out-of-core`` — ``generate_walks`` over an on-disk sharded layout
  with fewer resident shards than shards (residency, scheduler).

Inputs are a function of the seed alone and are written before any
timing; the measured program only ever sees the written files.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro import (  # noqa: E402
    AutoregressiveModel,
    BoundingConstants,
    MemoryAwareFramework,
    Node2VecModel,
    ReproError,
    RetryPolicy,
    ShardedCSRGraph,
    build_cost_table,
    generate_walks,
    parallel_walks,
    write_sharded_layout,
)
from repro.graph import CSRGraph, barabasi_albert_graph  # noqa: E402
from repro.graph.io import load_csr_npz, save_csr_npz  # noqa: E402
from repro.walks.kernels.numba_backend import KERNEL_NAMES  # noqa: E402

#: Workload parameters.  Sizes are chosen so one run of ``--seconds 30``
#: holds at least :data:`MIN_OPS` timed operations on a 2-core machine.
WORKLOADS: dict[str, dict[str, Any]] = {
    "n2v-corpus": {
        "nodes": 2000,
        "attach": 5,
        "model": {"name": "node2vec", "a": 0.25, "b": 4.0},
        # 10% of the way from the all-naive to the all-alias footprint:
        # leaves a rejection + alias mix.
        "budget_frac": 0.10,
        "length": 80,
        "chunk_size": 64,
    },
    "budget-churn": {
        "nodes": 1000,
        "attach": 5,
        "model": {"name": "autoregressive", "alpha": 0.2},
        # One cycle steps 12% -> 3% -> 12% of the footprint range in 16
        # steps, crossing the naive/rejection and rejection/alias
        # transitions; the jitter of about half a step spreads the update
        # sizes, so the latency percentiles do not sit between clusters.
        "levels": [round(0.12 - 0.01125 * i, 5) for i in range(8)]
        + [round(0.03 + 0.01125 * i, 5) for i in range(8)],
        "jitter": 0.005,
        "batch_walkers": 64,
        "length": 20,
        "chunk_size": 64,
    },
    "out-of-core": {
        "nodes": 2000,
        "attach": 5,
        "model": {"name": "node2vec", "a": 0.25, "b": 4.0},
        "num_shards": 6,
        "max_resident": 2,
        "starts": 128,
        "batch": 16,
        "length": 80,
    },
}

#: Fewest timed operations a run holds, so that the p90 has ten beyond it.
MIN_OPS = 100

#: A run stops after this many multiples of ``--seconds`` even if short of
#: :data:`MIN_OPS` (a slow machine then reports fewer samples).
MAX_OVERRUN = 1.8


def sha256_file(path: Path) -> str:
    """Hex SHA-256 of one file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def make_model(spec: dict[str, Any]) -> Any:
    """The second-order model a workload walks."""
    if spec["name"] == "node2vec":
        return Node2VecModel(a=spec["a"], b=spec["b"])
    return AutoregressiveModel(alpha=spec["alpha"])


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def make_inputs(
    workload: str, seed: int, dest: Path, overrides: dict[str, Any] | None = None
) -> dict[str, Any]:
    """Write the graph (and shard layout) for ``(workload, seed)`` into
    ``dest`` and return the parameters, also saved as ``params.json``.

    ``overrides`` replaces workload parameters (the self-tests use it to
    run tiny sizes)."""
    config = {**WORKLOADS[workload], **(overrides or {})}
    dest.mkdir(parents=True, exist_ok=True)
    graph = barabasi_albert_graph(config["nodes"], config["attach"], rng=seed)
    save_csr_npz(graph, dest / "graph.npz")
    table = build_cost_table(
        graph, BoundingConstants(values=np.ones(graph.num_nodes), exact=False)
    )
    params: dict[str, Any] = {
        **config,
        "workload": workload,
        "seed": int(seed),
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "min_memory": table.min_memory(),
        "max_memory": table.max_memory(),
        "inputs_sha256": {"graph.npz": sha256_file(dest / "graph.npz")},
    }
    if workload == "n2v-corpus":
        params["budget_bytes"] = _budget(params, config["budget_frac"])
    elif workload == "budget-churn":
        params["budget_bytes"] = churn_budget(params, 0)
    elif workload == "out-of-core":
        write_sharded_layout(graph, dest / "layout", num_shards=config["num_shards"])
        params["inputs_sha256"]["layout/manifest.json"] = sha256_file(
            dest / "layout" / "manifest.json"
        )
        candidates = np.flatnonzero(graph.degrees > 0)
        starts = np.random.default_rng([seed, 2]).choice(
            candidates, size=min(config["starts"], len(candidates)), replace=False
        )
        params["starts"] = [int(v) for v in starts]
    (dest / "params.json").write_text(json.dumps(params, indent=1), encoding="utf-8")
    return params


def _budget(params: dict[str, Any], fraction: float) -> float:
    low, high = params["min_memory"], params["max_memory"]
    return float(low + fraction * (high - low))


def churn_budget(params: dict[str, Any], step: int) -> float:
    """Budget of update ``step`` (step 0 is the set-up budget)."""
    levels = params["levels"]
    jitter = 0.0
    if step > 0:
        jitter = np.random.default_rng([params["seed"], 1, step]).uniform(
            -params["jitter"], params["jitter"]
        )
    return _budget(params, levels[step % len(levels)] + jitter)


# ----------------------------------------------------------------------
# running
# ----------------------------------------------------------------------
def walk_rng(seed: int, label: str) -> np.random.Generator:
    """The generator behind the walk call labelled ``label``: labels name
    the seed-sequence path below the workload seed, e.g. ``"3-0"``."""
    return np.random.default_rng([seed, *(int(part) for part in label.split("-"))])


@dataclass(frozen=True)
class RetryCounter(RetryPolicy):
    """The default retry policy, remembering each retry it schedules.

    The supervisor asks for a backoff delay once or more per retry; the
    distinct ``(chunk, attempt)`` pairs asked about are the retries.
    """

    asked: set = field(default_factory=set, compare=False)

    def delay(self, chunk_index: int, attempt: int) -> float:
        self.asked.add((chunk_index, attempt))
        return super().delay(chunk_index, attempt)


@dataclass
class RunResult:
    """What one measured run produced, before validation."""

    setup_s: list[float] = field(default_factory=list)
    pass_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)
    walk_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    # (label, expected start per walk, walks) per walk call.
    records: list[tuple[str, np.ndarray, list[np.ndarray]]] = field(
        default_factory=list
    )
    counters: dict[str, float] = field(default_factory=dict)
    info: dict[str, Any] = field(default_factory=dict)

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value


class Runner:
    """Runs one workload over its written inputs.

    A run repeats passes until ``seconds`` have passed and at least
    :data:`MIN_OPS` operations were timed; every pass starts from a
    fresh set-up, so set-up samples are spread over the whole run like
    the walking they are added to.  ``recorder`` is :data:`tracing.OFF`
    for the untraced run; ``backend`` is the kernel backend handed to
    every walk call.
    """

    def __init__(
        self,
        inputs: Path,
        seconds: float,
        recorder: Any,
        backend: Any,
    ) -> None:
        self.inputs = inputs
        self.params = json.loads((inputs / "params.json").read_text("utf-8"))
        self.seconds = float(seconds)
        self.rec = recorder
        self.backend = backend
        self.result = RunResult()

    def run(self) -> RunResult:
        """Alternate set-up and pass until the time is up."""
        setup, walk = {
            "n2v-corpus": (self._setup_framework, self._n2v_pass),
            "budget-churn": (self._setup_framework, self._churn_pass),
            "out-of-core": (self._open_layout, self._out_of_core_pass),
        }[self.params["workload"]]
        res = self.result
        began = time.perf_counter()
        k = 0
        while not self._done(began):
            state = None  # free the previous set-up before the next one
            gc.collect()
            started = time.perf_counter()
            with self.rec.span("phase.setup"):
                state = setup()
            res.setup_s.append(time.perf_counter() - started)
            started = time.perf_counter()
            with self.rec.span("phase.pass"):
                walk(state, k)
            res.pass_s.append(time.perf_counter() - started)
            k += 1
        return res

    def _done(self, started: float) -> bool:
        elapsed = time.perf_counter() - started
        if elapsed >= MAX_OVERRUN * self.seconds:
            return True
        return elapsed >= self.seconds and len(self.result.op_s) >= MIN_OPS

    # ------------------------------------------------------------------
    # set-ups
    # ------------------------------------------------------------------
    def _setup_framework(self) -> tuple[Any, Any]:
        """Load, build the framework (LP-est) and its batch engine."""
        p, rec, info = self.params, self.rec, self.result.info
        with rec.span("graph.io.load"):
            graph = load_csr_npz(self.inputs / "graph.npz")
        model = make_model(p["model"])
        with rec.span("framework.init"):
            fw = MemoryAwareFramework(
                graph, model, p["budget_bytes"], bounding="estimate", rng=p["seed"]
            )
        with rec.span("walks.batch.engine_init"):
            engine = fw.batch_engine(backend=self.backend)
        counts = np.bincount(fw.assignment.samplers, minlength=3)
        info["assignment"] = {
            kind: int(counts[i]) for i, kind in enumerate(("naive", "rejection", "alias"))
        }
        info["budget_bytes"] = float(fw.budget)
        info["used_mb"] = fw.assignment.used_memory / 1e6
        info["graph_mb"] = graph.storage_bytes() / 1e6
        return fw, engine

    def _open_layout(self) -> tuple[Any, Any]:
        """Open the on-disk shard layout."""
        with self.rec.span("graph.sharded.open"):
            layout = ShardedCSRGraph.open(self.inputs / "layout")
        return layout, make_model(self.params["model"])

    # ------------------------------------------------------------------
    # passes
    # ------------------------------------------------------------------
    def _n2v_pass(self, state: tuple[Any, Any], k: int) -> None:
        """One corpus from every node; one timed operation per chunk."""
        fw, engine = state
        ops = self.result.op_s
        chunk = self.rec.wrap("walks.batch.walk_chunk", engine.walk_chunk)

        def timed_chunk(*args: Any, **kwargs: Any) -> Any:
            started = time.perf_counter()
            walks = chunk(*args, **kwargs)
            ops.append(time.perf_counter() - started)
            return walks

        engine.walk_chunk = timed_chunk
        label = f"3-{k}"
        starts = np.flatnonzero(fw.graph.degrees > 0)
        self._walk(label, starts, self._parallel(engine, None, label))

    def _churn_pass(self, state: tuple[Any, Any], k: int) -> None:
        """One budget cycle; one timed operation per budget update."""
        fw, _ = state
        p, res, rec = self.params, self.result, self.rec
        candidates = np.flatnonzero(fw.graph.degrees > 0)
        levels = len(p["levels"])
        for step in range(k * levels + 1, (k + 1) * levels + 1):
            before = fw.assignment.samplers.copy()
            res.attempted += 1
            started = time.perf_counter()
            try:
                with rec.span("optimizer.adaptive.set_budget"):
                    fw.set_budget(churn_budget(p, step))
                with rec.span("walks.batch.engine_init"):
                    engine = fw.batch_engine(backend=self.backend)
            except ReproError:
                res.failed += 1
                continue
            res.op_s.append(time.perf_counter() - started)
            res.count(
                "optimizer.adaptive.samplers_changed",
                int(np.count_nonzero(before != fw.assignment.samplers)),
            )
            engine.walk_chunk = rec.wrap("walks.batch.walk_chunk", engine.walk_chunk)
            starts = np.random.default_rng([p["seed"], 4, step]).choice(
                candidates, size=min(p["batch_walkers"], len(candidates)), replace=False
            )
            label = f"5-{step}"
            self._walk(label, starts, self._parallel(engine, [int(v) for v in starts], label))

    def _out_of_core_pass(self, state: tuple[Any, Any], k: int) -> None:
        """One corpus over the start nodes; one timed operation per call."""
        layout, model = state
        p, res, rec = self.params, self.result, self.rec
        # The shard spans: the residency manager hash-verifies a shard on
        # its first load; read_shard is the full-read path.
        layout.verify = rec.wrap("graph.sharded.verify", layout.verify)
        layout.read_shard = rec.wrap("graph.sharded.read_shard", layout.read_shard)
        starts = np.asarray(p["starts"], dtype=np.int64)
        for j in range(0, len(starts), p["batch"]):
            batch = starts[j : j + p["batch"]]
            label = f"6-{k}-{j // p['batch']}"
            started = time.perf_counter()
            self._walk(label, batch, self._generate(layout, model, batch, label))
            res.op_s.append(time.perf_counter() - started)

    # ------------------------------------------------------------------
    # walk calls
    # ------------------------------------------------------------------
    def _walk(self, label: str, starts: np.ndarray, call: Any) -> None:
        """Run one supervised walk call and book its outcome."""
        res = self.result
        retry = RetryCounter()
        started = time.perf_counter()
        corpus = call(retry)
        res.walk_s += time.perf_counter() - started
        res.attempted += len(starts)
        lost = {v for letter in corpus.failed_chunks for v in letter.start_nodes}
        expected = np.asarray([v for v in starts if v not in lost], dtype=np.int64)
        res.failed += len(starts) - len(corpus.walks)
        res.records.append((label, expected, list(corpus.walks)))
        meta = corpus.metadata
        res.count("walks.parallel.chunks", meta.get("num_chunks", 0))
        res.count("walks.parallel.dead_letters", len(corpus.failed_chunks))
        res.count("walks.parallel.retries", len(retry.asked))
        res.count("hops", corpus.total_steps)
        if "sharded" in meta:
            for key, value in meta["sharded"].items():
                res.count(f"sharded.{key}", value)
            res.count("scheduler.steps", meta.get("steps", 0))
        else:
            res.count("walks.batch.steps", meta.get("steps", 0))
            for kind, section in meta.get("dispatch", {}).items():
                for key, value in section.items():
                    res.count(f"walks.batch.dispatch.{kind}.{key}", value)
            for key in ("hits", "misses", "evictions"):
                res.count(f"walks.cache.{key}", meta.get("cache", {}).get(key, 0))

    def _parallel(self, engine: Any, nodes: Any, label: str) -> Any:
        p = self.params

        def call(retry: RetryPolicy) -> Any:
            with self.rec.span("walks.parallel"):
                return parallel_walks(
                    engine,
                    num_walks=1,
                    length=p["length"],
                    workers=1,
                    nodes=nodes,
                    chunk_size=p["chunk_size"],
                    rng=walk_rng(p["seed"], label),
                    retry=retry,
                    on_exhausted="dead-letter",
                )

        return call

    def _generate(self, layout: Any, model: Any, batch: np.ndarray, label: str) -> Any:
        p = self.params

        def call(retry: RetryPolicy) -> Any:
            with self.rec.span("walks.scheduler"):
                return generate_walks(
                    layout,
                    model,
                    num_walks=1,
                    length=p["length"],
                    max_resident=p["max_resident"],
                    policy="bucketed",
                    verify_hashes=True,
                    workers=1,
                    nodes=[int(v) for v in batch],
                    rng=walk_rng(p["seed"], label),
                    backend=self.backend,
                    retry=retry,
                    on_exhausted="dead-letter",
                )

        return call


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def pack_walks(walks: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``(lengths, concatenated nodes)`` of a list of walks."""
    lengths = np.asarray([len(w) for w in walks], dtype=np.int64)
    flat = (
        np.concatenate(walks).astype(np.int64, copy=False)
        if walks
        else np.zeros(0, dtype=np.int64)
    )
    return lengths, flat


def walks_digest(lengths: np.ndarray, flat: np.ndarray) -> str:
    """SHA-256 of a packed corpus (walk lengths, then node ids)."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(lengths, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(flat, dtype=np.int64).tobytes())
    return digest.hexdigest()


def invalid_walks(
    graph: CSRGraph,
    starts: np.ndarray,
    lengths: np.ndarray,
    flat: np.ndarray,
    length: int,
) -> int:
    """Count walks that break a corpus invariant.

    A walk is invalid when it is empty or longer than ``length`` hops,
    does not start at its start node, leaves the node range, takes a hop
    that is not an edge, or stops short of ``length`` hops at a node that
    still has neighbours.  A corpus whose walk count differs from its
    start count is invalid as a whole.
    """
    count = len(lengths)
    if count != len(starts):
        return max(count, len(starts))
    bad = (lengths < 1) | (lengths > length + 1)
    walk_of = np.repeat(np.arange(count), lengths)
    in_range = (flat >= 0) & (flat < graph.num_nodes)
    bad[walk_of[~in_range]] = True
    ends = np.cumsum(lengths)
    nonempty = np.flatnonzero(lengths > 0)
    firsts = ends[nonempty] - lengths[nonempty]
    bad[nonempty[flat[firsts] != starts[nonempty]]] = True
    # Hops are consecutive positions inside one walk, both in range.
    is_hop = np.ones(len(flat), dtype=bool)
    is_hop[ends[nonempty] - 1] = False
    src = np.flatnonzero(is_hop)
    src = src[in_range[src] & in_range[src + 1]]
    edges = graph.has_edge_pairs(flat[src], flat[src + 1])
    bad[walk_of[src[~edges]]] = True
    short = nonempty[lengths[nonempty] < length + 1]
    last = np.clip(flat[ends[short] - 1], 0, graph.num_nodes - 1)
    bad[short[graph.degrees[last] > 0]] = True
    return int(np.count_nonzero(bad))


def check_walks(
    graph: CSRGraph, length: int, path: Path, labels: list[str]
) -> tuple[int, dict[str, str]]:
    """Validate the walks ``measure.py`` saved at ``path``; return
    ``(invalid walks, digest per walk call)``."""
    invalid = 0
    digests: dict[str, str] = {}
    with np.load(path) as data:
        for i, label in enumerate(labels):
            starts, lengths, flat = data[f"s{i}"], data[f"l{i}"], data[f"w{i}"]
            invalid += invalid_walks(graph, starts, lengths, flat, length)
            digests[label] = walks_digest(lengths, flat)
    return invalid, digests


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end(result: dict[str, Any]) -> dict[str, float]:
    """End-to-end metrics of one untraced run's summary."""
    ops = np.asarray(result["op_s"]) * 1e3
    totals = [a + b for a, b in zip(result["setup_s"], result["pass_s"])]
    return {
        "setup_s": statistics.median(result["setup_s"]),
        "total_s": statistics.median(totals),
        "steps_per_s": result["counters"]["hops"] / result["walk_s"],
        "op_ms_p50": float(np.percentile(ops, 50)),
        "op_ms_p90": float(np.percentile(ops, 90)),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(
    counts: tuple[int, int],
    setup: dict[str, list[float]],
    passes: dict[str, list[float]],
    counters: dict[str, float],
    info: dict[str, Any],
) -> dict[str, float]:
    """Per-layer metrics: one set-up's spans plus one pass's spans.

    ``setup``/``passes`` map span names to ``[calls, self s, bytes]``
    summed over ``counts = (set-ups, passes)``; ``counters`` sums the
    programs' own counters over the passes.
    """
    n_setup, n_pass = max(counts[0], 1), max(counts[1], 1)

    def span(name: str, column: int) -> float:
        zero = [0, 0.0, 0]
        return (
            setup.get(name, zero)[column] / n_setup
            + passes.get(name, zero)[column] / n_pass
        )

    def counter(name: str) -> float:
        return counters.get(name, 0) / n_pass

    assignment = info.get("assignment") or {}
    metrics: dict[str, float] = {
        "graph.io.load_s": span("graph.io.load", 1),
        "graph.io.mb": info.get("graph_mb", 0.0) if "graph.io.load" in setup else 0.0,
        "bounding.estimate_s": span("bounding.estimate", 1),
        "framework.init_s": span("framework.init", 1),
        "framework.build_s": span("framework.build", 1),
        "framework.samplers_built": span("framework.build", 0),
        "optimizer.naive_nodes": assignment.get("naive", 0),
        "optimizer.rejection_nodes": assignment.get("rejection", 0),
        "optimizer.alias_nodes": assignment.get("alias", 0),
        "optimizer.used_mb": info.get("used_mb", 0.0),
        "optimizer.adaptive.set_budget_s": span("optimizer.adaptive.set_budget", 1),
        "optimizer.adaptive.samplers_changed": counter(
            "optimizer.adaptive.samplers_changed"
        ),
        "walks.batch.engine_init_s": span("walks.batch.engine_init", 1),
        "walks.batch.walk_s": span("walks.batch.walk_chunk", 1),
        "walks.batch.steps": counter("walks.batch.steps"),
    }
    groups = walkers = 0.0
    for kind in ("naive", "rejection", "alias", "fallback"):
        for key in ("groups", "walkers"):
            metrics[f"walks.batch.dispatch.{kind}.{key}"] = counter(
                f"walks.batch.dispatch.{kind}.{key}"
            )
        groups += counter(f"walks.batch.dispatch.{kind}.groups")
        walkers += counter(f"walks.batch.dispatch.{kind}.walkers")
    metrics["walks.batch.walkers_per_group"] = walkers / groups if groups else 0.0
    hits, misses = counter("walks.cache.hits"), counter("walks.cache.misses")
    metrics["walks.cache.hits"] = hits
    metrics["walks.cache.misses"] = misses
    metrics["walks.cache.evictions"] = counter("walks.cache.evictions")
    metrics["walks.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for kernel in KERNEL_NAMES:
        name = f"walks.kernels.{kernel}"
        metrics[f"{name}.calls"] = span(name, 0)
        metrics[f"{name}.self_s"] = span(name, 1)
        metrics[f"{name}.mb"] = span(name, 2) / 1e6
    steps = counter("scheduler.steps")
    loads = counter("sharded.shard_loads")
    metrics.update(
        {
            "walks.scheduler.self_s": span("walks.scheduler", 1),
            "walks.scheduler.bucket_visits": counter("sharded.bucket_visits"),
            "walks.scheduler.crossings": counter("sharded.crossings"),
            "graph.sharded.open_s": span("graph.sharded.open", 1),
            "graph.sharded.read_s": span("graph.sharded.verify", 1)
            + span("graph.sharded.read_shard", 1),
            "graph.sharded.loads": loads,
            "graph.sharded.evictions": counter("sharded.shard_evictions"),
            "graph.sharded.mb_read": counter("sharded.shard_bytes_read") / 1e6,
            "graph.sharded.loads_per_kstep": loads / (steps / 1e3) if steps else 0.0,
            "walks.parallel.self_s": span("walks.parallel", 1),
            "walks.parallel.chunks": counter("walks.parallel.chunks"),
            "walks.parallel.retries": counter("walks.parallel.retries"),
            "walks.parallel.dead_letters": counter("walks.parallel.dead_letters"),
        }
    )
    return metrics


def load_graph(inputs: Path) -> CSRGraph:
    """The workload's graph, for validation outside the measured process."""
    return load_csr_npz(inputs / "graph.npz")
