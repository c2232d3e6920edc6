"""Bucketed bi-block walk scheduling over sharded CSR layouts.

GraSorw's key insight (PAPERS.md): when the graph does not fit in memory,
the unit of I/O should be the *shard*, not the step.  Each walk belongs to
the bucket of the shard holding its current node; the scheduler pins one
shard (most-populated bucket first) and advances **every** walk in that
bucket through the existing step-centric ``@hot_path`` kernels until each
one either finishes, dies at a sink, or crosses a shard boundary.  One
shard load is thus amortised across every resident walk, so I/O cost
scales with shard loads rather than with walk steps.

Walker state lives in per-chunk arrays (trails, current/previous node,
hop depth, active mask).  Buckets are not stored: every round derives
each active walker's bucket from ``shard_of(current)``, so a crossing
walker simply shows up in its new bucket next round.

Determinism contract
--------------------
Out-of-order bucket execution is incompatible with the batch engine's
frontier-wide draw stream, so the scheduler derives **per-walker RNG
streams**: the chunk generator is consumed exactly once, for one recorded
``integers`` call yielding a seed per walker (the determinism sanitizer
fingerprints it), and each walker's stream is pre-drawn at chunk start
into one row of a walkers × length uniform matrix — hop ``k`` reads
column ``k``.  Walk output is therefore a pure function of
``(chunk seed, start order, graph)`` — invariant to the shard geometry,
the residency budget, the scheduling policy, and the worker count.  The
*in-memory reference* is this same scheduler running over a
:class:`~repro.graph.VirtualShardLayout` (zero-copy slices of a
:class:`~repro.graph.CSRGraph`): both modes execute identical code, so
``sharded == in-memory`` is a statement purely about data placement,
pinned by corpus hashes in the test suite.

Second-order exactness across boundaries: a walk leaving shard ``A`` for
shard ``B`` needs the adjacency row of its *previous* node (still in
``A``) to weight its next hop.  The scheduler captures that row —
neighbours, weights, and their sum — while ``A`` is resident and stores
it as the walker's carried row, overwritten at its next crossing.  The
:class:`_ShardView` resolves every row a model asks for from the focus
shard or the carried rows, and fails loudly on anything else.

Policies share one scheduling loop and differ only in which shards a
round visits: ``"bucketed"`` visits the fullest bucket and drains it (the
bi-block schedule above); ``"lockstep"`` is the naive comparator that
visits every populated shard once per round and advances its walks one
hop — bit-identical output (the per-walker streams guarantee it) with
strictly worse I/O counters, which is exactly what
``benchmarks/bench_sharded.py`` measures.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Sequence

import numpy as np

from ..exceptions import WalkError
from ..graph import CSRGraph
from ..graph.sharded import (
    ShardData,
    ShardResidencyManager,
    ShardSource,
    VirtualShardLayout,
)
from ..hotpath import kernel_scope
from ..models import SecondOrderModel
from ..rng import RngLike, ensure_rng
from .batch import _engine_walks, _trim_trails
from .corpus import WalkCorpus
from .kernels import KernelBackend, resolve_backend

SCHEDULING_POLICIES = ("bucketed", "lockstep")


class _CarriedRow(NamedTuple):
    """Adjacency row a crossing walker carries for its off-shard prev node."""

    node: int
    neighbors: np.ndarray
    weights: np.ndarray
    weight_sum: float


class _ShardFlatArray:
    """Global-position view of one shard's flat CSR array.

    Lets the models' vectorised paths index ``graph.indices`` /
    ``graph.weights`` with *global* edge positions while only the focus
    shard is resident; positions outside it raise a typed
    :class:`~repro.exceptions.WalkError` instead of returning garbage.
    """

    __slots__ = ("_values", "_offset", "_role")

    def __init__(self, values: np.ndarray, offset: int, role: str) -> None:
        self._values = values
        self._offset = offset
        self._role = role

    def __getitem__(self, positions: Any) -> np.ndarray:
        local = np.asarray(positions, dtype=np.int64) - self._offset
        if local.size and (
            int(local.min()) < 0 or int(local.max()) >= len(self._values)
        ):
            raise WalkError(
                f"{self._role} position outside the resident shard"
            )
        return np.asarray(self._values[local])


class _ShardView:
    """Graph facade a :class:`~repro.models.SecondOrderModel` samples through.

    Structural arrays (``indptr``, ``degrees``) are the layout's global
    in-RAM copies; adjacency rows resolve to the focus shard or, for a
    crossing walker's previous node, to its carried row.  ``weight_sum``
    is always ``float(np.sum(row))`` — never a cached prefix sum — so the
    virtual and on-disk modes compute bit-identical values.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        degrees: np.ndarray,
        num_nodes: int,
        shard: ShardData,
        carried: "dict[int, _CarriedRow]",
    ) -> None:
        self.indptr = indptr
        self.degrees = degrees
        self.num_nodes = num_nodes
        self._shard = shard
        self._carried = carried
        self.indices = _ShardFlatArray(shard.indices, shard.edge_offset, "indices")
        self.weights = _ShardFlatArray(shard.weights, shard.edge_offset, "weights")

    # ------------------------------------------------------------------
    def _row(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        shard = self._shard
        if shard.start <= v < shard.stop:
            lo = int(self.indptr[v]) - shard.edge_offset
            hi = int(self.indptr[v + 1]) - shard.edge_offset
            return shard.indices[lo:hi], shard.weights[lo:hi]
        row = self._carried.get(int(v))
        if row is None:
            raise WalkError(
                f"node {int(v)} is outside resident shard {shard.index} "
                "and has no carried row"
            )
        return row.neighbors, row.weights

    def degree(self, v: int) -> int:
        """Out-degree of node ``v``."""
        return int(self.degrees[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbour row of ``v`` (shard-resident or carried)."""
        return np.asarray(self._row(int(v))[0])

    def neighbor_weights(self, v: int) -> np.ndarray:
        """Edge weights aligned with :meth:`neighbors`."""
        return np.asarray(self._row(int(v))[1])

    def weight_sum(self, v: int) -> float:
        """Total edge weight out of ``v`` (recomputed, not cached)."""
        shard = self._shard
        if shard.start <= v < shard.stop:
            return float(np.sum(self._row(int(v))[1]))
        row = self._carried.get(int(v))
        if row is None:
            self._row(int(v))  # raises the uniform WalkError
        assert row is not None
        return row.weight_sum

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the stored edge ``u -> v`` exists."""
        return bool(self.has_edges_bulk(int(u), np.asarray([v], dtype=np.int64))[0])

    def edge_weight(self, u: int, v: int, default: float = 0.0) -> float:
        """Weight of edge ``u -> v`` (``default`` when absent)."""
        neighbors, weights = self._row(int(u))
        pos = int(np.searchsorted(neighbors, v))
        if pos < len(neighbors) and int(neighbors[pos]) == int(v):
            return float(weights[pos])
        return float(default)

    def has_edges_bulk(self, u: int, targets: np.ndarray) -> np.ndarray:
        """Boolean membership of each target in ``N(u)``."""
        targets = np.asarray(targets, dtype=np.int64)
        neighbors, _ = self._row(int(u))
        pos = np.searchsorted(neighbors, targets)
        result = np.zeros(len(targets), dtype=bool)
        valid = pos < len(neighbors)
        result[valid] = neighbors[pos[valid]] == targets[valid]
        return result

    def has_edge_pairs(
        self, sources: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        """Elementwise edge existence for parallel source/target arrays.

        One composite-key ``searchsorted``, as in
        :meth:`CSRGraph.has_edge_pairs`, over the gathered rows of the
        unique sources: row ``i`` of the gather holds keys
        ``i * |V| + z``, sorted because each row is.
        """
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        unique, group = np.unique(sources, return_inverse=True)
        rows = [self._row(int(u))[0] for u in unique]
        sizes = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        keys = np.repeat(
            np.arange(len(unique), dtype=np.int64) * self.num_nodes, sizes
        )
        if rows:
            keys += np.concatenate(rows)
        queries = group * self.num_nodes + targets
        pos = np.searchsorted(keys, queries)
        ok = pos < len(keys)
        result = np.zeros(len(queries), dtype=bool)
        result[ok] = keys[pos[ok]] == queries[ok]
        return result


class _ChunkState:
    """Per-chunk walker state as arrays, one entry (or row) per walker."""

    __slots__ = (
        "trails",
        "current",
        "previous",
        "depth",
        "active",
        "scratch",
        "uniforms",
        "carried",
        "degrees",
        "length",
    )

    def __init__(
        self,
        walkers: np.ndarray,
        length: int,
        degrees: np.ndarray,
        seeds: np.ndarray,
    ) -> None:
        n = len(walkers)
        self.trails = np.full((n, length + 1), -1, dtype=np.int64)
        self.trails[:, 0] = walkers
        self.current = walkers.copy()
        self.previous = np.full(n, -1, dtype=np.int64)
        self.depth = np.zeros(n, dtype=np.int64)
        self.active = degrees[walkers] > 0
        self.scratch = np.empty(n, dtype=np.int64)
        # Row i is walker i's private stream: hop k reads column k.
        self.uniforms = np.empty((n, length), dtype=np.float64)
        for row, seed in zip(self.uniforms, seeds):
            np.random.default_rng(int(seed)).random(out=row)
        self.carried: list[_CarriedRow | None] = [None] * n
        self.degrees = degrees
        self.length = length


class BucketedWalkScheduler:
    """Bi-block walk engine over a sharded (or virtual) CSR layout.

    Implements the chunk-engine protocol (``walk_chunk`` / ``counters`` /
    ``reset_chunk_state``), so :func:`repro.walks.parallel_walks` and the
    resilience supervisor drive it exactly like the batch engine —
    checkpoints, retries, dead letters, and the determinism sanitizer all
    apply unchanged.  ``engine_tag``/``layout_signature`` key the
    checkpoint signature so a resume across engines or shard layouts is
    refused.

    Parameters
    ----------
    graph:
        A :class:`~repro.graph.ShardedCSRGraph` (out-of-core), a
        :class:`~repro.graph.CSRGraph` (wrapped into a
        :class:`~repro.graph.VirtualShardLayout` with ``boundaries`` /
        ``num_shards``, default one shard), or a prepared layout.
    model:
        The second-order model; its weight computations run against a
        per-microstep :class:`_ShardView`.
    budget:
        Residency byte budget for pinned shards — a byte count, a
        :class:`~repro.framework.MemoryBudget`, or ``None`` (unbounded).
    max_resident:
        Hard cap K on simultaneously pinned shards (``None`` = no cap).
    backend:
        Kernel backend, as in :class:`~repro.walks.BatchWalkEngine`; every
        backend consumes the identical per-walker uniforms, so the choice
        never changes the corpus.
    policy:
        ``"bucketed"`` (default) or ``"lockstep"`` (naive comparator).
    verify_hashes:
        Verify shard content hashes on first load (on-disk layouts only).
    """

    engine_tag = "bucketed"

    def __init__(
        self,
        graph: "CSRGraph | ShardSource",
        model: SecondOrderModel,
        *,
        budget: Any = None,
        max_resident: int | None = None,
        backend: "KernelBackend | str | None" = None,
        policy: str = "bucketed",
        boundaries: np.ndarray | None = None,
        num_shards: int | None = None,
        verify_hashes: bool = True,
    ) -> None:
        if isinstance(graph, CSRGraph):
            layout: ShardSource = VirtualShardLayout(
                graph, boundaries=boundaries, num_shards=num_shards
            )
        elif hasattr(graph, "shard_spec"):
            layout = graph
        else:
            raise WalkError(
                "graph must be a CSRGraph, ShardedCSRGraph, or shard layout, "
                f"got {type(graph).__name__}"
            )
        if policy not in SCHEDULING_POLICIES:
            raise WalkError(
                f"unknown scheduling policy {policy!r}; choose from "
                f"{SCHEDULING_POLICIES}"
            )
        self.graph = layout
        self.model = model
        self.backend = resolve_backend(backend)
        self.policy = policy
        self.manager = ShardResidencyManager(
            layout,
            budget=budget,
            max_resident=max_resident,
            verify_hashes=verify_hashes,
        )
        self._n = layout.num_nodes
        self._steps = 0
        self._crossings = 0
        self._bucket_visits = 0

    # ------------------------------------------------------------------
    # chunk-engine protocol
    # ------------------------------------------------------------------
    @property
    def layout_signature(self) -> str:
        """The layout's identity, part of the checkpoint signature."""
        return str(self.graph.layout_signature)

    def walk_chunk(
        self,
        nodes: Sequence[int],
        *,
        num_walks: int,
        length: int,
        rng: RngLike = None,
    ) -> list[np.ndarray]:
        """Chunk entry point: walks in start-major order, one per entry.

        Consumes the chunk generator exactly once — a single recorded
        ``integers`` draw of one seed per walker — then pre-draws every
        walker's private stream, so the result is independent of
        scheduling order.
        """
        gen = ensure_rng(rng)
        walkers = np.repeat(np.asarray(nodes, dtype=np.int64), num_walks)
        if len(walkers) == 0 or length == 0:
            trails = np.full((len(walkers), length + 1), -1, dtype=np.int64)
            if len(walkers):
                trails[:, 0] = walkers
            return _trim_trails(trails)
        with kernel_scope("walker_streams"):
            seeds = gen.integers(0, 2**63 - 1, size=len(walkers))
        state = _ChunkState(
            walkers, length, self.graph.degrees.astype(np.int64, copy=False), seeds
        )
        self._schedule(state)
        return _trim_trails(state.trails)

    def walks(
        self,
        *,
        starts: "np.ndarray | list[int] | None" = None,
        num_walks: int = 1,
        length: int = 10,
        rng: RngLike = None,
    ) -> WalkCorpus:
        """``num_walks`` walks per start node (default: every non-isolated
        node), start-major, with scheduler counters on ``metadata``."""
        return _engine_walks(
            self, starts=starts, num_walks=num_walks, length=length, rng=rng
        )

    def counters(self) -> dict:
        """Summable event counts (the cross-worker merge payload).

        ``steps`` counts sampled walker-hops; the ``sharded`` section
        carries the residency manager's load/eviction/bytes-read counters
        plus boundary crossings and bucket visits.  All monotone ints, so
        per-chunk deltas merge associatively and the corpus totals are
        worker-count invariant.
        """
        return {
            "steps": int(self._steps),
            "sharded": {
                **self.manager.counters(),
                "crossings": int(self._crossings),
                "bucket_visits": int(self._bucket_visits),
            },
        }

    def reset_chunk_state(self) -> None:
        """Evict every resident shard so the next chunk is self-contained.

        Called by the chunked runner before each chunk: with a cold
        residency set, the chunk's counter delta (loads, evictions, bytes
        read) is a pure function of the chunk itself — independent of
        which worker ran it or what ran before.
        """
        self.manager.evict_all()

    def stats(self) -> dict:
        """Counters plus configuration gauges (observability snapshot)."""
        stats: dict = {
            "engine": self.engine_tag,
            "backend": self.backend.name,
            "policy": self.policy,
            "num_shards": int(self.graph.num_shards),
            "layout": self.layout_signature,
        }
        if self.manager.max_resident is not None:
            stats["max_resident"] = int(self.manager.max_resident)
        if np.isfinite(self.manager.budget_bytes):
            stats["budget_bytes"] = float(self.manager.budget_bytes)
        stats.update(self.counters())
        return stats

    def describe(self) -> str:
        """One-line scheduling summary (``graph.stats`` style)."""
        c = self.counters()["sharded"]
        return (
            f"{self.policy} scheduler: {self.graph.num_shards} shards, "
            f"steps={self._steps}, loads={c['shard_loads']}, "
            f"evictions={c['shard_evictions']}, "
            f"crossings={c['crossings']}"
        )

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _schedule(self, state: _ChunkState) -> None:
        """Run rounds until every walker is done.

        Each round derives every active walker's bucket from the shard of
        its current node; the policy only chooses which shards the round
        visits.  ``bucketed`` visits the fullest bucket (lowest shard id
        on ties) and drains it; ``lockstep`` visits every populated shard
        once, advancing its walkers one hop.
        """
        drain = self.policy == "bucketed"
        while True:
            frontier = np.flatnonzero(state.active)
            if frontier.size == 0:
                return
            buckets = np.asarray(
                self.graph.shard_of(state.current[frontier]), dtype=np.int64
            )
            if drain:
                shards = [int(np.argmax(np.bincount(buckets)))]
            else:
                shards = np.unique(buckets).tolist()
            for sid in shards:
                shard = self.manager.acquire(sid)
                self._bucket_visits += 1
                members = self._advance(state, shard, frontier[buckets == sid])
                while drain and members.size:
                    members = self._advance(state, shard, members)

    # ------------------------------------------------------------------
    # micro-step
    # ------------------------------------------------------------------
    def _advance(
        self, state: _ChunkState, shard: ShardData, members: np.ndarray
    ) -> np.ndarray:
        """Advance ``members`` (all on ``shard``) one hop.

        Returns the members still active inside the shard; each walker
        that crossed into another shard now carries its previous node's
        row.
        """
        first = members[state.depth[members] == 0]
        later = members[state.depth[members] > 0]
        if first.size:
            self._sample_first(state, shard, first)
        if later.size:
            self._sample_second(state, shard, later)

        state.depth[members] += 1
        state.trails[members, state.depth[members]] = state.scratch[members]
        self.backend.advance_frontier(
            members,
            state.scratch,
            state.previous,
            state.current,
            state.active,
            state.degrees,
        )
        state.active[members] &= state.depth[members] < state.length
        self._steps += len(members)

        walking = members[state.active[members]]
        current = state.current[walking]
        inside = (current >= shard.start) & (current < shard.stop)
        leaving = walking[~inside]
        self._crossings += len(leaving)
        for walker in leaving.tolist():
            state.carried[walker] = self._capture_row(
                shard, int(state.previous[walker])
            )
        return walking[inside]

    def _capture_row(self, shard: ShardData, v: int) -> _CarriedRow:
        """Copy node ``v``'s row out of the resident shard for carrying."""
        lo = int(self.graph.indptr[v]) - shard.edge_offset
        hi = int(self.graph.indptr[v + 1]) - shard.edge_offset
        weights = np.array(shard.weights[lo:hi], dtype=np.float64)
        return _CarriedRow(
            node=v,
            neighbors=np.array(shard.indices[lo:hi], dtype=np.int64),
            weights=weights,
            weight_sum=float(np.sum(weights)),
        )

    def _sample_first(
        self, state: _ChunkState, shard: ShardData, sub: np.ndarray
    ) -> None:
        """First hop: n2e distributions are the raw weight rows."""
        kb = self.backend
        vs, group = kb.regroup_pairs(state.current[sub])
        starts = (self.graph.indptr[vs] - shard.edge_offset).astype(
            np.int64, copy=False
        )
        sizes = (self.graph.indptr[vs + 1] - self.graph.indptr[vs]).astype(
            np.int64
        )
        flat = kb.gather_segments(starts, sizes, shard.weights)
        uniforms = state.uniforms[sub, state.depth[sub]]
        picks, bad = kb.segmented_inverse_cdf(flat, sizes, group, uniforms)
        if bad >= 0:
            raise WalkError(
                f"distribution at node {int(vs[bad])} has zero total mass"
            )
        state.scratch[sub] = shard.indices[starts[group] + picks]

    def _sample_second(
        self, state: _ChunkState, shard: ShardData, sub: np.ndarray
    ) -> None:
        """Later hops: model-weighted e2e distributions via the shard view."""
        kb = self.backend
        keys = state.previous[sub] * self._n + state.current[sub]
        uk, group = kb.regroup_pairs(keys)
        us = uk // self._n
        vs = uk % self._n
        view = _ShardView(
            self.graph.indptr,
            state.degrees,
            self._n,
            shard,
            self._carried_rows(state, shard, sub),
        )
        flat, sizes = self.model.biased_weights_many(view, us, vs)
        uniforms = state.uniforms[sub, state.depth[sub]]
        picks, bad = kb.segmented_inverse_cdf(flat, sizes, group, uniforms)
        if bad >= 0:
            raise WalkError(
                f"distribution at node {int(vs[bad])} has zero total mass"
            )
        starts = (self.graph.indptr[vs] - shard.edge_offset).astype(
            np.int64, copy=False
        )
        state.scratch[sub] = shard.indices[starts[group] + picks]

    def _carried_rows(
        self, state: _ChunkState, shard: ShardData, sub: np.ndarray
    ) -> dict[int, _CarriedRow]:
        """Node-keyed carried rows for the off-shard prev nodes of ``sub``."""
        prev = state.previous[sub]
        outside = (prev < shard.start) | (prev >= shard.stop)
        carried: dict[int, _CarriedRow] = {}
        for walker, u in zip(sub[outside].tolist(), prev[outside].tolist()):
            row = state.carried[walker]
            if row is None or row.node != u:
                raise WalkError(
                    f"walker {walker} crossed into shard {shard.index} "
                    f"without a carried row for prev node {u}"
                )
            carried[u] = row
        return carried


def scheduled_walks(
    graph: "CSRGraph | ShardSource",
    model: SecondOrderModel,
    *,
    starts: "np.ndarray | list[int] | None" = None,
    num_walks: int = 1,
    length: int = 10,
    rng: RngLike = None,
    budget: Any = None,
    max_resident: int | None = None,
    backend: "KernelBackend | str | None" = None,
    policy: str = "bucketed",
    num_shards: int | None = None,
) -> WalkCorpus:
    """One-shot bucketed walk generation (functional wrapper).

    Builds a :class:`BucketedWalkScheduler` and runs ``num_walks`` walks
    per start node; see the class for parameter semantics.
    """
    engine = BucketedWalkScheduler(
        graph,
        model,
        budget=budget,
        max_resident=max_resident,
        backend=backend,
        policy=policy,
        num_shards=num_shards,
    )
    return engine.walks(
        starts=starts, num_walks=num_walks, length=length, rng=rng
    )
