"""Tests for the assignment-aware batch engine and the edge-state cache.

Covers the four dispatch paths (naive / rejection / alias / fallback), the
cache's byte accounting, the determinism contract (worker count and cache
size never change the corpus — hash-pinned), chi-square statistical
equivalence with the scalar engine, exactness and the proposal cap of the
blocked rejection rounds, and dead-end round-tripping through
:class:`WalkCorpus` persistence.
"""

import hashlib
import importlib.util

import numpy as np
import pytest
import scipy.stats

from repro import MemoryAwareFramework, Node2VecModel, SamplerKind
from repro.exceptions import SamplerError, WalkError
from repro.framework.node_samplers import NaiveNodeSampler
from repro.graph import from_edges, powerlaw_cluster_graph
from repro.models import AutoregressiveModel
from repro.walks import (
    BatchWalkEngine,
    EdgeStateCache,
    parallel_walks,
    scheduled_walks,
)
from repro.walks.corpus import WalkCorpus


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster_graph(80, 3, 0.4, rng=7)


@pytest.fixture(scope="module")
def model():
    return Node2VecModel(0.5, 2.0)


@pytest.fixture(scope="module")
def framework(graph, model):
    # A budget small enough to mix sampler kinds.
    return MemoryAwareFramework(graph, model, budget=30_000, rng=0)


def corpus_sha(corpus) -> str:
    payload = "\n".join(" ".join(map(str, w.tolist())) for w in corpus)
    return hashlib.sha256(payload.encode()).hexdigest()


#: Both kernel backends; the numba leg skips where the soft dep is absent.
BACKENDS = [
    "numpy",
    pytest.param(
        "numba",
        marks=pytest.mark.skipif(
            importlib.util.find_spec("numba") is None,
            reason="numba not installed",
        ),
    ),
]


# ----------------------------------------------------------------------
# EdgeStateCache
# ----------------------------------------------------------------------
class TestEdgeStateCache:
    def test_disabled_when_budgetless(self):
        for budget in (None, 0, 0.0):
            cache = EdgeStateCache(budget)
            assert not cache.enabled
            assert not cache.put((0, 1), np.ones(4))
            assert cache.get((0, 1)) is None
            assert cache.used_bytes == 0

    def test_hit_returns_stored_array(self):
        cache = EdgeStateCache(1024)
        weights = np.array([0.5, 1.5, 2.0])
        assert cache.put((3, 4), weights)
        assert cache.get((3, 4)) is weights
        assert cache.hits == 1 and cache.misses == 0

    def test_lru_eviction_order(self):
        entry = np.ones(4)  # 32 bytes
        cache = EdgeStateCache(entry.nbytes * 2)
        cache.put((0, 1), entry)
        cache.put((0, 2), np.ones(4))
        cache.get((0, 1))  # refresh (0, 1): now (0, 2) is LRU
        cache.put((0, 3), np.ones(4))
        assert (0, 1) in cache and (0, 3) in cache
        assert (0, 2) not in cache
        assert cache.evictions == 1

    def test_budget_never_exceeded(self):
        rng = np.random.default_rng(0)
        cache = EdgeStateCache(500)
        for i in range(200):
            cache.put((i, i), np.ones(int(rng.integers(1, 8))))
            assert cache.used_bytes <= cache.budget.total_bytes
        assert cache.peak_bytes <= cache.budget.total_bytes
        assert cache.evictions > 0

    def test_oversized_entry_not_cached(self):
        cache = EdgeStateCache(64)
        kept = np.ones(2)
        assert cache.put((0, 0), kept)
        assert not cache.put((1, 1), np.ones(100))
        assert (1, 1) not in cache
        assert (0, 0) in cache  # existing entries survive the refusal

    def test_replacing_key_releases_old_bytes(self):
        cache = EdgeStateCache(1024)
        cache.put((0, 1), np.ones(64))
        cache.put((0, 1), np.ones(2))
        assert cache.used_bytes == np.ones(2).nbytes

    def test_stats_and_describe(self):
        cache = EdgeStateCache(256)
        cache.put((0, 1), np.ones(4))
        cache.get((0, 1))
        cache.get((9, 9))
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert "edge-state cache" in cache.describe()


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
class TestAssignmentAwareDispatch:
    def test_mixed_assignment_uses_assigned_kinds(self, graph, model, framework):
        samplers = framework.walk_engine.samplers
        present = {
            type(s).__name__ for s in samplers if s is not None
        }
        engine = BatchWalkEngine(graph, model, samplers, cache=10_000)
        corpus = engine.walks(num_walks=4, length=12, rng=1)
        dispatch = engine.stats()["dispatch"]
        if "RejectionNodeSampler" in present:
            assert dispatch["rejection"]["walkers"] > 0
        if "AliasNodeSampler" in present:
            assert dispatch["alias"]["walkers"] > 0
        assert len(corpus) == 4 * int((graph.degrees > 0).sum())

    def test_all_naive_without_samplers(self, graph, model):
        engine = BatchWalkEngine(graph, model)
        engine.walks(num_walks=2, length=8, rng=0)
        dispatch = engine.stats()["dispatch"]
        assert dispatch["naive"]["walkers"] > 0
        assert dispatch["rejection"]["walkers"] == 0
        assert dispatch["alias"]["walkers"] == 0

    def test_custom_sampler_routes_to_fallback(self, graph, model):
        class OpaqueSampler(NaiveNodeSampler):
            kind = None  # outside the built-in trio

        samplers = [
            OpaqueSampler(graph, model, v) if graph.degree(v) > 0 else None
            for v in range(graph.num_nodes)
        ]
        engine = BatchWalkEngine(graph, model, samplers)
        corpus = engine.walks(num_walks=2, length=6, rng=0)
        dispatch = engine.stats()["dispatch"]
        assert dispatch["fallback"]["walkers"] > 0
        assert dispatch["naive"]["walkers"] == 0
        for walk in corpus:
            for a, b in zip(walk, walk[1:]):
                assert graph.has_edge(int(a), int(b))

    def test_walks_follow_edges_every_kind(self, graph, model, framework):
        engine = framework.batch_engine(cache_budget=5_000)
        corpus = engine.walks(num_walks=3, length=15, rng=2)
        for walk in corpus:
            for a, b in zip(walk, walk[1:]):
                assert graph.has_edge(int(a), int(b))

    def test_sampler_count_mismatch_rejected(self, graph, model):
        with pytest.raises(WalkError):
            BatchWalkEngine(graph, model, [None] * 3)

    def test_metadata_counters_on_corpus(self, framework):
        engine = framework.batch_engine(cache_budget=8_000)
        corpus = engine.walks(num_walks=2, length=10, rng=3)
        assert corpus.metadata["engine"] == "batch"
        assert corpus.metadata["steps"] > 0
        assert set(corpus.metadata["dispatch"]) == {
            "naive", "rejection", "alias", "fallback",
        }
        cache_stats = corpus.metadata["cache"]
        assert cache_stats["hits"] + cache_stats["misses"] >= 0
        assert cache_stats["used_bytes"] <= cache_stats["budget_bytes"]


# ----------------------------------------------------------------------
# cache behaviour under real walk load
# ----------------------------------------------------------------------
class TestCacheUnderLoad:
    def test_budget_respected_during_walks(self, graph, model):
        fw = MemoryAwareFramework.memory_unaware(
            graph, model, SamplerKind.NAIVE, rng=0
        )
        engine = BatchWalkEngine(
            graph, model, fw.walk_engine.samplers, cache=2_000
        )
        engine.walks(num_walks=10, length=25, rng=4)
        stats = engine.cache.stats()
        assert stats["evictions"] > 0  # budget actually binds
        assert stats["peak_bytes"] <= stats["budget_bytes"]
        assert stats["used_bytes"] <= stats["budget_bytes"]

    def test_cache_size_never_changes_output(self, graph, model):
        fw = MemoryAwareFramework.memory_unaware(
            graph, model, SamplerKind.NAIVE, rng=0
        )
        samplers = fw.walk_engine.samplers
        reference = None
        for budget in (0, 1_000, 50_000, 10**8):
            engine = BatchWalkEngine(graph, model, samplers, cache=budget)
            corpus = engine.walks(num_walks=5, length=20, rng=5)
            digest = corpus_sha(corpus)
            if reference is None:
                reference = digest
            assert digest == reference

    def test_hot_states_hit(self, graph, model):
        fw = MemoryAwareFramework.memory_unaware(
            graph, model, SamplerKind.NAIVE, rng=0
        )
        engine = BatchWalkEngine(
            graph, model, fw.walk_engine.samplers, cache=10**7
        )
        engine.walks(num_walks=20, length=30, rng=6)
        stats = engine.cache.stats()
        assert stats["hits"] > stats["misses"]
        assert 0.5 < stats["hit_rate"] <= 1.0


# ----------------------------------------------------------------------
# determinism (hash-pinned)
# ----------------------------------------------------------------------
class TestBatchDeterminism:
    PINNED = "672a82d955da500a064dc05f6e5d0f66b7211dd456abb4b4be66a3f0683ca5cf"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pinned_corpus_hash(self, framework, backend):
        # The pin holds for every kernel backend: uniforms are drawn by
        # the engine driver, so a compiled backend consumes the identical
        # RNG stream and must reproduce the identical corpus.
        engine = framework.batch_engine(cache_budget=10_000, backend=backend)
        corpus = parallel_walks(
            engine, num_walks=3, length=20, workers=1, chunk_size=16, rng=11
        )
        assert corpus_sha(corpus) == self.PINNED

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("cache_budget", [0, 3_000, 10**8])
    def test_workers_and_cache_never_change_output(
        self, framework, workers, cache_budget
    ):
        engine = framework.batch_engine(cache_budget=cache_budget)
        corpus = parallel_walks(
            engine,
            num_walks=3,
            length=20,
            workers=workers,
            chunk_size=16,
            rng=11,
        )
        assert corpus_sha(corpus) == self.PINNED

    def test_direct_walks_deterministic(self, framework):
        a = framework.batch_engine(cache_budget=0).walks(
            num_walks=2, length=10, rng=9
        )
        b = framework.batch_engine(cache_budget=10**6).walks(
            num_walks=2, length=10, rng=9
        )
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


# ----------------------------------------------------------------------
# statistical equivalence (chi-square)
# ----------------------------------------------------------------------
class TestChiSquareEquivalence:
    @staticmethod
    def _transition_table(corpus, contexts):
        """next-node Counter per requested ``(u, v)`` context."""
        counts = corpus.second_order_transition_counts()
        return {ctx: counts.get(ctx, {}) for ctx in contexts}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_scalar_vs_batch_chi_square(self, graph, model, framework, backend):
        """Two-sample chi-square on next-step counts: p > 0.01.

        Both engines are run on the same assignment; their transition
        counts out of the hottest contexts are compared with a chi-square
        homogeneity test.  Deterministic via fixed seeds.
        """
        num_walks, length = 40, 25
        scalar = WalkCorpus.from_walks(
            framework.generate_walks(num_walks=num_walks, length=length, rng=21)
        )
        batch = framework.batch_engine(
            cache_budget=10_000, backend=backend
        ).walks(num_walks=num_walks, length=length, rng=22)

        scalar_counts = scalar.second_order_transition_counts()
        batch_counts = batch.second_order_transition_counts()
        # Hottest shared contexts, by combined sample count.
        shared = sorted(
            set(scalar_counts) & set(batch_counts),
            key=lambda ctx: -(
                sum(scalar_counts[ctx].values())
                + sum(batch_counts[ctx].values())
            ),
        )[:5]
        assert shared, "no common transition contexts sampled"

        pvalues = []
        for u, v in shared:
            support = graph.neighbors(v)
            s = np.array([scalar_counts[(u, v)].get(int(z), 0) for z in support])
            b = np.array([batch_counts[(u, v)].get(int(z), 0) for z in support])
            if s.sum() < 50 or b.sum() < 50:
                continue
            table = np.stack([s, b])
            keep = table.sum(axis=0) > 0
            _, p, _, _ = scipy.stats.chi2_contingency(table[:, keep])
            pvalues.append(p)
        assert pvalues, "no context had enough samples"
        # Fisher's combined test across contexts: one global verdict.
        _, combined = scipy.stats.combine_pvalues(pvalues, method="fisher")
        assert combined > 0.01

    def test_batch_matches_exact_distribution_chi_square(self, graph, model):
        """Goodness-of-fit of the batch engine against the exact e2e law."""
        engine = BatchWalkEngine(graph, model, cache=10**6)
        corpus = engine.walks(num_walks=60, length=25, rng=23)
        counts = corpus.second_order_transition_counts()
        pvalues = []
        for (u, v), counter in counts.items():
            n = sum(counter.values())
            if n < 300:
                continue
            weights = model.biased_weights(graph, u, v)
            expected = n * weights / weights.sum()
            observed = np.array(
                [counter.get(int(z), 0) for z in graph.neighbors(v)],
                dtype=np.float64,
            )
            keep = expected > 1e-12
            _, p = scipy.stats.chisquare(observed[keep], expected[keep])
            pvalues.append(p)
        assert len(pvalues) >= 3
        _, combined = scipy.stats.combine_pvalues(pvalues, method="fisher")
        assert combined > 0.01


# ----------------------------------------------------------------------
# blocked rejection rounds: exactness and the proposal cap
# ----------------------------------------------------------------------
def _tv_noise(p: np.ndarray, n: int) -> float:
    """Expected total-variation distance between ``p`` and an ``n``-sample
    empirical law drawn from it (normal approximation per outcome)."""
    return float(0.5 * np.sqrt(2.0 * p * (1.0 - p) / (np.pi * n)).sum())


class TestBlockedRejection:
    START = 11  # degree 6, neighbours of degree 3..20

    @staticmethod
    def _engine(graph, model, **kwargs):
        fw = MemoryAwareFramework.memory_unaware(
            graph, model, SamplerKind.REJECTION, rng=0
        )
        return BatchWalkEngine(graph, model, fw.walk_engine.samplers, **kwargs)

    @pytest.mark.parametrize(
        "e2e_model",
        [Node2VecModel(0.25, 4.0), AutoregressiveModel(0.6)],
        ids=["node2vec-global-bound", "autoregressive-per-edge"],
    )
    def test_total_variation_against_exact_law(self, graph, e2e_model):
        """Every second hop out of one start node, all-rejection assignment.

        node2vec a=0.25, b=4 accepts most proposals with probability 1/16
        under the global bound 4, so walkers reach deep proposal blocks;
        the autoregressive model has no global bound and uses each
        sampler's per-edge acceptance factor.
        """
        engine = self._engine(graph, e2e_model)
        assert (engine._global_bound is None) == isinstance(
            e2e_model, AutoregressiveModel
        )
        u = self.START
        corpus = engine.walks(
            starts=np.full(20_000, u), num_walks=1, length=2, rng=5
        )
        counts = corpus.second_order_transition_counts()
        separated = 0
        for v in graph.neighbors(u):
            counter = counts[(u, int(v))]
            n = sum(counter.values())
            assert n > 2_000
            exact = e2e_model.e2e_distribution(graph, u, int(v))
            observed = np.array(
                [counter.get(int(z), 0) for z in graph.neighbors(int(v))]
            ) / n
            bound = 3.0 * _tv_noise(exact, n)
            assert 0.5 * np.abs(observed - exact).sum() < bound
            proposal = graph.weights[graph.indptr[v] : graph.indptr[v + 1]]
            proposal = proposal / proposal.sum()
            separated += 0.5 * np.abs(proposal - exact).sum() > bound
        # The bound has power: it rejects the unfiltered proposal law.
        assert separated >= 3

    def test_tiny_cap_raises(self, graph):
        engine = self._engine(
            graph, Node2VecModel(0.25, 4.0), max_rejection_rounds=1
        )
        with pytest.raises(SamplerError, match="1 proposals per walker"):
            engine.walks(
                starts=np.full(200, self.START), num_walks=1, length=2, rng=0
            )

    def test_cap_of_one_suffices_when_every_proposal_accepts(self, graph):
        # a = b = 1: every ratio is 1 under bound 1, so round 0 accepts all.
        flat = Node2VecModel(1.0, 1.0)
        kwargs = dict(num_walks=2, length=6, rng=3)
        capped = self._engine(graph, flat, max_rejection_rounds=1).walks(**kwargs)
        free = self._engine(graph, flat).walks(**kwargs)
        assert corpus_sha(capped) == corpus_sha(free)

    def test_engine_emits_int32_walks(self, graph, model, framework):
        engine = framework.batch_engine(cache_budget=0)
        walks = engine.walk_chunk([0, 1, 2], num_walks=2, length=5, rng=0)
        assert {w.dtype for w in walks} == {np.dtype(np.int32)}
        corpus = WalkCorpus.from_walks(walks)
        assert all(a is b for a, b in zip(corpus, walks))  # no copy
        scheduled = scheduled_walks(graph, model, num_walks=2, length=5, rng=0)
        assert {w.dtype for w in scheduled} == {np.dtype(np.int32)}


# ----------------------------------------------------------------------
# dead ends round-trip (scalar vs batch, WalkCorpus persistence)
# ----------------------------------------------------------------------
class TestDeadEndRoundTrip:
    @pytest.fixture()
    def sink_graph(self):
        # 0-1-2 chain into sink 3; node 4 isolated; directed.
        return from_edges(
            [(0, 1), (1, 2), (2, 3), (0, 2)],
            undirected=False,
            num_nodes=5,
        )

    def test_trails_identical_semantics(self, sink_graph, model):
        starts = [0, 3, 4]
        scalar_fw = MemoryAwareFramework.memory_unaware(
            sink_graph, model, SamplerKind.NAIVE, rng=0
        )
        scalar_walks = [
            scalar_fw.walk_engine.walk(s, 10, np.random.default_rng(i))
            for i, s in enumerate(starts)
        ]
        engine = BatchWalkEngine(sink_graph, model)
        batch = engine.walks(starts=starts, num_walks=1, length=10, rng=0)

        for walk in list(batch) + scalar_walks:
            assert (walk >= 0).all()  # no padding leaks out
        # Dead-end starts yield the bare start node on both engines.
        assert list(batch[1]) == [3]
        assert list(batch[2]) == [4]
        assert list(scalar_walks[1]) == [3]
        assert list(scalar_walks[2]) == [4]
        # Walks from 0 always end at the sink, fully trimmed.
        assert int(batch[0][-1]) == 3
        assert len(batch[0]) <= 4  # 0 → {1,2} → ... → 3 is at most 4 nodes

    def test_corpus_save_load_round_trip(self, sink_graph, model, tmp_path):
        engine = BatchWalkEngine(sink_graph, model)
        corpus = engine.walks(
            starts=[0, 0, 3, 4], num_walks=2, length=10, rng=1
        )
        path = tmp_path / "walks.txt"
        corpus.save(path)
        loaded = WalkCorpus.load(path)
        assert len(loaded) == len(corpus)
        for original, restored in zip(corpus, loaded):
            assert np.array_equal(original, restored)


# ----------------------------------------------------------------------
# NodeSampler batch APIs
# ----------------------------------------------------------------------
class TestSampleBatchAPIs:
    @pytest.fixture(scope="class", params=list(SamplerKind))
    def sampler(self, request, graph, model):
        fw = MemoryAwareFramework.memory_unaware(
            graph, model, request.param, rng=0
        )
        v = int(graph.degrees.argmax())
        return fw.sampler(v)

    def test_sample_batch_matches_support(self, graph, sampler):
        v = sampler.node
        u = int(graph.neighbors(v)[0])
        draws = sampler.sample_batch(u, 500, np.random.default_rng(0))
        assert draws.shape == (500,)
        assert draws.dtype == np.int64
        assert set(np.unique(draws)) <= set(int(z) for z in graph.neighbors(v))

    def test_sample_first_batch_matches_support(self, graph, sampler):
        v = sampler.node
        draws = sampler.sample_first_batch(300, np.random.default_rng(1))
        assert draws.shape == (300,)
        assert set(np.unique(draws)) <= set(int(z) for z in graph.neighbors(v))

    def test_sample_batch_statistics(self, graph, model, sampler):
        v = sampler.node
        u = int(graph.neighbors(v)[0])
        weights = model.biased_weights(graph, u, v)
        exact = weights / weights.sum()
        draws = sampler.sample_batch(u, 20_000, np.random.default_rng(2))
        support = graph.neighbors(v)
        empirical = np.array(
            [(draws == int(z)).mean() for z in support]
        )
        assert 0.5 * np.abs(empirical - exact).sum() < 0.03
