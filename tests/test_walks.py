"""Unit tests for walk corpora and benchmark tasks."""

import numpy as np
import pytest

from repro import (
    MemoryAwareFramework,
    Node2VecModel,
    WalkCorpus,
    node2vec_walk_task,
    second_order_pagerank,
)
from repro.exceptions import WalkError


@pytest.fixture
def framework(toy_graph, nv_model):
    return MemoryAwareFramework(toy_graph, nv_model, budget=1e4)


class TestWalkCorpus:
    def test_from_walks(self):
        corpus = WalkCorpus.from_walks([[0, 1, 2], [2, 1]])
        assert len(corpus) == 2
        assert corpus.total_steps == 3
        assert corpus.average_length == pytest.approx(1.5)

    def test_add_and_iterate(self):
        corpus = WalkCorpus()
        corpus.add(np.array([0, 1]))
        assert len(list(corpus)) == 1
        assert list(corpus[0]) == [0, 1]

    def test_visit_counts(self):
        corpus = WalkCorpus.from_walks([[0, 1, 0], [1, 2]])
        counts = corpus.visit_counts(3)
        assert list(counts) == [2, 2, 1]

    def test_second_order_transition_counts(self):
        corpus = WalkCorpus.from_walks([[0, 1, 2, 1], [0, 1, 2, 3]])
        counts = corpus.second_order_transition_counts()
        assert counts[(0, 1)][2] == 2
        assert counts[(1, 2)][1] == 1
        assert counts[(1, 2)][3] == 1

    def test_context_pairs_window(self):
        corpus = WalkCorpus.from_walks([[0, 1, 2]])
        pairs = list(corpus.context_pairs(window=1))
        assert (0, 1) in pairs and (1, 0) in pairs and (1, 2) in pairs
        assert (0, 2) not in pairs
        wide = list(corpus.context_pairs(window=2))
        assert (0, 2) in wide

    def test_context_pairs_invalid_window(self):
        corpus = WalkCorpus.from_walks([[0, 1]])
        with pytest.raises(WalkError):
            list(corpus.context_pairs(window=0))

    def test_save_load_round_trip(self, tmp_path):
        corpus = WalkCorpus.from_walks([[0, 1, 2], [3, 4]])
        path = tmp_path / "walks.txt"
        corpus.save(path)
        loaded = WalkCorpus.load(path)
        assert len(loaded) == 2
        assert list(loaded[1]) == [3, 4]

    def test_empty_corpus_stats(self):
        corpus = WalkCorpus()
        assert corpus.average_length == 0.0
        assert corpus.total_steps == 0

    def test_walks_stored_as_int32(self, tmp_path):
        corpus = WalkCorpus.from_walks([[0, 1, 2], np.array([3, 4], np.int64)])
        corpus.add(np.array([5, 6], dtype=np.uint64))
        path = tmp_path / "walks.txt"
        corpus.save(path)
        for walks in (corpus, WalkCorpus.load(path)):
            assert [w.dtype for w in walks] == [np.dtype(np.int32)] * 3
        assert [w.tolist() for w in WalkCorpus.load(path)] == [
            [0, 1, 2], [3, 4], [5, 6],
        ]

    def test_int32_walk_is_not_copied(self):
        walk = np.array([0, 1, 2], dtype=np.int32)
        corpus = WalkCorpus()
        corpus.add(walk)
        assert corpus[0] is walk

    @pytest.mark.parametrize(
        "walk",
        [
            [0, 2**31],
            np.array([0, 2**31], dtype=np.int64),
            np.array([-(2**31) - 1, 0], dtype=np.int64),
            np.array([2**63], dtype=np.uint64),
            [2**70],
        ],
    )
    def test_ids_outside_int32_raise(self, walk, tmp_path):
        with pytest.raises(WalkError, match="int32"):
            WalkCorpus.from_walks([walk])
        with pytest.raises(WalkError, match="int32"):
            WalkCorpus().add(walk)
        path = tmp_path / "walks.txt"
        path.write_text(" ".join(map(str, np.asarray(walk).tolist())) + "\n")
        with pytest.raises(WalkError, match="int32"):
            WalkCorpus.load(path)

    def test_int32_bounds_accepted(self):
        corpus = WalkCorpus.from_walks([[-(2**31), 2**31 - 1]])
        assert corpus[0].tolist() == [-(2**31), 2**31 - 1]


class TestNode2VecTask:
    def test_walks_generated(self, framework, rng):
        result = node2vec_walk_task(
            framework.walk_engine, num_walks=3, length=8, rng=rng
        )
        assert result.num_walks == 3 * 4
        assert result.sampling_seconds > 0
        assert all(len(w) == 9 for w in result.corpus)

    def test_default_parameters_match_paper(self, framework, rng):
        result = node2vec_walk_task(framework.walk_engine, rng=rng)
        assert result.num_walks == 10 * 4  # 10 walks per node
        assert len(result.corpus[0]) == 81  # length 80


class TestSecondOrderPageRank:
    def test_scores_normalised(self, framework, rng):
        result = second_order_pagerank(
            framework.walk_engine, 0, num_samples=200, rng=rng
        )
        assert result.scores.sum() == pytest.approx(1.0)
        assert result.num_samples == 200

    def test_query_node_has_high_score(self, framework, rng):
        result = second_order_pagerank(
            framework.walk_engine, 0, num_samples=500, rng=rng
        )
        # The query node is visited at every restart → top score.
        assert result.top(1)[0][0] == 0

    def test_default_sample_size_is_4v(self, framework, rng):
        result = second_order_pagerank(framework.walk_engine, 1, rng=rng)
        assert result.num_samples == 4 * 4

    def test_invalid_query(self, framework, rng):
        with pytest.raises(WalkError):
            second_order_pagerank(framework.walk_engine, 99, rng=rng)

    def test_invalid_sample_count(self, framework, rng):
        with pytest.raises(WalkError):
            second_order_pagerank(framework.walk_engine, 0, num_samples=0, rng=rng)

    def test_top_k(self, framework, rng):
        result = second_order_pagerank(
            framework.walk_engine, 0, num_samples=200, rng=rng
        )
        top = result.top(2)
        assert len(top) == 2
        assert top[0][1] >= top[1][1]

    def test_scores_concentrate_near_query(self, medium_graph, rng):
        fw = MemoryAwareFramework(
            medium_graph, Node2VecModel(1.0, 1.0), budget=1e6
        )
        result = second_order_pagerank(
            fw.walk_engine, 5, num_samples=400, max_length=10, rng=rng
        )
        # Personalised PageRank mass should decay with distance: the query
        # itself dominates.
        assert result.scores[5] == result.scores.max()
