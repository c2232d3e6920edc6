"""Crawl-mode estimators over a partially-observed :class:`RemoteGraph`.

The "Walk, Not Wait" setting: the graph is visible only through a
rate-limited neighbour API, and the estimand must converge in *API
calls*, not node visits.  Two classic estimators are provided:

* :func:`estimate_average_degree` — random-walk degree estimation with
  the harmonic-mean (re-weighting) correction: a simple random walk
  visits ``v`` proportionally to ``d_v``, so the average degree is the
  *harmonic* mean of the visited degrees, ``k / Σ 1/d``;
* :func:`estimate_pagerank` — Monte-Carlo personalised PageRank by
  walks with restart (the crawl-mode analogue of
  :func:`repro.walks.second_order_pagerank`).

:func:`crawl_walks` generates second-order (node2vec) walks by
**rejection sampling**, the paper's low-memory sampler and the natural
crawl-mode choice: one step needs only the static neighbourhood of the
current node (proposal) and of the previous node (the acceptance test's
edge-existence check) — both already fetched by the walk itself, so the
history cache makes the acceptance test free.

Determinism contract: estimator randomness comes from one
:func:`~repro.rng.ensure_rng` stream, and the resilience machinery
(retries, rate limiting, circuit breaking) never consumes it — so for a
fixed seed the output is byte-identical under *any* injected latency,
as long as no fault is persistent enough to change a fetch's outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import CircuitOpenError, TransientTransportError, WalkError
from ..models import Node2VecModel
from ..rng import RngLike, ensure_rng
from .graph import RemoteGraph


@dataclass(frozen=True)
class DegreeEstimate:
    """Result of :func:`estimate_average_degree`.

    ``curve`` holds ``(api_calls, running_estimate)`` pairs recorded
    every ``snapshot_every`` samples — the accuracy-vs-API-calls
    trajectory the crawl benchmark plots.
    """

    average_degree: float
    num_samples: int
    api_calls: int
    circuit_waits: int
    curve: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class PageRankEstimate:
    """Result of :func:`estimate_pagerank`.

    ``curve`` holds ``(api_calls, scores_snapshot)`` pairs; snapshots
    are normalised copies, comparable against the exact vector.
    """

    query: int
    scores: np.ndarray
    num_samples: int
    api_calls: int
    truncated_walks: int
    curve: tuple[tuple[int, np.ndarray], ...]


# ----------------------------------------------------------------------
# sampling primitives
# ----------------------------------------------------------------------
def _weighted_choice(
    ids: np.ndarray, weights: np.ndarray, rng: np.random.Generator
) -> int:
    """One draw from the static (first-order) edge distribution.

    Inverse-CDF over the row's cumulative weights; ``-1`` signals a dead
    end (no neighbours or zero total mass).
    """
    if len(ids) == 0:
        return -1
    cum = np.cumsum(weights)
    total = float(cum[-1])
    if total <= 0.0:
        return -1
    pos = int(np.searchsorted(cum, rng.random() * total, side="right"))
    return int(ids[min(pos, len(ids) - 1)])


def _rejection_step(
    rgraph: RemoteGraph,
    model: Node2VecModel,
    prev: int,
    cur: int,
    rng: np.random.Generator,
) -> int:
    """One second-order step by rejection sampling.

    Proposes from the static distribution of ``cur`` and accepts with
    probability ``factor / max_factor`` where ``factor`` is node2vec's
    distance-dependent multiplier — exactly the paper's rejection
    sampler, but the only state it needs is the two neighbourhoods the
    walk has already fetched.
    """
    ids, weights = rgraph.neighborhood(cur)
    max_factor = max(1.0 / model.a, 1.0, 1.0 / model.b)
    while True:
        z = _weighted_choice(ids, weights, rng)
        if z < 0:
            return -1
        if z == prev:
            factor = 1.0 / model.a
        elif rgraph.has_edge(prev, z):
            factor = 1.0
        else:
            factor = 1.0 / model.b
        if rng.random() * max_factor < factor:
            return z


def _wait_out_circuit(rgraph: RemoteGraph, minimum: float = 1e-3) -> None:
    """Sleep (on the client's clock) until the breaker's next probe
    window — the estimator-side answer to an open circuit when the
    needed neighbourhood is not cached."""
    retry_in = rgraph.client.breaker.retry_in()
    rgraph.client.clock.sleep(max(retry_in, minimum))


# ----------------------------------------------------------------------
# walk generation
# ----------------------------------------------------------------------
def crawl_walks(
    rgraph: RemoteGraph,
    *,
    num_walks: int,
    length: int,
    model: Node2VecModel | None = None,
    starts: "np.ndarray | None" = None,
    rng: RngLike = None,
) -> "object":
    """Generate walks over a remote graph; returns a ``WalkCorpus``.

    With ``model=None`` the walks are first-order (simple weighted
    random walks — what the crawl estimators use); with a
    :class:`~repro.models.Node2VecModel` each step after the first is
    the second-order rejection step.

    Degradation: a step that cannot be served — circuit open and the
    neighbourhood not in the history cache — truncates that walk.  The
    corpus stays structurally valid; ``metadata["crawl"]`` records
    ``truncated_walks``, ``stale_hits`` (steps served from cache while
    the circuit was open), and the full API metering, so a degraded
    corpus is visibly degraded.
    """
    from ..walks.corpus import WalkCorpus

    if num_walks < 1 or length < 1:
        raise WalkError("num_walks and length must be positive")
    gen = ensure_rng(rng)
    if starts is None:
        start_nodes = gen.integers(0, rgraph.num_nodes, size=num_walks)
    else:
        start_nodes = np.asarray(starts, dtype=np.int64)
        if len(start_nodes) != num_walks:
            raise WalkError(
                f"starts has {len(start_nodes)} nodes, expected {num_walks}"
            )
    stale_before = rgraph.stale_hits
    truncated = 0
    walks: list[list[int]] = []
    for start in start_nodes:
        walk = [int(start)]
        try:
            while len(walk) < length:
                cur = walk[-1]
                if model is None or len(walk) < 2:
                    ids, weights = rgraph.neighborhood(cur)
                    nxt = _weighted_choice(ids, weights, gen)
                else:
                    nxt = _rejection_step(rgraph, model, walk[-2], cur, gen)
                if nxt < 0:
                    break  # dead end
                walk.append(nxt)
        except (CircuitOpenError, TransientTransportError):
            # Circuit open, or retries exhausted before it tripped —
            # either way the walk cannot advance honestly: truncate.
            truncated += 1
        walks.append(walk)
    corpus = WalkCorpus.from_walks(walks)
    corpus.metadata["crawl"] = {
        "num_walks": int(num_walks),
        "length": int(length),
        "model": "node2vec" if model is not None else "first-order",
        "truncated_walks": int(truncated),
        "stale_hits": int(rgraph.stale_hits - stale_before),
        **rgraph.stats(),
    }
    return corpus


# ----------------------------------------------------------------------
# estimators
# ----------------------------------------------------------------------
def estimate_average_degree(
    rgraph: RemoteGraph,
    *,
    num_samples: int,
    burn_in: int = 10,
    rng: RngLike = None,
    snapshot_every: int | None = None,
) -> DegreeEstimate:
    """Estimate the average degree by crawling a simple random walk.

    The walk's stationary distribution weights node ``v`` by ``d_v``;
    the harmonic mean of visited degrees, ``k / Σ 1/d``, removes the
    bias.  ``burn_in`` initial visits are discarded.  When the circuit
    breaker is open and the walk cannot advance, the estimator sleeps
    (on the injectable clock) until the next probe window and retries —
    crawls wait out outages rather than aborting.
    """
    if num_samples < 1:
        raise WalkError("num_samples must be positive")
    if burn_in < 0:
        raise WalkError("burn_in must be non-negative")
    gen = ensure_rng(rng)
    inverse_sum = 0.0
    collected = 0
    visited = 0
    circuit_waits = 0
    curve: list[tuple[int, float]] = []
    cur = -1
    while collected < num_samples:
        try:
            if cur < 0:
                cur = int(gen.integers(0, rgraph.num_nodes))
            ids, weights = rgraph.neighborhood(cur)
        except (CircuitOpenError, TransientTransportError):
            # Open circuit — or retries exhausted just before it
            # tripped.  Wait for the next probe window and try again.
            _wait_out_circuit(rgraph)
            circuit_waits += 1
            continue
        if len(ids) == 0:
            cur = -1  # isolated node: restart somewhere else
            continue
        visited += 1
        if visited > burn_in:
            inverse_sum += 1.0 / float(len(ids))
            collected += 1
            if (
                snapshot_every is not None
                and (collected % snapshot_every == 0 or collected == num_samples)
            ):
                curve.append((rgraph.api_calls, collected / inverse_sum))
        nxt = _weighted_choice(ids, weights, gen)
        cur = nxt if nxt >= 0 else -1
    estimate = collected / inverse_sum if inverse_sum > 0 else 0.0
    if not curve or curve[-1][0] != rgraph.api_calls:
        curve.append((rgraph.api_calls, estimate))
    return DegreeEstimate(
        average_degree=float(estimate),
        num_samples=int(collected),
        api_calls=rgraph.api_calls,
        circuit_waits=int(circuit_waits),
        curve=tuple(curve),
    )


def estimate_pagerank(
    rgraph: RemoteGraph,
    query: int,
    *,
    decay: float = 0.85,
    max_length: int = 20,
    num_samples: int = 200,
    rng: RngLike = None,
    snapshot_every: int | None = None,
) -> PageRankEstimate:
    """Estimate personalised PageRank of ``query`` by restart walks.

    Each sample walks from ``query``, continuing with probability
    ``decay`` up to ``max_length`` steps; normalised visit counts
    estimate the PageRank vector (Monte-Carlo end-point-free variant).
    A walk interrupted by an open circuit keeps its visits so far and
    counts as truncated — degraded, not discarded.
    """
    if not 0 <= query < rgraph.num_nodes:
        raise WalkError(f"query node {query} out of range")
    if num_samples < 1:
        raise WalkError("num_samples must be positive")
    if not 0.0 < decay < 1.0:
        raise WalkError(f"decay must be in (0, 1), got {decay}")
    if max_length < 1:
        raise WalkError("max_length must be positive")
    gen = ensure_rng(rng)
    scores = np.zeros(rgraph.num_nodes, dtype=np.float64)
    truncated = 0
    curve: list[tuple[int, np.ndarray]] = []
    for sample in range(num_samples):
        cur = query
        scores[cur] += 1.0
        try:
            for _ in range(max_length - 1):
                if gen.random() >= decay:
                    break
                ids, weights = rgraph.neighborhood(cur)
                nxt = _weighted_choice(ids, weights, gen)
                if nxt < 0:
                    break
                cur = nxt
                scores[cur] += 1.0
        except (CircuitOpenError, TransientTransportError):
            truncated += 1
        done = sample + 1
        if (
            snapshot_every is not None
            and (done % snapshot_every == 0 or done == num_samples)
        ):
            snapshot = scores / scores.sum()
            curve.append((rgraph.api_calls, snapshot))
    total = scores.sum()
    if total > 0:
        scores = scores / total
    return PageRankEstimate(
        query=int(query),
        scores=scores,
        num_samples=int(num_samples),
        api_calls=rgraph.api_calls,
        truncated_walks=int(truncated),
        curve=tuple(curve),
    )
