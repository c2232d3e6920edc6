"""Walk corpora: containers for generated random walks.

Besides bookkeeping, the corpus exposes the empirical second-order
transition counts — the ground truth the statistical tests compare against
each model's exact e2e distribution.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np
import numpy.typing as npt

from ..exceptions import WalkError

#: Node-id dtype of every stored walk: half the bytes of ``int64`` per hop.
WALK_DTYPE = np.int32
_ID_RANGE = np.iinfo(WALK_DTYPE)


def as_walk(walk: npt.ArrayLike) -> np.ndarray:
    """``walk`` as a :data:`WALK_DTYPE` array (no copy if it already is one).

    Any array shape is accepted, so an engine can cast its whole trails
    matrix with one range check.  Ids outside the ``int32`` range raise
    :class:`~repro.exceptions.WalkError` instead of wrapping.
    """
    arr = np.asarray(walk)
    if arr.dtype == WALK_DTYPE:
        return arr
    if arr.dtype.kind not in "iu":
        try:
            arr = arr.astype(np.int64)
        except OverflowError as exc:
            raise WalkError(f"walk node id out of int32 range: {exc}") from exc
    if arr.size and (arr.min() < _ID_RANGE.min or arr.max() > _ID_RANGE.max):
        raise WalkError(
            f"walk node ids must fit int32 [{_ID_RANGE.min}, {_ID_RANGE.max}]; "
            f"got range [{arr.min()}, {arr.max()}]"
        )
    return arr.astype(WALK_DTYPE)


@dataclass
class WalkCorpus:
    """A list of random walks over one graph.

    ``failed_chunks`` holds :class:`~repro.resilience.DeadLetter` records
    for worker chunks that exhausted their retries under a dead-letter
    policy — surfaced here instead of silently dropping their walks, so a
    partially failed run is visibly partial (:attr:`is_complete`).

    Walks are stored as :data:`WALK_DTYPE` (``int32``) node-id arrays;
    :meth:`add`, :meth:`from_walks` and :meth:`load` cast on the way in
    and raise :class:`~repro.exceptions.WalkError` for ids that do not
    fit (see :func:`as_walk`).

    ``metadata`` carries generation-time observability counters (engine
    kind, cache hit rates, sampler dispatch tallies) without affecting
    equality of the walks themselves; it is not persisted by :meth:`save`.
    """

    walks: list[np.ndarray] = field(default_factory=list)
    failed_chunks: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    @property
    def is_complete(self) -> bool:
        """Whether every dispatched chunk contributed its walks."""
        return not self.failed_chunks

    @classmethod
    def from_walks(cls, walks: Iterable[npt.ArrayLike]) -> "WalkCorpus":
        """Build a corpus from an iterable of node-id arrays."""
        return cls(walks=[as_walk(w) for w in walks])

    def add(self, walk: npt.ArrayLike) -> None:
        """Append one walk."""
        self.walks.append(as_walk(walk))

    def __len__(self) -> int:
        return len(self.walks)

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.walks)

    def __getitem__(self, index: int) -> np.ndarray:
        return self.walks[index]

    # ------------------------------------------------------------------
    @property
    def total_steps(self) -> int:
        """Total number of edges traversed across all walks."""
        return sum(max(len(w) - 1, 0) for w in self.walks)

    @property
    def average_length(self) -> float:
        """Average steps per walk."""
        if not self.walks:
            return 0.0
        return self.total_steps / len(self.walks)

    def visit_counts(self, num_nodes: int) -> np.ndarray:
        """How many times each node appears across the corpus."""
        counts = np.zeros(num_nodes, dtype=np.int64)
        for walk in self.walks:
            np.add.at(counts, walk, 1)
        return counts

    def second_order_transition_counts(self) -> dict[tuple[int, int], Counter]:
        """Counts of next-node choices keyed by ``(previous, current)``.

        ``result[(u, v)][z]`` counts walk fragments ``u → v → z``; the
        normalised counter is the empirical e2e distribution ``p(z | v, u)``.
        """
        counts: dict[tuple[int, int], Counter] = {}
        for walk in self.walks:
            for t in range(2, len(walk)):
                key = (int(walk[t - 2]), int(walk[t - 1]))
                counts.setdefault(key, Counter())[int(walk[t])] += 1
        return counts

    def context_pairs(self, window: int) -> Iterator[tuple[int, int]]:
        """Skip-gram (centre, context) pairs within ``window`` hops.

        Feeds the embedding trainer; mirrors word2vec's corpus scan.
        """
        if window < 1:
            raise WalkError(f"window must be >= 1, got {window}")
        for walk in self.walks:
            n = len(walk)
            for i in range(n):
                lo, hi = max(0, i - window), min(n, i + window + 1)
                for j in range(lo, hi):
                    if j != i:
                        yield int(walk[i]), int(walk[j])

    # ------------------------------------------------------------------
    def save(self, path: str | os.PathLike) -> None:
        """Write one whitespace-separated walk per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for walk in self.walks:
                handle.write(" ".join(map(str, walk.tolist())) + "\n")

    @classmethod
    def load(cls, path: str | os.PathLike) -> "WalkCorpus":
        """Read a corpus previously written by :meth:`save`."""
        walks: list[np.ndarray] = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    walks.append(as_walk(line.split()))
        return cls(walks=walks)
