"""Checkpoint/resume for chunked walk generation.

Format: an append-only JSON-lines file.  The first line is a header with
the run *signature* (everything that determines the chunk stream: walk
counts, lengths, chunking, graph size, and the per-chunk RNG seeds are
checked chunk-by-chunk); each subsequent line is one completed chunk::

    {"kind": "header", "signature": {...}}
    {"kind": "chunk", "chunk": 3, "seed": 123, "nodes": [...], "walks": [[...], ...]}

Appends are flushed and fsync'd, so a killed run loses at most the chunk
being written; a truncated trailing line (the torn-write case) is detected
and ignored on load.  Walks are stored as exact integer lists, which is
what makes resume *bit-identical*: a resumed run replays saved chunks
verbatim and recomputes only the missing ones with their original seeds.
"""

from __future__ import annotations

import json
import os
from typing import Any, Iterable, Sequence

import numpy as np

from ..exceptions import CheckpointError


class WalkCheckpoint:
    """Append-only chunk-result store backed by one JSONL file."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = str(path)

    # ------------------------------------------------------------------
    def exists(self) -> bool:
        """Whether the checkpoint file exists and is non-empty."""
        try:
            return os.path.getsize(self.path) > 0
        except OSError:
            return False

    def start(self, signature: dict) -> None:
        """Write the header for a fresh run (no-op if already present)."""
        if self.exists():
            return
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps({"kind": "header", "signature": signature}) + "\n"
            )
            handle.flush()
            os.fsync(handle.fileno())

    def append(
        self,
        chunk_index: int,
        seed: int,
        nodes: Iterable[int],
        walks: Sequence[Any],
    ) -> None:
        """Persist one completed chunk (flushed + fsync'd)."""
        record = {
            "kind": "chunk",
            "chunk": int(chunk_index),
            "seed": int(seed),
            "nodes": [int(v) for v in nodes],
            "walks": [np.asarray(w).tolist() for w in walks],
        }
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    # ------------------------------------------------------------------
    def load(self, signature: dict) -> dict:
        """Completed chunks as ``{index: (seed, nodes, walks)}``.

        Returns ``{}`` when the file does not exist.  Raises
        :class:`CheckpointError` when the stored header does not match
        ``signature`` (the checkpoint belongs to a different run).  A
        malformed *final* line — an interrupted append — is dropped AND
        truncated away, so later appends start on a clean line instead
        of concatenating onto the torn fragment; malformed earlier lines
        mean real corruption and raise.
        """
        if not self.exists():
            return {}
        with open(self.path, "r", encoding="utf-8") as handle:
            text = handle.read()
        lines = text.splitlines(keepends=True)
        records = []
        offset = 0
        for lineno, raw in enumerate(lines):
            line = raw.rstrip("\r\n")
            if not line.strip():
                offset += len(raw.encode("utf-8"))
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                if lineno == len(lines) - 1:
                    # Torn trailing write from an interrupted run: drop
                    # it on disk too, or the next append would fuse with
                    # the fragment and corrupt the file mid-line.
                    os.truncate(self.path, offset)
                    break
                raise CheckpointError(
                    f"{self.path}: corrupt checkpoint line {lineno + 1}"
                ) from exc
            offset += len(raw.encode("utf-8"))
        if not records:
            return {}  # only a torn fragment existed; file now empty
        if records[0].get("kind") != "header":
            raise CheckpointError(f"{self.path}: missing checkpoint header")
        stored = records[0].get("signature")
        if stored != signature:
            raise CheckpointError(
                f"{self.path}: checkpoint belongs to a different run "
                f"(stored signature {stored!r}, expected {signature!r})"
            )
        from ..walks.corpus import as_walk  # walks imports resilience

        completed: dict = {}
        for record in records[1:]:
            if record.get("kind") != "chunk":
                raise CheckpointError(
                    f"{self.path}: unexpected record kind {record.get('kind')!r}"
                )
            walks = [as_walk(w) for w in record["walks"]]
            completed[int(record["chunk"])] = (
                int(record["seed"]),
                [int(v) for v in record["nodes"]],
                walks,
            )
        return completed
