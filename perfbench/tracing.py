"""Span recorder and layer wrappers for the traced benchmark run.

Spans are recorded from outside the program: the benchmark wraps the
public callables of each layer (kernel backend, shard layout, sampler
builder, framework phases) and times every call.  A span's *self time* is
its duration minus the durations of the spans it directly encloses, so
the self times of one phase's spans add up exactly to that phase's span.

Everything stays in memory until :meth:`Recorder.write_chrome_trace`,
which emits Chrome trace-event JSON (opens in Perfetto or
``chrome://tracing``).  The untraced run uses :data:`OFF`, whose spans
and wrappers are no-ops, so end-to-end metrics carry no tracing cost.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import time
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

#: Span-name prefix of the root spans that delimit one phase.
PHASE_PREFIX = "phase."

#: Events kept for the Chrome export; aggregates always cover every span.
MAX_EXPORTED_EVENTS = 200_000


def array_bytes(values: Any) -> int:
    """Bytes of an ndarray, or of the ndarrays in a tuple of values."""
    if isinstance(values, np.ndarray):
        return values.nbytes
    total = 0
    if isinstance(values, tuple):
        for value in values:
            if isinstance(value, np.ndarray):
                total += value.nbytes
    return total


class Recorder:
    """In-memory span recorder with per-phase self-time aggregation.

    ``phases`` holds one ``(phase name, duration ns, {span name: [calls,
    self ns, bytes]})`` entry per completed root span; ``events`` holds
    ``(name, start ns, duration ns, depth)`` for the Chrome export.
    """

    def __init__(self) -> None:
        self._stack: list[list[Any]] = []  # [name, start_ns, child_ns]
        self._phase: dict[str, list[int]] | None = None
        self.phases: list[tuple[str, int, dict[str, list[int]]]] = []
        self.events: list[tuple[str, int, int, int]] = []
        self.dropped_events = 0
        self._closed: list[int] = [0, 0, 0]

    def begin(self, name: str) -> None:
        """Open a span; a span opened with nothing open starts a phase."""
        if not self._stack:
            self._phase = {}
        self._stack.append([name, time.perf_counter_ns(), 0])

    def end(self) -> None:
        """Close the innermost span."""
        stop = time.perf_counter_ns()
        stack = self._stack
        name, start, child = stack.pop()
        duration = stop - start
        if stack:
            stack[-1][2] += duration
        phase = self._phase
        assert phase is not None
        entry = phase.get(name)
        if entry is None:
            entry = phase[name] = [0, 0, 0]
        entry[0] += 1
        entry[1] += duration - child
        self._closed = entry
        if len(self.events) < MAX_EXPORTED_EVENTS:
            self.events.append((name, start, duration, len(stack)))
        else:
            self.dropped_events += 1
        if not stack:
            self.phases.append((name, duration, phase))
            self._phase = None

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Context-manager form of :meth:`begin` / :meth:`end`."""
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def wrap(
        self, name: str, fn: Callable[..., Any], *, count_bytes: bool = False
    ) -> Callable[..., Any]:
        """``fn`` recording one span per call, plus the bytes of its array
        arguments and results when ``count_bytes`` (counted after the span
        closes, so they do not inflate its time)."""
        begin, end = self.begin, self.end

        def traced(*args: Any, **kwargs: Any) -> Any:
            begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end()
            if count_bytes:
                nbytes = array_bytes(args) + array_bytes(result)
                if kwargs:
                    nbytes += array_bytes(tuple(kwargs.values()))
                self._closed[2] += nbytes
            return result

        return traced

    # ------------------------------------------------------------------
    def per_phase(self, phase: str) -> tuple[int, dict[str, list[float]]]:
        """``(count, {span: [calls, self s, bytes]})`` summed over ``phase``."""
        totals: dict[str, list[float]] = {}
        count = 0
        for name, _, layers in self.phases:
            if name != PHASE_PREFIX + phase:
                continue
            count += 1
            for layer, (calls, self_ns, nbytes) in layers.items():
                entry = totals.setdefault(layer, [0, 0.0, 0])
                entry[0] += calls
                entry[1] += self_ns / 1e9
                entry[2] += nbytes
        return count, totals

    def breakdown(self) -> dict[str, dict[str, Any]]:
        """Mean span and per-layer self seconds per phase kind.

        For each phase the layer self times sum to the phase span (the
        phase's own self time is the benchmark glue between calls).
        """
        out: dict[str, dict[str, Any]] = {}
        for phase in sorted({name for name, _, _ in self.phases}):
            durations = [d for name, d, _ in self.phases if name == phase]
            count, layers = self.per_phase(phase[len(PHASE_PREFIX):])
            out[phase] = {
                "count": count,
                "span_s": sum(durations) / 1e9 / count,
                "self_s": {
                    layer: values[1] / count for layer, values in sorted(layers.items())
                },
            }
        return out

    def write_chrome_trace(self, path: Path, metadata: dict[str, Any]) -> None:
        """Write the recorded spans as Chrome trace-event JSON."""
        origin = min((start for _, start, _, _ in self.events), default=0)
        events = [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (start - origin) / 1e3,
                "dur": duration / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"depth": depth},
            }
            for name, start, duration, depth in self.events
        ]
        payload = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {**metadata, "dropped_events": self.dropped_events},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload), encoding="utf-8")


class _Off:
    """The untraced recorder: every span and wrapper is a no-op."""

    def span(self, name: str) -> contextlib.AbstractContextManager[None]:
        return contextlib.nullcontext()

    def wrap(
        self, name: str, fn: Callable[..., Any], *, count_bytes: bool = False
    ) -> Callable[..., Any]:
        return fn


OFF = _Off()


def traced_backend(recorder: Recorder, base: Any) -> Any:
    """A :class:`KernelBackend` whose seven kernels record spans.

    Built with :func:`dataclasses.replace` on the resolved ``base``, so it
    keeps the base's name (the corpus and checkpoint signatures stay
    unchanged) and is never entered into the backend registry.
    """
    kernels = {
        field.name: recorder.wrap(
            f"walks.kernels.{field.name}", getattr(base, field.name), count_bytes=True
        )
        for field in dataclasses.fields(base)
        if callable(getattr(base, field.name))
    }
    return dataclasses.replace(base, **kernels)


@contextlib.contextmanager
def patched(target: Any, attribute: str, wrapper: Callable[[Any], Any]) -> Iterator[None]:
    """Temporarily replace ``target.attribute`` with ``wrapper(original)``."""
    original = getattr(target, attribute)
    setattr(target, attribute, wrapper(original))
    try:
        yield
    finally:
        setattr(target, attribute, original)
