"""Measure one workload in a fresh interpreter.

Started by ``run.py`` once per run, so that peak resident memory belongs
to this run alone::

    python3 perfbench/measure.py --inputs DIR --seconds 30 --trace 0 --out DIR

Writes ``summary.json`` (timings, counters, per-layer metrics when
traced), ``walks.npz`` (every walk, for validation by the caller) and,
when traced, ``trace.json`` (Chrome trace events) into ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import tracing  # noqa: E402

import repro.framework.framework as framework_module  # noqa: E402
from repro.walks.kernels import resolve_backend  # noqa: E402


def measure(inputs: Path, seconds: float, trace: bool, out: Path) -> dict:
    """Run the workload in ``inputs``; write and return its summary."""
    recorder = tracing.Recorder() if trace else tracing.OFF
    backend = resolve_backend("numpy")
    with contextlib.ExitStack() as stack:
        if trace:
            backend = tracing.traced_backend(recorder, backend)
            # The framework's phases, seen from its own module namespace.
            stack.enter_context(
                tracing.patched(
                    framework_module,
                    "estimate_bounding_constants",
                    lambda fn: recorder.wrap("bounding.estimate", fn),
                )
            )
            stack.enter_context(
                tracing.patched(
                    framework_module,
                    "build_node_sampler",
                    lambda fn: recorder.wrap("framework.build", fn),
                )
            )
        result = harness.Runner(inputs, seconds, recorder, backend).run()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out.mkdir(parents=True, exist_ok=True)
    arrays: dict[str, np.ndarray] = {}
    for i, (_, starts, walks) in enumerate(result.records):
        lengths, flat = harness.pack_walks(walks)
        arrays[f"s{i}"], arrays[f"l{i}"], arrays[f"w{i}"] = starts, lengths, flat
    np.savez(out / "walks.npz", **arrays)
    summary = {
        "setup_s": result.setup_s,
        "pass_s": result.pass_s,
        "op_s": result.op_s,
        "walk_s": result.walk_s,
        "attempted": result.attempted,
        "failed": result.failed,
        "labels": [label for label, _, _ in result.records],
        "counters": result.counters,
        "info": result.info,
        "backend": backend.name,
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        n_setup, setup = recorder.per_phase("setup")
        n_pass, passes = recorder.per_phase("pass")
        summary["per_layer"] = harness.per_layer(
            (n_setup, n_pass), setup, passes, result.counters, result.info
        )
        summary["breakdown"] = recorder.breakdown()
        recorder.write_chrome_trace(out / "trace.json", {"inputs": str(inputs.name)})
    (out / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    measure(args.inputs, args.seconds, bool(args.trace), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
