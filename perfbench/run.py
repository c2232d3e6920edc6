"""Whole-pipeline benchmark of the memory-aware second-order walk system.

Usage, from the repository root::

    python3 perfbench/run.py --workload n2v-corpus --seed 1 --seconds 30 --trace 0

Writes the workload's inputs for ``--seed`` (graph ``.npz``, shard
layout), measures the workload in a fresh interpreter (``measure.py``),
validates every walk it produced and prints, as the last line of
standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` runs the workload once
untraced and once traced and reports the per-layer metrics, writing the
Chrome trace to ``perfbench/out/``.  The line before the result is the
run's provenance.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch inputs (removed after each run) and kept results and traces.
WORK_DIR = HERE / ".work"
OUT_DIR = HERE / "out"

#: Seed kept out of all tuning: a change that claims a gain must also
#: hold on it.
HELD_OUT_SEED = 7919

#: Wall-clock cap of one invocation, in seconds; the measuring
#: interpreters share what is left after inputs and validation.
INVOCATION_LIMIT = 170.0
RESERVED_SECONDS = 20.0


def git_commit() -> str | None:
    """The checked-out commit, when the tree is a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def package_version(name: str) -> str | None:
    """Installed version of ``name``, or None when it is absent."""
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return None


def run_measure(inputs: Path, out: Path, seconds: float, trace: int, timeout: float) -> dict:
    """Measure the workload in a fresh interpreter; return its summary.

    The interpreter's standard output is passed on to standard error, so
    that the result stays the last line of standard output.
    """
    done = subprocess.run(
        [
            sys.executable,
            str(HERE / "measure.py"),
            "--inputs", str(inputs),
            "--seconds", repr(seconds),
            "--trace", str(trace),
            "--out", str(out),
        ],
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
        check=True,
    )
    sys.stderr.write(done.stdout)
    return json.loads((out / "summary.json").read_text("utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    sys.path.insert(0, str(HERE))
    import harness

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    work = Path(
        tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=WORK_DIR)
    )
    try:
        params = harness.make_inputs(args.workload, args.seed, work / "inputs")
        kinds = ["untraced"] + (["traced"] if args.trace else [])
        timeout = (INVOCATION_LIMIT - RESERVED_SECONDS) / len(kinds)
        summaries = {
            kind: run_measure(work / "inputs", work / kind, args.seconds, trace, timeout)
            for trace, kind in enumerate(kinds)
        }

        graph = harness.load_graph(work / "inputs")
        invalid = 0
        digests: dict[str, dict[str, str]] = {}
        for kind, summary in summaries.items():
            bad, digests[kind] = harness.check_walks(
                graph, params["length"], work / kind / "walks.npz", summary["labels"]
            )
            invalid += bad
        traced_equal = all(
            digests["traced"][label] == digest
            for label, digest in digests["untraced"].items()
            if label in digests.get("traced", {})
        ) if args.trace else True
        attempted = sum(s["attempted"] for s in summaries.values())
        failed = sum(s["failed"] for s in summaries.values()) + invalid

        untraced = summaries["untraced"]
        if args.trace:
            traced = summaries["traced"]
            metrics = dict(traced["per_layer"])
            metrics["trace.overhead_frac"] = (
                harness.end_to_end(traced)["total_s"]
                / harness.end_to_end(untraced)["total_s"]
                - 1.0
            )
            wanted = spec["per_layer"]
        else:
            metrics = harness.end_to_end(untraced)
            wanted = spec["end_to_end"]
        names = {m["name"] for m in wanted}
        if set(metrics) != names:
            raise RuntimeError(
                f"metrics {sorted(set(metrics) ^ names)} disagree with BENCHMARK.json"
            )

        provenance = {
            "workload": args.workload,
            "seed": args.seed,
            "held_out_seed": HELD_OUT_SEED,
            "python": platform.python_version(),
            "numpy": package_version("numpy"),
            "numba": package_version("numba"),
            "backend": untraced["backend"],
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "git_commit": git_commit(),
            "num_nodes": params["num_nodes"],
            "num_edges": params["num_edges"],
            "budget_bytes": untraced["info"].get("budget_bytes"),
            "assignment": untraced["info"].get("assignment"),
            "inputs_sha256": params["inputs_sha256"],
            "samples": {
                "setups": len(untraced["setup_s"]),
                "passes": len(untraced["pass_s"]),
                "ops": len(untraced["op_s"]),
            },
            "corpus_sha256": hashlib.sha256(
                "".join(digests["untraced"].values()).encode()
            ).hexdigest(),
            "traced_digests_equal": traced_equal if args.trace else None,
        }
        result = {
            "correct": bool(invalid == 0 and traced_equal),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                for m in wanted
            },
        }

        OUT_DIR.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-s{args.seed}-t{args.trace}"
        record = {"provenance": provenance, **result}
        if args.trace:
            record["breakdown"] = summaries["traced"]["breakdown"]
            shutil.copyfile(work / "traced" / "trace.json", OUT_DIR / f"trace-{stem}.json")
        (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=1), "utf-8")

        print(json.dumps({"provenance": provenance}))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
