"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 12 --trace 0

Each measurement runs in a fresh interpreter (``perfbench/workloads.py``)
with its own empty cache directory under ``.perfbench-work/`` in the
checkout, which is removed afterwards.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the workload untraced and then
traced and prints the per-layer metrics, with the tracing overhead taken
from the two; the traced run's spans are written to
``.perfbench-spans/<workload>.jsonl.gz``.  The last line of standard output
is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The exit code is 0 when every output check passed, 1 when one failed and
2 when the benchmark could not run.  ``--workload all`` runs every
workload and prints one table row per workload.  Seeds: 1 is the default,
7 is held out for checking a claimed gain.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

DEFAULT_SEED = 1
HELD_OUT_SEED = 7
#: Set-up-only interpreters per run; with the measuring one, setup_s is
#: the median of this many + 1 samples (wall time: calibrating set-up
#: did not narrow its spread, see README.md).
SETUP_PROBES = 6
#: Wall-clock budget of one workload run, all its interpreters together.
RUN_BUDGET_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "points_per_s": "points/s",
    "point_p50_ms": "ms",
    "point_p95_ms": "ms",
    "ipc_mean": "IPC",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit (the ``--trace 1`` set)."""
    from tracing import LAYERS

    names = {
        "core.schedule.calls": "count", "core.schedule.self_s": "s",
        "core.ii_attempts": "count", "core.attempt_useful_ratio": "ratio",
        "core.mii.s": "s", "core.order.s": "s", "core.probe.calls": "count",
        "core.probe.self_s": "s", "core.probe.fail_ratio": "ratio",
        "core.pressure.s": "s", "core.commit.calls": "count",
        "core.commit.s": "s", "core.finalize.s": "s",
        "ir.unroll.s": "s", "ir.schedule_to_dict.s": "s",
        "ir.schedule_from_dict.s": "s", "ir.parse.s": "s",
        "runner.cache.put.calls": "count", "runner.cache.put.s": "s",
        "runner.cache.get.calls": "count", "runner.cache.get.s": "s",
        "runner.cache.hit_ratio": "ratio", "runner.cache.bytes_per_entry": "bytes",
        "runner.result_from_dict.s": "s", "experiments.reduce.s": "s",
        "sim.crosscheck.calls": "count", "sim.crosscheck.s": "s",
        "service.queue_wait_ms": "ms", "service.run_ms": "ms",
        "service.http_ms": "ms", "service.batch_size_mean": "requests",
        "service.memo_hit_ratio": "ratio", "service.dedupe_ratio": "ratio",
        "fabric.claim.calls": "count", "fabric.claim.s": "s",
        "fabric.submit.calls": "count", "fabric.submit.s": "s",
        "fabric.shards_reissued": "count", "fabric.duplicate_ratio": "ratio",
    }
    names.update({f"layer.{layer}.self_s": "s" for layer in LAYERS})
    names.update({
        "unattributed_s": "s", "trace.wall_s": "s", "trace.coverage": "ratio",
        "trace.overhead_frac": "ratio",
    })
    return names


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to: an output was wrong)."""


def child(args: list[str], cache: Path, deadline: float) -> tuple[dict[str, Any], float]:
    """Run one workload interpreter; returns its JSON report and its set-up
    time (start to ready) in seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_VLIW_CACHE"] = str(cache)
    env.pop("REPRO_VLIW_TRACE", None)
    command = [sys.executable, str(HERE / "workloads.py"), "--cache", str(cache), *args]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(args)}: timed out") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise BenchError(f"{' '.join(args)}: exit {proc.returncode}: " + " | ".join(tail))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{' '.join(args)}: no report")
    report = json.loads(lines[-1])
    return report, report["ready"] - started


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tamper: str | None = None) -> dict[str, Any]:
    """Set-up probes, optional warm prefill, measurement and (for
    ``trace``) the traced repeat of one workload."""
    deadline = time.monotonic() + RUN_BUDGET_S
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
        if tamper:
            common += ["--tamper", tamper]
        setup_samples = [
            child(common + ["--mode", "setup"], work / f"setup-{i}", deadline)[1]
            for i in range(SETUP_PROBES)
        ]
        measure = common + ["--mode", "measure"]
        cache = work / "cache"
        prefill_failed = 0
        if workload == "sweep-warm":
            report, _ = child(common + ["--mode", "prefill"], cache, deadline)
            prefill = work / "prefill.json"
            prefill.write_text(json.dumps(report))
            prefill_failed = report["failed"]
            measure += ["--prefill", str(prefill)]
        result, setup_s = child(measure, cache, deadline)
        setup_samples.append(setup_s)
        result["metrics"]["setup_s"] = statistics.median(setup_samples)
        result["failed"] += prefill_failed
        if trace:
            traced_cache = cache if workload == "sweep-warm" else work / "traced"
            traced, _ = child(measure + ["--trace"], traced_cache, deadline)
            layers = traced["layers"]
            layers["trace.overhead_frac"] = (
                result["metrics"]["points_per_s"] / traced["metrics"]["points_per_s"] - 1
            )
            result["layers"] = layers
            result["failed"] += traced["failed"]
            result["attempted"] += traced["attempted"]
        result["seed"] = seed
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def render_table(rows: list[tuple[str, dict[str, Any]]], units: dict[str, str]) -> str:
    """One row per workload: seed, draw sizes, every metric with its unit."""
    header = ["workload", "seed", "units", "executed", "failed_frac[ratio]"]
    header += [f"{name}[{unit}]" for name, unit in units.items()]
    lines = ["  ".join(header)]
    for workload, result in rows:
        values = result.get("layers") or result["metrics"]
        cells = [
            workload, str(result["seed"]), str(result["units"]),
            str(result["executed"]),
            f"{result['failed'] / max(1, result['attempted']):.4f}",
        ]
        cells += [f"{values[name]:.6g}" for name in units]
        lines.append("  ".join(cells))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark.",
        epilog=f"Default seed {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED}.",
    )
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tamper", choices=("response", "cache"),
                        help="self-test fault injection (never in real runs)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = per_layer_units() if args.trace else END_TO_END
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    rows = []
    try:
        for workload in workloads:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                  args.tamper)
            rows.append((workload, result))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print(render_table(rows, units))
    attempted = sum(r["attempted"] for _w, r in rows)
    failed = sum(r["failed"] for _w, r in rows)
    metrics = {}
    for workload, result in rows:
        values = result.get("layers") or result["metrics"]
        prefix = "" if len(rows) == 1 else f"{workload}."
        for name, unit in units.items():
            metrics[prefix + name] = {"value": values[name], "unit": unit}
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
