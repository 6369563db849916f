"""Self-tests of the benchmark (not part of the repository's test suite).

    python3 -m pytest perfbench/selftest.py -q

They pin the attribution arithmetic on synthetic span trees, the metric
names against ``BENCHMARK.json``, a tiny run of every workload, and that
a tampered output fails the run.
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def span(name, parent, start, end, failed=False):
    return (name, parent, float(start), float(end), failed)


# ---------------------------------------------------------------------------
# Attribution arithmetic
# ---------------------------------------------------------------------------
def test_self_time_single_thread():
    thread = [
        span("bench", -1, 0, 10),
        span("core.schedule", 0, 1, 9),
        span("core.probe", 1, 2, 4),
        span("core.pressure", 2, 3, 4),
        span("core.probe", 1, 5, 6),
        span("ir.unroll", 1, 7, 8),
    ]
    self_time, unattributed = tracing.attribute([thread], 0.0, 10.0)
    assert self_time == pytest.approx(
        {"core.schedule": 4.0, "core.probe": 2.0, "core.pressure": 1.0, "ir.unroll": 1.0}
    )
    assert unattributed == pytest.approx(2.0)  # the bench span's own time
    assert sum(self_time.values()) + unattributed == pytest.approx(10.0)


def test_self_time_across_threads():
    # A: an HTTP handler that blocks on its job between 2 and 8.
    handler = [
        span("service.http", -1, 1, 9),
        span("wait.job", 0, 2, 8),
    ]
    # B: the dispatcher scheduling from 3 to 7.
    dispatcher = [span("core.schedule", -1, 3, 7)]
    # C: a second handler parsing from 4 to 6, concurrently with B.
    parser = [span("service.http", -1, 4, 6), span("ir.parse", 0, 4, 6)]
    main = [span("bench", -1, 0, 10)]
    self_time, unattributed = tracing.attribute(
        [main, handler, dispatcher, parser], 0.0, 10.0
    )
    # 1-2 and 8-9: handler busy; 3-4, 6-7: dispatcher alone;
    # 4-6: dispatcher and parser share the instant half and half.
    assert self_time == pytest.approx(
        {"service.http": 2.0, "core.schedule": 3.0, "ir.parse": 1.0}
    )
    # 0-1, 2-3, 7-8, 9-10: nobody busy (waiting is not work).
    assert unattributed == pytest.approx(4.0)
    assert sum(self_time.values()) + unattributed == pytest.approx(10.0)


def test_attribution_clips_to_the_window():
    thread = [span("core.probe", -1, 0, 4), span("core.commit", -1, 6, 12)]
    self_time, unattributed = tracing.attribute([thread], 2.0, 8.0)
    assert self_time == pytest.approx({"core.probe": 2.0, "core.commit": 2.0})
    assert unattributed == pytest.approx(2.0)


def test_span_totals_count_calls_failures_and_outer_time():
    thread = [
        span("experiments.run_grid", -1, 0, 10),
        span("core.probe", 0, 1, 2, failed=True),
        span("core.probe", 0, 3, 5),
        span("experiments.run_grid", 0, 6, 8),  # nested: not counted twice
        span("core.probe", -1, 20, 21),  # outside the window
    ]
    calls, fails, incl = tracing.span_totals([thread], 0.0, 12.0)
    assert calls == {"experiments.run_grid": 2, "core.probe": 2}
    assert fails == {"experiments.run_grid": 0, "core.probe": 1}
    assert incl == pytest.approx({"experiments.run_grid": 10.0, "core.probe": 3.0})


def test_recorder_links_parents_per_thread_and_flags_failures():
    ticks = iter(range(100))
    recorder = tracing.SpanRecorder(clock=lambda: float(next(ticks)))
    probe = recorder.wrap(lambda ok: ok, "core.probe", failed=lambda ok: not ok)

    def boom():
        raise ValueError("x")

    schedule = recorder.wrap(lambda: [probe(True), probe(False)], "core.schedule")
    failing = recorder.wrap(boom, "core.schedule")
    with recorder.span("bench"):
        schedule()
        with pytest.raises(ValueError):
            failing()
    (spans,) = recorder.threads(now=1000.0)
    assert [(name, parent, failed) for name, parent, _s, _e, failed in spans] == [
        ("bench", -1, False),
        ("core.schedule", 0, False),
        ("core.probe", 1, False),
        ("core.probe", 1, True),
        ("core.schedule", 0, True),
    ]
    assert all(start <= end for _n, _p, start, end, _f in spans)


def test_instrument_restores_every_patch():
    import repro.core.engine as engine
    import repro.runner.cache as cache

    before = (engine.PlacementEngine.find_placement, cache.ResultCache.get)
    restore = tracing.instrument(tracing.SpanRecorder())
    assert engine.PlacementEngine.find_placement is not before[0]
    restore()
    assert (engine.PlacementEngine.find_placement, cache.ResultCache.get) == before


# ---------------------------------------------------------------------------
# The service stream and its checks
# ---------------------------------------------------------------------------
def drain(stream):
    jobs = []
    while (job := stream.next(lambda _s: False)) is not None:
        jobs.append(job)
    return jobs


def test_request_stream_sends_each_mix_like_run_loadtest():
    stream = workloads.RequestStream(["daxpy", "fir4"], ["loop source"], seed=5)
    jobs = drain(stream)
    assert len(jobs) == stream.total == 96 * 4  # 108 scenarios, 6 whole mixes
    assert [index for index, _p, _f in jobs] == list(range(len(jobs)))
    sent = Counter(json.dumps(p, sort_keys=True) for _i, p, _f in jobs)
    assert set(sent.values()) == {workloads.MIX_REPEATS}
    # a scenario counts for ipc_mean once, on its first (missing) request
    firsts = [json.dumps(p, sort_keys=True) for _i, p, first in jobs if first]
    assert sorted(firsts) == sorted(sent)
    assert sum("simulate" in p for p in stream.scenarios) == 108 // 8
    again = drain(workloads.RequestStream(["daxpy", "fir4"], ["loop source"], seed=5))
    assert again == jobs
    assert drain(workloads.RequestStream(["daxpy", "fir4"], ["loop source"], seed=6)) != jobs


class FakeClient:
    def __init__(self, reply):
        self.reply = reply

    def schedule(self, payload):
        if isinstance(self.reply, Exception):
            raise self.reply
        return self.reply


@pytest.mark.parametrize("reply", [
    ValueError("a 200 whose body is not JSON"),
    {"status": "done", "created_unix": 1.0, "started_unix": 2.0,
     "finished_unix": 3.0, "result": {"ii": 2}},  # fields missing
    {"status": "done"},
    {"status": "failed", "error": "x"},
])
def test_malformed_response_is_a_failed_request(reply):
    latency, checked = workloads.send(FakeClient(reply), {}, True, {})
    assert checked is None and latency >= 0


# ---------------------------------------------------------------------------
# Metric names
# ---------------------------------------------------------------------------
def test_printed_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


# ---------------------------------------------------------------------------
# Whole runs (tiny: a few units, or the service's minimum request count)
# ---------------------------------------------------------------------------
def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "0.5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode, None


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload):
    code, doc = bench("--workload", workload, "--seed", "3")
    assert code == 0
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in doc["metrics"].values())


def test_traced_run_layers_add_up():
    code, doc = bench("--workload", "sweep-cold", "--seed", "3", "--trace", "1")
    assert code == 0
    values = {k: v["value"] for k, v in doc["metrics"].items()}
    assert set(values) == set(run.per_layer_units())
    layers = sum(values[f"layer.{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers + values["unattributed_s"] == pytest.approx(values["trace.wall_s"])
    assert values["trace.coverage"] >= 0.9
    assert values["core.ii_attempts"] >= values["core.schedule.calls"] > 0
    with gzip.open(workloads.spans_path("sweep-cold"), "rt") as fh:
        spans = [json.loads(line) for line in fh]
    assert {"bench", "core.schedule", "core.probe"} <= {s["name"] for s in spans}
    assert all(s["start"] <= s["end"] for s in spans)


@pytest.mark.parametrize(
    "workload, tamper",
    [("service-mixed", "response"), ("sweep-warm", "cache")],
)
def test_tampered_output_fails_the_run(workload, tamper):
    code, doc = bench("--workload", workload, "--seed", "3", "--tamper", tamper)
    assert code == 1
    assert not doc["correct"] and doc["failed"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, doc = bench("--workload", "sweep-cold", cwd=tmp_path)
    assert code != 0 and doc is None
