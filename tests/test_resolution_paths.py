"""The three front ends resolve points identically.

The experiment context's point API (``schedule_loop`` /
``crosscheck_loop``), its grid API (``run_grid``) and the scheduling
service's ``/sweep`` batches all go through one resolver
(:func:`repro.runner.engine.run_sweep`).  One small grid — schedule and
simulate points, an in-batch duplicate and a register-starved loop that
needs the list-schedule fallback — must leave byte-identical cache
entries behind on every path, and the grid's :class:`SweepStats` must be
exactly what the service reports on ``/stats`` and ``/metrics``.
"""

from __future__ import annotations

import json
import threading
import urllib.request

import pytest

from repro.arch.configs import clustered_config
from repro.core.selective import UnrollPolicy
from repro.experiments import ExperimentContext
from repro.ir.frontend import parse_program
from repro.obs import prom
from repro.runner import ResultCache
from repro.service import (
    ScheduleRequest,
    SchedulingService,
    ServiceClient,
    ServiceServer,
)
from repro.workloads.registry import register_workload, unregister_workload

#: A value read 40 iterations after it is produced needs ~40 registers,
#: more than any cluster has: no modulo schedule exists.
STARVED_SOURCE = """
BB0:
BB1:
    x = load x[i]
    y = fadd x, x@40
    store y, y[i]
BB2:
"""

SIMULATED = {"simulate": True, "miss_penalty": 0}
REQUESTS = [
    {"kernel": "daxpy", "clusters": 2},
    {"kernel": "daxpy", "clusters": 2, "niter": 50, **SIMULATED},
    {"kernel": "dot", "clusters": 4, "niter": 40, **SIMULATED},
    {"kernel": "starved", "clusters": 4},
    {"kernel": "daxpy", "clusters": 2},  # in-batch duplicate
]


@pytest.fixture(scope="module", autouse=True)
def starved_kernel():
    @register_workload("starved", tags=("test",))
    def starved():
        return parse_program(STARVED_SOURCE, name="starved").graph

    yield
    unregister_workload("starved")


def requests() -> list[ScheduleRequest]:
    return [ScheduleRequest.from_payload(doc) for doc in REQUESTS]


def cache_entries(cache: ResultCache) -> dict[str, dict]:
    """Every cache file (relative path -> PointResult payload)."""
    return {
        str(path.relative_to(cache.root)): json.loads(path.read_text())
        for path in sorted(cache.root.glob("*/*.json"))
    }


def counters(stats) -> dict[str, int]:
    """A SweepStats in the service's ``/stats`` counter names."""
    return {
        "executed": stats.executed,
        "memo_hits": stats.memo,
        "disk_hits": stats.cached,
        "failed": stats.failed,
        "deduped": stats.deduped,
    }


def resolve_point_api(cache: ResultCache) -> ExperimentContext:
    ctx = ExperimentContext(suite=[], cache=cache)
    for request in requests():
        _point, loop = request.grid_item()
        args = (
            loop,
            clustered_config(request.clusters, request.buses, request.latency),
            request.scheduler,
            UnrollPolicy(request.policy),
        )
        if request.simulate:
            ctx.crosscheck_loop(*args)
        else:
            ctx.schedule_loop(*args)
    return ctx


def resolve_grid(cache: ResultCache) -> ExperimentContext:
    ctx = ExperimentContext(suite=[], cache=cache)
    items = [request.grid_item() for request in requests()]
    ctx.run_grid(items)
    ctx.run_grid(items)  # the second pass is served by the memo
    return ctx


def resolve_service(cache: ResultCache) -> tuple[dict, dict, list]:
    service = SchedulingService(cache=cache, workers=0)
    server = ServiceServer(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServiceClient(port=server.port, timeout=60.0)
        first = client.sweep(REQUESTS)
        second = client.sweep(REQUESTS)
        with urllib.request.urlopen(f"{server.url}/metrics", timeout=10) as resp:
            families = prom.parse(resp.read().decode())
        return client.stats(), families, [first, second]
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=10)


def test_three_paths_resolve_identically(tmp_path):
    caches = {
        name: ResultCache(tmp_path / name, code_version="test-paths")
        for name in ("point", "grid", "service")
    }
    point_ctx = resolve_point_api(caches["point"])
    grid_ctx = resolve_grid(caches["grid"])
    stats, families, docs = resolve_service(caches["service"])

    # Identical cache contents: same keys (with the simulated dot's
    # schedule-only twin), same PointResult.to_dict() per key.
    entries = cache_entries(caches["grid"])
    assert len(entries) == 5
    assert cache_entries(caches["point"]) == entries
    assert cache_entries(caches["service"]) == entries

    # The service's responses carry the cached results.
    for doc in docs:
        assert doc["status"] == "done"
        for request, result in zip(requests(), doc["results"]):
            point, _loop = request.grid_item()
            cached = caches["grid"].get(point)
            assert result["schedule"] == cached.schedule
            assert result["fallback"] is cached.fallback
    fallbacks = [result["fallback"] for result in docs[0]["results"]]
    assert fallbacks == [False, False, False, True, False]

    # One counter set: the grid's SweepStats is what /stats and /metrics say.
    expected = {"executed": 4, "memo_hits": 4, "disk_hits": 0, "failed": 0}
    assert counters(grid_ctx.stats) == stats["counters"] == dict(expected, deduped=2)
    samples = {
        s.name: s.value
        for family in families.values()
        for s in family.samples
        if not s.labels
    }
    scraped = {
        name: samples[f"repro_points_{name}_total"] for name in stats["counters"]
    }
    assert scraped == counters(grid_ctx.stats)

    # The point API resolves the same work, one point at a time.
    for ctx in (point_ctx, grid_ctx):
        assert ctx.stats.executed == 4 and ctx.stats.cached == 0
        assert ctx.stats.fallbacks == len(ctx.fallbacks) == 1

    # A fresh grid on the point API's cache finds every entry on disk.
    warm = resolve_grid(caches["point"])
    warm_expected = {"executed": 0, "memo_hits": 4, "disk_hits": 4, "failed": 0}
    assert counters(warm.stats) == dict(warm_expected, deduped=2)
    assert warm.stats.fallbacks == 0 and len(warm.fallbacks) == 1
