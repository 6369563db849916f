"""The benchmark's workloads, each run in a fresh interpreter.

``run.py`` starts this file once per measurement::

    python3 perfbench/workloads.py --workload sweep-cold --seed 1 \\
        --seconds 12 --mode measure --cache DIR [--trace]

and reads the JSON object it prints as its last line.  Modes:

``setup``    build what the workload needs, report when it was ready, exit;
``prefill``  fill the cache a ``sweep-warm`` run replays (untimed);
``measure``  set up, run the timed region, then check every output;
             with ``--trace``, also split it by layer and write the spans
             to :func:`spans_path`.

Only public entry points of ``repro`` are driven: ``ExperimentContext``
and ``run_sweep`` for the sweeps, ``SchedulingService`` +
``ServiceServer`` + ``ServiceClient`` for the service, and
``FabricCoordinator`` (hosted by the service) + ``FabricWorker`` for the
fabric.  The traced run (``--trace``) wraps public functions through
:mod:`tracing`; nothing under ``src/`` changes.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("sweep-cold", "sweep-warm", "service-mixed", "fabric-sweep")


def spans_path(workload: str) -> Path:
    """Where the traced run of *workload* writes its spans (gzipped JSON
    lines)."""
    return ROOT / ".perfbench-spans" / f"{workload}.jsonl.gz"


#: The 36 clustered (clusters, policy, buses, latency) scenarios of Figure 8.
SCENARIOS = [
    (clusters, policy, buses, latency)
    for clusters in (2, 4)
    for policy in ("no-unrolling", "unroll-all", "selective-unrolling")
    for buses in (1, 2)
    for latency in (1, 2, 4)
]

#: Units (program x machine x policy) per second of ``--seconds``.  A unit
#: holds every eligible loop of its program, 5.4 points on average; the
#: rate sizes a cold run to about ``--seconds`` of work on a 2-core host.
COLD_UNITS_PER_S = 40 / 12
#: Units per fabric sweep (one ``FabricCoordinator.execute`` call each).
#: ``sweep --distributed`` sends a whole grid as one call; the draw is
#: split so that each sweep is a short segment of its own between two
#: calibrations (see :class:`Timed`): sent as four 10-unit sweeps,
#: ``points_per_s`` spread 19 % between seeds, against 11 % in 2-unit ones.
FABRIC_UNITS_PER_SWEEP = 2

#: The service stream is shaped like ``run_loadtest`` replaying
#: ``default_mix()``: mixes of 16 scenarios, each mix sent 4 times round
#: robin, so every scenario is one miss (schedule + cache write) and three
#: reads (memo hits, or dedupes while the first is in flight).
MIX_SCENARIOS = 16
MIX_REPEATS = 4
#: Every 8th scenario asks for ``simulate: true``.  The repository has no
#: traffic record to take this share from; it is a chosen figure.
SIMULATE_EVERY = 8
#: Client threads of the closed loop.
SERVICE_CLIENTS = 2
#: A run goes on past ``--seconds`` until it has sent the first
#: ``SERVICE_IPC_SCENARIOS`` scenarios all their requests (20 mixes, 1280
#: requests); ``ipc_mean`` is taken over those scenarios.
SERVICE_IPC_SCENARIOS = 320
#: Seconds of service load between two calibration pauses.
SERVICE_SEGMENT_S = 0.5
#: Front-door programs sent inline by the service workload.
LOOP_FILES = ("daxpy", "dotprod", "smooth")

#: A cold sweep recalibrates after any point that ends a measured segment
#: longer than this, so a long point is scaled by the host speed around it.
LONG_SEGMENT_S = 0.25

#: Seconds :func:`calibration_loop` takes on the reference host.  Every
#: measured time is scaled by ``CALIBRATION_REF_S / calibration`` taken
#: around it, so runs on a slower or faster moment of a shared host agree.
CALIBRATION_REF_S = 0.006


def calibration_loop(rounds: int = 40_000) -> float:
    """Seconds a fixed pure-Python loop takes now (median of three runs).

    The loop is independent of ``repro`` and allocates nothing the
    garbage collector tracks, so its time follows only the host's speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            table: dict[int, int] = {}
            total = 0
            for i in range(rounds):
                key = i % 97
                table[key] = table.get(key, 0) + i
                total += (i * 3) % 11
            times.append(time.perf_counter() - start)
        return statistics.median(times)
    finally:
        if enabled:
            gc.enable()


class Unit(NamedTuple):
    """One (program, machine, policy) cell of the Figure 8 grid, and which
    of its eligible loops runs in crossval form (simulated)."""

    program: str
    clusters: int
    policy: str
    buses: int
    latency: int
    simulated_loop: int = 0


def latin_units(programs: list[str], count: int) -> list[Unit]:
    """*count* units of the clustered Figure 8 grid in a fixed order.

    Block ``b`` pairs scenario ``j`` with program ``(7 j + b) mod 10``:
    every block holds each machine/policy scenario once and each program
    three or four times, and the ten blocks partition the 360 units.
    Blocks are taken from block 1 on.
    """
    units: list[Unit] = []
    block = 1
    while len(units) < count:
        for j, (clusters, policy, buses, latency) in enumerate(SCENARIOS):
            program = programs[(7 * j + block) % len(programs)]
            units.append(Unit(program, clusters, policy, buses, latency))
        block += 1
    return units[:count]


def draw_units(units: list[Unit], seed: int, loops: dict[str, int]) -> list[Unit]:
    """The units of one sweep run: seeded order and simulated slice.

    The composition is pinned (seeded compositions moved throughput by
    24-35 % between seeds, see ``README.md``); the seed orders the units
    and picks which loop of each unit is simulated, so every unit carries
    the same share of simulation whatever the seed.
    """
    rng = random.Random(seed)
    units = list(units)
    rng.shuffle(units)
    return [u._replace(simulated_loop=rng.randrange(loops[u.program])) for u in units]


def percentile(values: list[float], q: float) -> float:
    """The *q* quantile, smoothed: the mean of the order statistics whose
    rank lies within two percentage points of ``q`` (at least the
    nearest-rank one).  A per-point latency distribution has gaps (a few
    heavy 4-cluster unrolled points, then a cliff), and a single order
    statistic next to a gap jumps across it from run to run."""
    if not values:
        return 0.0
    ordered = sorted(values)
    n = len(ordered)
    low = max(1, math.ceil((q - 0.02) * n))
    high = min(n, max(low, math.floor((q + 0.02) * n)))
    return statistics.fmean(ordered[low - 1 : high])


class Timed:
    """The timed region of one run: measured segments with a calibration
    loop before the first and after each one.

    Work happens inside :meth:`window` (one segment, or several when
    :meth:`checkpoint` splits it) and per-point latencies are handed to
    :meth:`sample`.  When a segment ends, its duration and samples are
    scaled to reference-host seconds by the mean of the calibrations on
    either side of it; calibration never overlaps a segment.  In a traced
    run each window is one outermost ``bench`` span, and the segments are
    the traced wall time.
    """

    def __init__(self, recorder: Any = None):
        self.recorder = recorder
        self.segments: list[tuple[float, float]] = []
        self.normalised = 0.0
        self.segment_rates: list[float] = []
        self.peak_rss_mb = 0.0
        self.latencies: list[tuple[Any, float]] = []
        self._pending: list[tuple[Any, float]] = []
        self._calibration = calibration_loop()

    @contextmanager
    def window(self) -> Iterator[None]:
        span = self.recorder.span("bench") if self.recorder else nullcontext()
        with span:
            self._start = time.perf_counter()
            try:
                yield
            finally:
                self._close()

    def checkpoint(self, after_s: float) -> None:
        """Inside a window: once it has run *after_s*, end the measured
        segment here, recalibrate, and go on in a new one (long points get
        a calibration of their own)."""
        if time.perf_counter() - self._start >= after_s:
            self._close()
            self._start = time.perf_counter()

    def _close(self) -> None:
        start, end = self._start, time.perf_counter()
        self.segments.append((start, end))
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        before, self._calibration = self._calibration, calibration_loop()
        scale = CALIBRATION_REF_S / ((before + self._calibration) / 2)
        self.normalised += (end - start) * scale
        self.segment_rates.append(len(self._pending) / max(1e-9, (end - start) * scale))
        self.latencies.extend((key, x * scale) for key, x in self._pending)
        self._pending = []

    def sample(self, latency: float, key: Any = None) -> None:
        self._pending.append((key, latency))

    @property
    def elapsed(self) -> float:
        """Measured (unscaled) seconds inside segments so far."""
        return sum(end - start for start, end in self.segments)

    def metrics(self, count: int, ipcs: list[float]) -> dict[str, float]:
        """The end-to-end metrics (all but ``setup_s``) of a run whose
        samples are all distinct operations."""
        values = [x for _key, x in self.latencies]
        return self._metrics(count / self.normalised, values, ipcs)

    def replay_metrics(self, ipcs: list[float]) -> dict[str, float]:
        """The same for a run whose windows (one segment each) replay the
        same keyed operations: the median segment's rate, and percentiles
        over each operation's median latency."""
        by_key: dict[Any, list[float]] = defaultdict(list)
        for key, x in self.latencies:
            by_key[key].append(x)
        values = [statistics.median(xs) for xs in by_key.values()]
        return self._metrics(statistics.median(self.segment_rates), values, ipcs)

    def _metrics(self, rate: float, latencies: list[float], ipcs: list[float]) -> dict[str, float]:
        return {
            "points_per_s": rate,
            "point_p50_ms": 1000 * percentile(latencies, 0.50),
            "point_p95_ms": 1000 * percentile(latencies, 0.95),
            "ipc_mean": statistics.fmean(ipcs),
            "peak_rss_mb": self.peak_rss_mb,  # as the timed region left it
        }


class PointTimer:
    """An ``execute`` hook for ``ExperimentContext`` that keeps the runner's
    own per-point wall times (the figures ``RunRecorder`` records) and the
    results, without a recorder's extra deserialisation."""

    def __init__(self, inner: Callable[..., dict], timed: Timed):
        self.inner = inner
        self.timed = timed
        self.executed = 0
        self.results: dict[str, Any] = {}

    def execute(self, misses: list, **kwargs: Any) -> dict:
        meta = kwargs.get("meta_out")
        if meta is None:
            kwargs["meta_out"] = meta = {}
        results = self.inner(misses, **kwargs)
        for key in results:
            self.timed.sample(meta[key]["wall_s"])
        self.executed += len(results)
        self.results.update(results)
        return results


# ---------------------------------------------------------------------------
# Sweeps: sweep-cold, sweep-warm, fabric-sweep
# ---------------------------------------------------------------------------
class SweepSetup:
    """Imports, code version, suite and the drawn units of one sweep run."""

    def __init__(self, args: argparse.Namespace):
        from repro.experiments import common
        from repro.runner.cache import ResultCache
        from repro.workloads.specfp import PROGRAM_NAMES, build_program, specfp95_suite

        self.common = common
        self.build_program = build_program
        self.cache = ResultCache(args.cache)  # hashes the package sources
        self.suite = specfp95_suite()
        self.programs = {p.name: p for p in self.suite}
        count = max(1, round(args.seconds * COLD_UNITS_PER_S))
        loops = {p.name: len(p.eligible_loops()) for p in self.suite}
        self.units = draw_units(latin_units(list(PROGRAM_NAMES), count), args.seed, loops)

    def fresh(self, unit: Unit) -> Any:
        """A new copy of the unit's program, so no unit inherits another's
        per-graph memos and a point costs the same in any order."""
        return self.build_program(unit.program)

    def grid(self, unit: Unit, program: Any = None) -> list:
        """The unit's points; one of them in crossval form."""
        from repro.core.selective import UnrollPolicy
        from repro.runner.scenario import scenario_for

        config = self.common.paper_machine(unit.clusters, unit.buses, unit.latency)
        policy = UnrollPolicy(unit.policy)
        items = self.common.suite_grid(
            [program or self.programs[unit.program]], config, "bsa", policy
        )
        loop = items[unit.simulated_loop][1]
        items[unit.simulated_loop] = (
            scenario_for(loop, config, "bsa", policy, simulate=True),
            loop,
        )
        return items

    def ipc(self, ctx: Any, unit: Unit, program: Any = None) -> float:
        from repro.core.selective import UnrollPolicy

        config = self.common.paper_machine(unit.clusters, unit.buses, unit.latency)
        perf = ctx.program_ipc(
            program or self.programs[unit.program], config, "bsa",
            UnrollPolicy(unit.policy),
        )
        return perf.ipc

    def context(self, executor: Callable[..., dict] | None = None) -> Any:
        return self.common.ExperimentContext(
            suite=self.suite, cache=self.cache, jobs=1, executor=executor
        )

    def close(self) -> None:
        pass


def verify_context(ctx: Any) -> int:
    """Failed checks over a context: unverifiable schedules, and simulated
    points whose cycles differ from the analytic model."""
    from repro.core.verify import verify_schedule
    from repro.errors import VerificationError

    failed = 0
    for result in ctx.memo.values():
        try:
            verify_schedule(result.schedule)
        except VerificationError:
            failed += 1
    failed += sum(check.cycle_divergence != 0 for check in ctx.sim_memo.values())
    return failed


def cold_sweep(setup: SweepSetup, timed: Timed) -> tuple[Any, PointTimer, list[float]]:
    """Execute every drawn unit in-process against an empty cache."""
    from repro.runner import engine

    def execute_each(misses: list, **kwargs: Any) -> dict:
        results = {}
        for miss in misses:
            results.update(engine.execute_points([miss], **kwargs))
            timed.checkpoint(LONG_SEGMENT_S)
        return results

    timer = PointTimer(execute_each, timed)
    ctx = setup.context(timer.execute)
    ipcs = []
    for unit in setup.units:
        program = setup.fresh(unit)
        with timed.window():
            ctx.run_grid(setup.grid(unit, program))
            ipcs.append(setup.ipc(ctx, unit, program))
    return ctx, timer, ipcs


def measure_cold(setup: SweepSetup, args: argparse.Namespace, timed: Timed) -> dict[str, Any]:
    ctx, timer, ipcs = cold_sweep(setup, timed)
    metrics = timed.metrics(timer.executed, ipcs)
    return {
        "attempted": timer.executed,
        # every point must execute (the cache starts empty) and verify
        "failed": verify_context(ctx) + ctx.stats.cached,
        "executed": timer.executed,
        "metrics": metrics,
    }


def prefill_warm(setup: SweepSetup, args: argparse.Namespace) -> dict[str, Any]:
    """Fill the cache the warm replay reads (same commit, so same keys)."""
    ctx, _timer, ipcs = cold_sweep(setup, Timed())
    if args.tamper == "cache":
        _tamper_cache(setup)
    return {"ipcs": ipcs, "failed": verify_context(ctx)}


def _tamper_cache(setup: SweepSetup) -> None:
    """Self-test hook: corrupt one cached schedule (its II) on disk."""
    unit = setup.units[0]
    items = setup.grid(unit)
    point, _loop = items[(unit.simulated_loop + 1) % len(items)]  # not simulated
    path = setup.cache.path_for(point)
    data = json.loads(path.read_text())
    data["schedule"]["ii"] += 1
    path.write_text(json.dumps(data, sort_keys=True))


def measure_warm(setup: SweepSetup, args: argparse.Namespace, timed: Timed) -> dict[str, Any]:
    """Replay the prefilled draw, each time through a fresh context, until
    time is up; every point is timed through ``ExperimentContext.run_grid``."""
    expected = json.loads(Path(args.prefill).read_text())["ipcs"]
    rng = random.Random(args.seed)
    order = list(range(len(setup.units)))
    points = 0
    replays: list[tuple[list[float], int]] = []
    while not replays or timed.elapsed < args.seconds:
        ctx = setup.context()
        rng.shuffle(order)
        ipcs = [0.0] * len(order)
        with timed.window():
            for i in order:
                unit = setup.units[i]
                for item in setup.grid(unit):
                    start = time.perf_counter()
                    ctx.run_grid([item])
                    timed.sample(time.perf_counter() - start, key=item[0])
                    points += 1
                ipcs[i] = setup.ipc(ctx, unit)
        replays.append((ipcs, ctx.stats.executed))
    metrics = timed.replay_metrics(replays[0][0])
    failed = verify_context(ctx)
    for ipcs, executed in replays:
        failed += executed  # a warm replay must execute nothing
        failed += sum(a != b for a, b in zip(ipcs, expected))
    return {
        "attempted": points,
        "failed": failed,
        "executed": sum(executed for _ipcs, executed in replays),
        "replays": len(replays),
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# Service and fabric hosts
# ---------------------------------------------------------------------------
class ServiceHost:
    """An in-process ``SchedulingService(workers=0)`` behind a
    ``ServiceServer`` on an ephemeral port."""

    def __init__(self, cache_dir: str):
        from repro.runner.cache import ResultCache
        from repro.service import SchedulingService, ServiceClient, ServiceServer

        self.cache = ResultCache(cache_dir)
        self.service = SchedulingService(cache=self.cache, workers=0)
        self.server = ServiceServer(self.service, "127.0.0.1", 0)
        self._thread = threading.Thread(
            target=self.server.serve_forever, name="bench-server", daemon=True
        )
        self._thread.start()
        self.client = lambda: ServiceClient("127.0.0.1", self.server.port)
        if not self.client().wait_until_healthy(timeout=30.0):
            raise RuntimeError("service never became healthy")

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.service.close()
        self._thread.join(timeout=30.0)


class FabricSetup(SweepSetup):
    """A sweep setup plus a service hosting the coordinator and one
    ``FabricWorker`` thread pulling from it over HTTP."""

    def __init__(self, args: argparse.Namespace):
        from repro.fabric import FabricWorker

        super().__init__(args)
        self.host = ServiceHost(args.cache)
        self.cache = self.host.cache
        self.worker = FabricWorker(self.host.client(), worker_id="bench-worker")
        self._worker_thread = threading.Thread(
            target=self.worker.run, name="bench-worker", daemon=True
        )
        self._worker_thread.start()
        # Ready once the worker is pulling (its first idle claim registers it).
        deadline = time.monotonic() + 30.0
        while "bench-worker" not in self.host.service.fabric.stats()["workers"]:
            if time.monotonic() >= deadline:
                raise RuntimeError("fabric worker never claimed")
            time.sleep(0.005)

    def close(self) -> None:
        self.host.close()  # the worker sees the coordinator go and exits
        self._worker_thread.join(timeout=30.0)


def measure_fabric(setup: FabricSetup, args: argparse.Namespace, timed: Timed) -> dict[str, Any]:
    """Sweep the draw through ``FabricCoordinator.execute``,
    :data:`FABRIC_UNITS_PER_SWEEP` units per sweep, then compare with an
    in-process ``run_sweep``."""
    from repro.runner.engine import run_sweep

    coordinator = setup.host.service.fabric
    timer = PointTimer(lambda misses, **kw: coordinator.execute(misses, **kw), timed)
    execute = timer.execute
    if timed.recorder is not None:  # the caller only waits for the workers
        execute = timed.recorder.wrap(execute, "wait.fabric")
    ctx = setup.context(execute)
    ipcs = []
    items = []
    for first in range(0, len(setup.units), FABRIC_UNITS_PER_SWEEP):
        chunk = setup.units[first : first + FABRIC_UNITS_PER_SWEEP]
        programs = [setup.fresh(unit) for unit in chunk]
        with timed.window():
            grids = [setup.grid(u, p) for u, p in zip(chunk, programs)]
            ctx.run_grid([item for grid in grids for item in grid])
            ipcs.extend(setup.ipc(ctx, u, p) for u, p in zip(chunk, programs))
        items.extend(item for grid in grids for item in grid)
    metrics = timed.metrics(timer.executed, ipcs)
    expected, _ = run_sweep(items, jobs=1, cache=None)
    failed = sum(
        key not in timer.results
        or timer.results[key].to_dict() != result.to_dict()
        for key, result in expected.items()
    )
    return {
        "attempted": len(expected),
        "failed": failed + verify_context(ctx),
        "executed": timer.executed,
        "fabric": coordinator.stats()["counters"],
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# service-mixed
# ---------------------------------------------------------------------------
class ServiceSetup:
    """The service host plus the seeded request stream."""

    def __init__(self, args: argparse.Namespace):
        from repro.workloads.registry import workloads

        self.host = ServiceHost(args.cache)
        kernels = [spec.name for spec in workloads() if spec.kind == "graph"]
        sources = [
            (ROOT / "examples" / "loops" / f"{name}.loop").read_text()
            for name in LOOP_FILES
        ]
        self.stream = RequestStream(kernels, sources, args.seed)

    def close(self) -> None:
        self.host.close()


class RequestStream:
    """The seeded request sequence (thread-safe :meth:`next`).

    Scenarios are (workload, shape, machine): a workload is one of the 24
    graph kernels or one of the three ``.loop`` programs (sent inline and
    parsed by the front door on every request), a shape is a (clusters,
    policy) pair and a machine a (buses, latency) pair of Figure 8.  The
    sequence is six seeded rounds; each round has every (workload, shape)
    pair once, in seeded order, on the next of its six machines in seeded
    order, so seeds change which scenarios are asked for, not how much
    work they are.  Consecutive groups of :data:`MIX_SCENARIOS` form the
    mixes, each sent :data:`MIX_REPEATS` times round robin as
    ``run_loadtest`` sends its mix.
    """

    def __init__(self, kernels: list[str], sources: list[str], seed: int):
        rng = random.Random(seed)
        workloads = [{"kernel": k} for k in kernels] + [{"program": s} for s in sources]
        shapes = [(c, p) for p in ("none", "all", "selective") for c in (2, 4)]
        machines = [(b, lat) for b in (1, 2) for lat in (1, 2, 4)]
        pairs = [(w, shape) for w in range(len(workloads)) for shape in shapes]
        order = {pair: rng.sample(machines, len(machines)) for pair in pairs}
        self.scenarios: list[dict[str, Any]] = []
        for round_ in range(len(machines)):
            for pair in rng.sample(pairs, len(pairs)):
                w, (clusters, policy) = pair
                buses, latency = order[pair][round_]
                doc = dict(workloads[w], clusters=clusters, buses=buses,
                           latency=latency, policy=policy)
                if len(self.scenarios) % SIMULATE_EVERY == SIMULATE_EVERY - 1:
                    doc["simulate"] = True
                self.scenarios.append(doc)
        mix = MIX_SCENARIOS * MIX_REPEATS
        self.total = len(self.scenarios) // MIX_SCENARIOS * mix
        self._lock = threading.Lock()
        self.issued = 0

    def next(self, done: Callable[["RequestStream"], bool]) -> tuple[int, dict, bool] | None:
        """The next ``(index, payload, counts_for_ipc)``, or ``None`` once
        *done* or the sequence is spent; a scenario's first request counts
        for ``ipc_mean`` if it is among the first
        :data:`SERVICE_IPC_SCENARIOS`."""
        with self._lock:
            if self.issued >= self.total or done(self):
                return None
            index = self.issued
            self.issued += 1
        mix, offset = divmod(index, MIX_SCENARIOS * MIX_REPEATS)
        scenario = mix * MIX_SCENARIOS + offset % MIX_SCENARIOS
        first = offset < MIX_SCENARIOS
        return index, self.scenarios[scenario], first and scenario < SERVICE_IPC_SCENARIOS


def send(client: Any, payload: dict, keep_schedule: bool,
         interned: dict[str, str]) -> tuple[float, "Reply | None"]:
    """One request: its round trip and what the checks need, or ``None``
    when it failed in any way (an error status, a body that is not JSON,
    a reply missing a field)."""
    start = time.perf_counter()
    try:
        doc = client.schedule(payload)
    except Exception:
        return time.perf_counter() - start, None
    latency = time.perf_counter() - start
    try:
        return latency, Reply.of(doc, keep_schedule, interned)
    except Exception:
        return latency, None


def measure_service(setup: ServiceSetup, args: argparse.Namespace, timed: Timed) -> dict[str, Any]:
    """Closed loop: each client thread sends its next request only after
    the previous reply.  Every :data:`SERVICE_SEGMENT_S` the clients are
    held at a gate, in-flight requests drain and the host is calibrated."""
    stream = setup.stream
    gate = threading.Condition()
    state = {"paused": False, "inflight": 0}
    needed = SERVICE_IPC_SCENARIOS // MIX_SCENARIOS * MIX_SCENARIOS * MIX_REPEATS

    def done(s: RequestStream) -> bool:
        return timed.elapsed >= args.seconds and s.issued >= needed

    records: list[tuple[int, dict, float, Reply | None]] = []
    interned: dict[str, str] = {}

    def client_loop() -> None:
        client = setup.host.client()
        while True:
            with gate:
                gate.wait_for(lambda: not state["paused"])
                job = stream.next(done)
                if job is None:
                    return
                state["inflight"] += 1
            index, payload, for_ipc = job
            try:
                latency, reply = send(client, payload, for_ipc, interned)
                timed.sample(latency)
                records.append((index, payload, latency, reply))
            finally:
                with gate:
                    state["inflight"] -= 1
                    gate.notify_all()

    threads = [
        threading.Thread(target=client_loop, name=f"bench-client-{i}")
        for i in range(SERVICE_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    while any(thread.is_alive() for thread in threads):
        with timed.window():
            threads[0].join(SERVICE_SEGMENT_S)
            with gate:
                state["paused"] = True
                gate.wait_for(lambda: state["inflight"] == 0)
        with gate:
            state["paused"] = False
            gate.notify_all()
    for thread in threads:
        thread.join()

    records.sort(key=lambda r: r[0])
    if args.tamper == "response":
        records[0][3].rendered += " "
    failed, ipcs = _check_service(records)
    failed += stream.issued - len(records)  # requests whose client died
    stats = setup.host.service.stats()
    replies = [(latency, reply) for _i, _p, latency, reply in records if reply]
    return {
        "attempted": stream.issued,
        "failed": failed,
        "units": len({json.dumps(r[1], sort_keys=True) for r in records}),
        "executed": stats["points_executed"],
        "metrics": timed.metrics(len(records), ipcs),
        "service": {
            "queue_wait_ms": 1000 * percentile(
                [r.started - r.created for _, r in replies], 0.5),
            "run_ms": 1000 * percentile([r.finished - r.started for _, r in replies], 0.5),
            "http_ms": 1000 * percentile(
                [latency - (r.finished - r.created) for latency, r in replies], 0.5),
            "stats": stats,
        },
    }


#: Response fields compared with ``reference_payload`` (all but the
#: serialised ``schedule``, whose placements ``rendered`` spells out).
CHECKED_FIELDS = ("point", "kernel", "ii", "stage_count", "unroll_factor",
                  "policy", "fallback", "sim")


class Reply:
    """What the checks need from one successful response, kept small:
    the job's timestamps, its checked fields and rendered schedule as
    interned strings, and the serialised schedule only where ``ipc_mean``
    needs it."""

    __slots__ = ("created", "started", "finished", "fields", "rendered", "schedule")

    @classmethod
    def of(cls, doc: dict | None, keep_schedule: bool, interned: dict[str, str]) -> "Reply | None":
        if doc is None or doc.get("status") != "done":
            return None
        reply = cls()
        reply.created = doc["created_unix"]
        reply.started = doc["started_unix"]
        reply.finished = doc["finished_unix"]
        fields, rendered = checked(doc["result"])
        reply.fields = interned.setdefault(fields, fields)
        reply.rendered = interned.setdefault(rendered, rendered)
        reply.schedule = doc["result"] if keep_schedule else None
        return reply


def checked(result: dict[str, Any]) -> tuple[str, str]:
    """The compared parts of a response: checked fields, rendered text."""
    fields = json.dumps({k: result[k] for k in CHECKED_FIELDS}, sort_keys=True)
    return fields, result["rendered"]


def _check_service(records: list) -> tuple[int, list[float]]:
    """Failed requests (errors, or a response differing from
    ``reference_payload``) and the IPC, under the paper's model, of the
    first :data:`SERVICE_IPC_SCENARIOS` scenarios."""
    from repro.perf.model import loop_performance
    from repro.runner.scenario import PointResult
    from repro.service import ScheduleRequest, reference_payload

    expected: dict[str, tuple[str, str]] = {}
    failed = 0
    ipcs: list[float] = []
    for _index, payload, _latency, reply in records:
        if reply is None:
            failed += 1
            continue
        request = ScheduleRequest.from_payload(dict(payload))
        key = json.dumps(payload, sort_keys=True)
        if key not in expected:
            expected[key] = checked(reference_payload(request))
        failed += (reply.fields, reply.rendered) != expected[key]
        if reply.schedule is not None:
            result = reply.schedule
            _point, loop = request.grid_item()
            loop_result = PointResult(
                schedule=result["schedule"],
                unroll_factor=result["unroll_factor"],
                policy=result["policy"],
                fallback=result["fallback"],
            ).loop_result()
            ipcs.append(loop_performance(loop, loop_result).ipc)
    return failed, ipcs


# ---------------------------------------------------------------------------
# Per-layer figures (traced runs)
# ---------------------------------------------------------------------------
def layer_metrics(recorder: Any, windows: list[tuple[float, float]]) -> dict[str, float]:
    """Per-layer figures from the spans inside the measured *windows*."""
    import tracing

    threads = recorder.threads(windows[-1][1])
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    fails: dict[str, int] = defaultdict(int)
    incl: dict[str, float] = defaultdict(float)
    unattributed = 0.0
    for t0, t1 in windows:
        window_self, window_rest = tracing.attribute(threads, t0, t1)
        unattributed += window_rest
        for name, seconds in window_self.items():
            self_time[name] += seconds
        for acc, part in zip((calls, fails, incl), tracing.span_totals(threads, t0, t1)):
            for name, value in part.items():
                acc[name] += value
    wall = sum(t1 - t0 for t0, t1 in windows)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {
        "core.schedule.calls": calls["core.schedule"],
        "core.schedule.self_s": self_time["core.schedule"],
        "core.ii_attempts": calls["core.attempt"],
        "core.attempt_useful_ratio": ratio(
            calls["core.schedule"] - fails["core.schedule"], calls["core.attempt"]
        ),
        "core.mii.s": incl["core.mii"],
        "core.order.s": incl["core.order"],
        "core.probe.calls": calls["core.probe"],
        "core.probe.self_s": self_time["core.probe"],
        "core.probe.fail_ratio": ratio(fails["core.probe"], calls["core.probe"]),
        "core.pressure.s": incl["core.pressure"],
        "core.commit.calls": calls["core.commit"],
        "core.commit.s": incl["core.commit"],
        "core.finalize.s": incl["core.finalize"],
        "ir.unroll.s": incl["ir.unroll"],
        "ir.schedule_to_dict.s": incl["ir.schedule_to_dict"],
        "ir.schedule_from_dict.s": incl["ir.schedule_from_dict"],
        "ir.parse.s": incl["ir.parse"],
        "runner.cache.put.calls": calls["runner.cache.put"],
        "runner.cache.put.s": incl["runner.cache.put"],
        "runner.cache.get.calls": calls["runner.cache.get"],
        "runner.cache.get.s": incl["runner.cache.get"],
        "runner.cache.hit_ratio": ratio(
            calls["runner.cache.get"] - fails["runner.cache.get"],
            calls["runner.cache.get"],
        ),
        "runner.result_from_dict.s": incl["runner.result_from_dict"],
        "experiments.reduce.s": incl["experiments.reduce"],
        "sim.crosscheck.calls": calls["sim.crosscheck"],
        "sim.crosscheck.s": incl["sim.crosscheck"],
        "fabric.claim.calls": calls["fabric.claim"],
        "fabric.claim.s": incl["fabric.claim"],
        "fabric.submit.calls": calls["fabric.submit"],
        "fabric.submit.s": incl["fabric.submit"],
        "unattributed_s": unattributed,
        "trace.wall_s": wall,
        "trace.coverage": ratio(wall - unattributed, wall),
    }
    for layer in tracing.LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            seconds for name, seconds in self_time.items()
            if tracing.layer_of(name) == layer
        )
    return out


def reported_layer_metrics(result: dict[str, Any]) -> dict[str, float]:
    """Service and fabric figures the programs report themselves."""
    out = {
        "service.queue_wait_ms": 0.0, "service.run_ms": 0.0,
        "service.http_ms": 0.0, "service.batch_size_mean": 0.0,
        "service.memo_hit_ratio": 0.0, "service.dedupe_ratio": 0.0,
        "fabric.shards_reissued": 0, "fabric.duplicate_ratio": 0.0,
    }
    service = result.pop("service", None)
    if service:
        stats = service["stats"]
        counters = stats["counters"]
        resolved = counters["executed"] + counters["memo_hits"] + counters["disk_hits"]
        requests = stats["requests_total"]
        out.update({
            "service.queue_wait_ms": service["queue_wait_ms"],
            "service.run_ms": service["run_ms"],
            "service.http_ms": service["http_ms"],
            "service.batch_size_mean": requests / max(1, stats["batches"]),
            "service.memo_hit_ratio": counters["memo_hits"] / max(1, resolved),
            "service.dedupe_ratio": counters["deduped"] / max(1, requests),
        })
    fabric = result.pop("fabric", None)
    if fabric:
        posted = fabric["points_completed"] + fabric["results_duplicate"]
        out["fabric.shards_reissued"] = fabric["shards_reissued"]
        out["fabric.duplicate_ratio"] = fabric["results_duplicate"] / max(1, posted)
    return out


# ---------------------------------------------------------------------------
SETUPS = {
    "sweep-cold": SweepSetup, "sweep-warm": SweepSetup,
    "service-mixed": ServiceSetup, "fabric-sweep": FabricSetup,
}
MEASURES = {
    "sweep-cold": measure_cold, "sweep-warm": measure_warm,
    "service-mixed": measure_service, "fabric-sweep": measure_fabric,
}


def measure(setup: Any, args: argparse.Namespace) -> dict[str, Any]:
    """The timed region, its output checks and (traced) its layer split."""
    recorder = restore = None
    if args.trace:
        sys.path.insert(0, str(HERE))
        import tracing

        recorder = tracing.SpanRecorder()
        restore = tracing.instrument(recorder)
    timed = Timed(recorder)
    try:
        result = MEASURES[args.workload](setup, args, timed)
    finally:
        if restore is not None:
            restore()
    result.setdefault("units", len(getattr(setup, "units", ())))
    layers = reported_layer_metrics(result)
    if recorder is not None:
        layers.update(layer_metrics(recorder, timed.segments))
        cache = setup.host.cache if isinstance(setup, ServiceSetup) else setup.cache
        stats = cache.stats()
        layers["runner.cache.bytes_per_entry"] = stats.total_bytes / max(1, stats.entries)
        result["layers"] = layers
        threads = recorder.threads(timed.segments[-1][1])
        tracing.write_spans(threads, spans_path(args.workload))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "prefill", "measure"), required=True)
    parser.add_argument("--cache", required=True, help="this run's own cache root")
    parser.add_argument("--prefill", help="sweep-warm: the prefill child's output file")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tamper", choices=("response", "cache"),
                        help="self-test fault injection")
    args = parser.parse_args(argv)

    setup = SETUPS[args.workload](args)
    doc: dict[str, Any] = {"ready": time.monotonic()}
    try:
        if args.mode == "prefill":
            doc.update(prefill_warm(setup, args))
        elif args.mode == "measure":
            doc.update(measure(setup, args))
    finally:
        setup.close()
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
