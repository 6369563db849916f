"""Span recording and per-layer attribution for the traced benchmark run.

The traced run wraps public functions of ``repro`` at the name their
caller looks up (``repro.core.base.compute_mii``, not
``repro.core.mii.mii``), so ``src/`` stays untouched.  Each call becomes
a span: name, start, end and the index of its parent span in the same
thread.  Spans are kept in memory, one compact buffer per thread, and are
only processed, and written out, after the measured region ends.

Attribution.  A span's name starts with its layer (``core.probe`` belongs
to ``core``).  Names outside :data:`LAYERS` are not layers: ``bench`` is
the benchmark's own outermost span and ``wait.*`` spans mark a thread
that is blocked (a client waiting for its HTTP reply, a coordinator
waiting for its workers).  At every instant a thread is *busy* when its
innermost open span is a layer span.  The instant's wall time is split
equally between the busy threads and credited to their innermost spans;
an instant with no busy thread is unattributed.  On one thread this is
the usual self time (a span minus what its children cover); across
threads it keeps the identity that matters here:

    sum(layer self times) + unattributed == traced wall time.
"""

from __future__ import annotations

import functools
import gzip
import heapq
import inspect
import json
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

#: One recorded call: (name, parent index in its thread or -1, start, end,
#: whether the call failed).
Span = tuple[str, int, float, float, bool]

#: The layers of ``src/repro`` a span can belong to (``perf`` is folded
#: into ``experiments``: the IPC model is only reached through reducers).
LAYERS = ("core", "ir", "sim", "runner", "experiments", "service", "fabric")


def layer_of(name: str) -> str | None:
    """The layer a span name belongs to, or ``None`` for non-layer spans."""
    head = name.split(".", 1)[0]
    return head if head in LAYERS else None


class _ThreadBuffer:
    """Spans of one thread, in start order (parallel typed arrays)."""

    __slots__ = ("name", "parent", "start", "end", "failed", "top")

    def __init__(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.top = -1


class SpanRecorder:
    """Collects spans from any number of threads with no shared lock on
    the hot path (each thread appends to its own buffer)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.buffers: list[_ThreadBuffer] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
            return self._ids[name]

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadBuffer()
            self._local.buf = buf
            with self._lock:
                self.buffers.append(buf)
        return buf

    def span(self, name: str) -> "_SpanContext":
        """``with recorder.span("bench"):`` — a span around a block."""
        return _SpanContext(self, self.name_id(name))

    def _enter(self, nid: int) -> tuple[_ThreadBuffer, int, int]:
        buf = self._buffer()
        idx = len(buf.start)
        buf.name.append(nid)
        buf.parent.append(buf.top)
        buf.end.append(0.0)
        buf.failed.append(0)
        prev, buf.top = buf.top, idx
        buf.start.append(self.clock())
        return buf, idx, prev

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        failed: Callable[[Any], bool] | None = None,
    ) -> Callable[..., Any]:
        """*fn* recording one span per call.

        A call that raises, or whose result satisfies *failed*, also
        counts as a failure of that span name.
        """
        nid = self.name_id(name)
        clock = self.clock
        enter = self._enter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            buf, idx, prev = enter(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                buf.end[idx] = clock()
                buf.top = prev
                buf.failed[idx] = 1
                raise
            buf.end[idx] = clock()
            buf.top = prev
            if failed is not None and failed(result):
                buf.failed[idx] = 1
            return result

        return wrapper

    # ------------------------------------------------------------------
    def threads(self, now: float) -> list[list[Span]]:
        """Per-thread span lists ``(name, parent, start, end, failed)`` in
        start order; a span still open ends at *now*."""
        names = self.names
        return [
            [
                (names[n], p, s, e if e >= s else now, bool(f))
                for n, p, s, e, f in zip(
                    buf.name, buf.parent, buf.start, buf.end, buf.failed
                )
            ]
            for buf in self.buffers
        ]


def write_spans(threads: list[list[Span]], path: Path) -> None:
    """Write every span as one JSON line (name, thread, parent, start, end),
    gzip-compressed (a traced sweep records about half a million spans)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for t, spans in enumerate(threads):
            for name, parent, start, end, _failed in spans:
                record = {
                    "name": name, "thread": t, "parent": parent,
                    "start": start, "end": end,
                }
                fh.write(json.dumps(record) + "\n")


class _SpanContext:
    def __init__(self, recorder: SpanRecorder, nid: int):
        self.recorder = recorder
        self.nid = nid

    def __enter__(self) -> "_SpanContext":
        self.buf, self.idx, self.prev = self.recorder._enter(self.nid)
        return self

    def __exit__(self, *exc: Any) -> None:
        self.buf.end[self.idx] = self.recorder.clock()
        self.buf.top = self.prev


# ---------------------------------------------------------------------------
# Attribution
# ---------------------------------------------------------------------------
def _innermost_changes(
    spans: list[Span], thread: int
) -> Iterator[tuple[float, int, int, str | None]]:
    """``(time, thread, seq, innermost span name or None)`` at every change.

    *spans* must be one thread's properly nested spans in start order;
    *seq* keeps same-instant changes of one thread in order.
    """
    stack: list[int] = []
    seq = 0
    for i, (name, _parent, start, _end, _failed) in enumerate(spans):
        while stack and spans[stack[-1]][3] <= start:
            done = stack.pop()
            seq += 1
            yield spans[done][3], thread, seq, spans[stack[-1]][0] if stack else None
        stack.append(i)
        seq += 1
        yield start, thread, seq, name
    while stack:
        done = stack.pop()
        seq += 1
        yield spans[done][3], thread, seq, spans[stack[-1]][0] if stack else None


def attribute(
    threads: Iterable[list[Span]],
    t0: float,
    t1: float,
) -> tuple[dict[str, float], float]:
    """Self time per span name over ``[t0, t1]``, plus the unattributed rest.

    Returns ``(self_by_name, unattributed)``; only layer span names appear
    in *self_by_name*, and its values plus *unattributed* sum to
    ``t1 - t0``.
    """
    streams = [_innermost_changes(spans, t) for t, spans in enumerate(threads)]
    self_time: dict[str, float] = defaultdict(float)
    busy: dict[int, str] = {}
    last = t0
    attributed = 0.0

    def credit(until: float) -> None:
        nonlocal attributed
        if busy and until > last:
            share = (until - last) / len(busy)
            for active in busy.values():
                self_time[active] += share
            attributed += until - last

    for when, thread, _seq, name in heapq.merge(*streams):
        when = min(max(when, t0), t1)
        credit(when)
        last = max(last, when)
        if name is not None and layer_of(name) is not None:
            busy[thread] = name
        else:
            busy.pop(thread, None)
    credit(t1)
    return dict(self_time), (t1 - t0) - attributed


def span_totals(
    threads: Iterable[list[Span]], t0: float, t1: float
) -> tuple[dict[str, int], dict[str, int], dict[str, float]]:
    """``(calls, failures, inclusive seconds)`` per span name in ``[t0, t1]``.

    Only spans starting inside the window count; a span nested in a
    same-name span adds to the calls but not again to the time.
    """
    calls: dict[str, int] = defaultdict(int)
    fails: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    for spans in threads:
        for name, parent, start, end, failed in spans:
            if not t0 <= start < t1:
                continue
            calls[name] += 1
            fails[name] += failed
            outer = parent
            while outer >= 0 and spans[outer][0] != name:
                outer = spans[outer][1]
            if outer < 0:
                total[name] += min(end, t1) - start
    return dict(calls), dict(fails), dict(total)


# ---------------------------------------------------------------------------
# Instrumentation of the repro package
# ---------------------------------------------------------------------------
def _is_none(result: Any) -> bool:
    return result is None


def _patch_points() -> list[tuple[Any, str, str, Callable[[Any], bool] | None]]:
    """``(owner, attribute, span name, failure test)`` for every wrapped call.

    Owners are modules, classes or (for the BSA ordering table) dicts;
    each entry patches the name the *caller* resolves at call time.  Public
    functions are used wherever a layer has one at its boundary; the few
    private ones (``_run_batch``, ``_run_point_jobs``, ``_register_sweep``)
    are where a layer's work has no public boundary.  The service
    client's ``json`` module is replaced by a proxy whose ``dumps`` and
    ``loads`` are spans (the client's encoding work).  The fabric worker's
    idle poll sleeps outside any span: waiting is not work.
    """
    import repro.core.base as base
    import repro.core.bsa as bsa
    import repro.core.engine as core_engine
    import repro.core.pressure as pressure
    import repro.core.selective as selective
    import repro.core.twophase as twophase
    import repro.core.unified as unified
    import repro.experiments.common as common
    import repro.fabric.coordinator as coordinator
    import repro.fabric.worker as fabric_worker
    import repro.runner.cache as cache
    import repro.runner.engine as runner_engine
    import repro.runner.scenario as scenario
    import repro.service.client as client
    import repro.service.core as service_core
    import repro.service.server as server

    engine_cls = core_engine.PlacementEngine
    placement = core_engine.Placement

    def _is_fail_reason(result: Any) -> bool:
        return not isinstance(result, placement)

    service_cls = service_core.SchedulingService
    return [
        # core: II search, ordering, placement probe, commit, pressure
        (base.SchedulerBase, "schedule", "core.schedule", None),
        (base, "compute_mii", "core.mii", None),
        (selective, "compute_mii", "core.mii", None),
        (bsa._ORDERINGS, "sms", "core.order", None),
        (bsa._ORDERINGS, "topo", "core.order", None),
        (unified, "sms_order", "core.order", None),
        (twophase, "sms_order", "core.order", None),
        (engine_cls, "__init__", "core.attempt", None),
        (engine_cls, "find_placement", "core.probe", _is_fail_reason),
        (pressure.PressureTracker, "probe", "core.pressure", None),
        (engine_cls, "commit", "core.commit", None),
        (engine_cls, "finalize", "core.finalize", None),
        (runner_engine, "sequential_fallback", "core.fallback", None),
        # ir: unroll, serialize, .loop frontend
        (selective, "unroll_graph", "ir.unroll", None),
        (scenario, "schedule_to_dict", "ir.schedule_to_dict", None),
        (scenario, "schedule_from_dict", "ir.schedule_from_dict", None),
        (service_core, "parse_program", "ir.parse", None),
        (runner_engine, "loop_from_dict", "ir.loop_from_dict", None),
        (runner_engine, "loop_to_dict", "ir.loop_to_dict", None),
        (coordinator, "loop_to_dict", "ir.loop_to_dict", None),
        (fabric_worker, "_run_batch", "runner.run_batch", None),
        # runner: cache, point execution
        (cache.ResultCache, "get", "runner.cache.get", _is_none),
        (cache.ResultCache, "put", "runner.cache.put", None),
        (scenario.PointResult, "from_dict", "runner.result_from_dict", None),
        (scenario, "graph_content_hash", "runner.graph_hash", None),
        (runner_engine, "execute_point", "runner.execute_point", None),
        (runner_engine, "execute_points", "runner.execute_points", None),
        (service_core, "execute_points", "runner.execute_points", None),
        (common, "run_sweep", "runner.sweep", None),
        # sim
        (runner_engine, "crosscheck_loop", "sim.crosscheck", None),
        # experiments / perf: grids, reducers and the IPC model
        (common, "suite_grid", "experiments.grid", None),
        (common.ExperimentContext, "run_grid", "experiments.run_grid", None),
        (common.ExperimentContext, "program_ipc", "experiments.reduce", None),
        # service: HTTP front end, validation, batches, payloads, client
        (server.ServiceServer, "process_request", "service.http.accept", None),
        (server.ServiceServer, "finish_request", "service.http", None),
        (server.ServiceServer, "shutdown_request", "service.http.close", None),
        (service_core.ScheduleRequest, "from_payload", "service.validate", None),
        (service_core.ScheduleRequest, "grid_item", "service.grid_item", None),
        (service_cls, "_run_point_jobs", "service.batch", None),
        (service_core, "result_payload", "service.payload", None),
        (service_core.Job, "wait", "wait.job", None),
        (client, "json", "service.client.json", None),
        (client.ServiceClient, "schedule", "wait.client", None),
        (client.ServiceClient, "lease", "wait.client", None),
        (client.ServiceClient, "results", "wait.client", None),
        # fabric: lease claims and result posts
        (coordinator.FabricCoordinator, "claim", "fabric.claim", None),
        (coordinator.FabricCoordinator, "submit_results", "fabric.submit", None),
        (coordinator.FabricCoordinator, "_register_sweep", "fabric.register", None),
    ]


class _ModuleProxy:
    """Stands in for a stdlib module inside one caller module, with some
    of its functions recorded as spans of one name."""

    def __init__(self, module: Any, functions: tuple[str, ...], recorder: SpanRecorder, name: str):
        self._module = module
        for function in functions:
            setattr(self, function, recorder.wrap(getattr(module, function), name))

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._module, attr)


#: Stdlib modules proxied by :func:`instrument`, and the functions traced.
_PROXIED = {json: ("dumps", "loads")}


def instrument(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every patch point with *recorder*; returns the undo function."""
    undo: list[Callable[[], None]] = []
    for owner, attr, name, failed in _patch_points():
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = recorder.wrap(original, name, failed)
            undo.append(functools.partial(owner.__setitem__, attr, original))
            continue
        original = inspect.getattr_static(owner, attr)
        if original in _PROXIED:
            patched: Any = _ModuleProxy(original, _PROXIED[original], recorder, name)
        elif isinstance(original, classmethod):
            patched = classmethod(recorder.wrap(original.__func__, name, failed))
        else:
            patched = recorder.wrap(original, name, failed)
        inherited = isinstance(owner, type) and attr not in owner.__dict__
        setattr(owner, attr, patched)
        if inherited:
            undo.append(functools.partial(delattr, owner, attr))
        else:
            undo.append(functools.partial(setattr, owner, attr, original))

    def restore() -> None:
        for step in reversed(undo):
            step()

    return restore
