"""Incremental register-pressure (MaxLive) tracking for placement search.

:func:`repro.core.lifetimes.cluster_pressures` rebuilds every live range
of the schedule from scratch; placement engines used to call it once per
*candidate cycle*, making it the hottest path in the package.  This module
maintains the same model incrementally on the live
:class:`~repro.core.schedule.ModuloSchedule`:

* the per-cluster pressure histogram (one counter per MRT row, plus a
  scalar for whole-II wraps) is kept up to date as placements commit;
* a tentative placement is evaluated as a *delta*: only the intervals the
  new node can affect — its own produced value, same-cluster producers it
  reads, and the communications its plan would add — are recomputed and
  overlaid on the committed histogram;
* committing a placement re-derives exactly those intervals and folds the
  difference into the histogram.

The interval semantics are identical to ``lifetimes._intervals`` (the two
are cross-checked by a property test after every commit); pressures are
therefore *exactly* equal to a from-scratch recomputation, not an
approximation — schedules are byte-identical with and without tracking.

The unit of bookkeeping is an *entry*: either the produced-value interval
of one node (keyed by the node id) or the stored-incoming-value interval
of one (communication, reader cluster) pair (keyed by ``(producer, bus,
start, reader)``).  A placement changes a small, statically enumerable set
of entries (:meth:`PressureTracker._changed_entries`), which is what makes
the delta evaluation sound:

* a produced interval ends at the last same-cluster read or communication
  start of that value — only a new same-cluster consumer or a new
  transfer of the value can move it;
* an incoming interval ends at the last late read in the reader cluster —
  only a new consumer in that cluster (or a brand-new transfer/reader)
  can move it;
* remote consumers never touch a producer interval (they read the
  communicated copy), so placements in other clusters are unaffected.
"""

from __future__ import annotations

from operator import add

from ..ir.ddg import DependenceGraph
from .comm import CommPlan, empty_plan
from .schedule import ModuloSchedule, ScheduledOp

#: An interval: (cluster, start, end) with end exclusive, end > start.
Interval = tuple[int, int, int]


class PressureTracker:
    """Exact incremental MaxLive per cluster for one live schedule."""

    def __init__(self, schedule: ModuloSchedule):
        self.schedule = schedule
        self.graph = schedule.graph
        self.ii = schedule.ii
        self.n_clusters = schedule.config.n_clusters
        self._bus_latency = schedule.config.buses.latency
        self._limit = schedule.config.regs_per_cluster
        #: Remainder histogram per cluster (one counter per MRT row).
        self._hist: list[list[int]] = [
            [0] * self.ii for _ in range(self.n_clusters)
        ]
        #: Whole-II wraps per cluster (cover every row uniformly).
        self._base: list[int] = [0] * self.n_clusters
        self._max: list[int] = [0] * self.n_clusters
        self._dirty: list[bool] = [False] * self.n_clusters
        self._entries: dict[int | tuple, Interval] = {}
        self._result_latency, self._consumers = self.graph.derived(
            "pressure_flows", lambda: _flow_tables(self.graph)
        )
        if schedule.ops or schedule.comms:
            self.rebuild()

    # ------------------------------------------------------------------
    # Entry recomputation (must mirror lifetimes._intervals exactly)
    # ------------------------------------------------------------------
    def _producer_interval(
        self, node: int, extra_starts: tuple[int, ...] | list[int] = ()
    ) -> Interval | None:
        """The produced-value live range of *node*, or None."""
        ops = self.schedule.ops
        placed = ops.get(node)
        if placed is None:
            return None
        latency = self._result_latency[node]
        if latency is None:
            return None
        ii = self.ii
        cluster = placed.cluster
        written = placed.cycle + latency
        last_read = written  # the write occupies the register >= 1 cycle
        for dst, distance in self._consumers[node]:
            consumer = ops.get(dst)
            # Remote consumers read the communicated copy.
            if consumer is not None and consumer.cluster == cluster:
                read = consumer.cycle + ii * distance
                if read > last_read:
                    last_read = read
        for comm in self.schedule.comms_for(node):
            if comm.start_cycle > last_read:
                last_read = comm.start_cycle
        for start in extra_starts:
            if start > last_read:
                last_read = start
        return (cluster, written, last_read + 1)

    def _incoming_interval(
        self, producer: int, start_cycle: int, reader: int
    ) -> Interval | None:
        """The stored-incoming-value range in *reader*'s file, or None."""
        ops = self.schedule.ops
        ii = self.ii
        arrival = start_cycle + self._bus_latency
        last_late_read: int | None = None
        for dst, distance in self._consumers[producer]:
            consumer = ops.get(dst)
            if consumer is None or consumer.cluster != reader:
                continue
            read = consumer.cycle + ii * distance
            if read > arrival and (last_late_read is None or read > last_late_read):
                last_late_read = read
        if last_late_read is None:
            return None  # bypassed: every read happens at arrival
        return (reader, arrival, last_late_read + 1)

    # ------------------------------------------------------------------
    # Histogram maintenance
    # ------------------------------------------------------------------
    def _set(self, key: int | tuple, interval: Interval | None) -> None:
        old = self._entries.get(key)
        if old == interval:
            return
        ii = self.ii
        for cluster, start, end, sign in _delta_pieces(old, interval):
            self._base[cluster] += sign * _cover(
                self._hist[cluster], start, end, sign, ii
            )
            self._dirty[cluster] = True
        if interval is not None:
            self._entries[key] = interval
        else:
            del self._entries[key]

    def cluster_max(self, cluster: int) -> int:
        """Committed MaxLive of *cluster* (cached between commits)."""
        if self._dirty[cluster]:
            self._max[cluster] = self._base[cluster] + max(self._hist[cluster])
            self._dirty[cluster] = False
        return self._max[cluster]

    def pressures(self) -> dict[int, int]:
        """Committed MaxLive for every cluster (== ``cluster_pressures``)."""
        return {c: self.cluster_max(c) for c in range(self.n_clusters)}

    # ------------------------------------------------------------------
    # The affected-entry set of one placement
    # ------------------------------------------------------------------
    def _changed_entries(
        self, node: int, cluster: int, plan: CommPlan
    ) -> dict[int | tuple, Interval | None]:
        """Recompute every entry the placement can affect.

        Must be called with *node* present in ``schedule.ops``; plan
        transfers are overlaid (they are not committed yet).
        """
        ops = self.schedule.ops
        flow_producers = self.graph.flow_producers(node)
        extra_starts: dict[int, list[int]] = {}
        for t in plan.new_transfers:
            extra_starts.setdefault(t.producer, []).append(t.start_cycle)
        # Added readers reuse an existing (or same-plan) transfer: its
        # start cycle already bounds the producer interval, so they add
        # no extra start.

        changed: dict[int | tuple, Interval | None] = {}
        producers = {node}
        for dep in flow_producers:
            placed = ops.get(dep.src)
            if placed is not None and placed.cluster == cluster:
                producers.add(dep.src)
        producers.update(extra_starts)
        for u in producers:
            changed[u] = self._producer_interval(u, extra_starts.get(u, ()))
        # Incoming values this node reads late in its cluster: committed
        # transfers of its producers that already deliver to `cluster`.
        for dep in flow_producers:
            for comm in self.schedule.comms_for(dep.src):
                if cluster in comm.readers:
                    key = (comm.producer, comm.bus, comm.start_cycle, cluster)
                    changed[key] = self._incoming_interval(
                        comm.producer, comm.start_cycle, cluster
                    )
        # Transfers the plan would create, and readers it would add.
        for t in plan.new_transfers:
            key = (t.producer, t.bus, t.start_cycle, t.reader)
            changed[key] = self._incoming_interval(t.producer, t.start_cycle, t.reader)
        for a in plan.added_readers:
            e = a.existing
            key = (e.producer, e.bus, e.start_cycle, a.reader)
            changed[key] = self._incoming_interval(e.producer, e.start_cycle, a.reader)
        return changed

    # ------------------------------------------------------------------
    # Tentative evaluation
    # ------------------------------------------------------------------
    def probe(self, node: int, cluster: int, cycle: int, plan: CommPlan) -> dict[int, int]:
        """MaxLive of every cluster a tentative placement would touch.

        Returns ``{cluster: pressure}`` for *affected* clusters only;
        untouched clusters keep :meth:`cluster_max`.
        """
        ops = self.schedule.ops
        ops[node] = ScheduledOp(node, cycle, cluster, -1)
        try:
            changed = self._changed_entries(node, cluster, plan)
        finally:
            del ops[node]

        entries = self._entries
        deltas: dict[int, list[tuple[int, int, int]]] = {}
        for key, new_iv in changed.items():
            old_iv = entries.get(key)
            if old_iv != new_iv:
                for c, start, end, sign in _delta_pieces(old_iv, new_iv):
                    deltas.setdefault(c, []).append((start, end, sign))

        ii = self.ii
        result: dict[int, int] = {}
        for c, pieces in deltas.items():
            base = self._base[c]
            diff = [0] * ii
            for start, end, sign in pieces:
                base += sign * _cover(diff, start, end, sign, ii)
            result[c] = base + max(map(add, self._hist[c], diff))
        return result

    def placement_fits(self, node: int, cluster: int, cycle: int, plan: CommPlan) -> bool:
        """Would every cluster still fit its register file?"""
        limit = self._limit
        touched = self.probe(node, cluster, cycle, plan)
        for pressure in touched.values():
            if pressure > limit:
                return False
        for c in range(self.n_clusters):
            if c not in touched and self.cluster_max(c) > limit:
                return False
        return True

    def placement_pressure(self, node: int, cluster: int, cycle: int, plan: CommPlan) -> int:
        """MaxLive of *cluster* if the placement were committed."""
        touched = self.probe(node, cluster, cycle, plan)
        return touched.get(cluster, self.cluster_max(cluster))

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------
    def commit(self, node: int, cluster: int, plan: CommPlan) -> None:
        """Fold a just-committed placement into the histograms.

        Call *after* the engine has placed the node and registered the
        plan's communications on the schedule (the recomputation reads
        the committed state, so plan overlays are no longer needed).
        """
        changed = self._changed_entries(node, cluster, empty_plan())
        # _changed_entries overlays nothing here, but must still visit the
        # plan's entries — enumerate them from the committed comms.
        for t in plan.new_transfers:
            changed[t.producer] = self._producer_interval(t.producer)
            key = (t.producer, t.bus, t.start_cycle, t.reader)
            changed[key] = self._incoming_interval(t.producer, t.start_cycle, t.reader)
        for a in plan.added_readers:
            e = a.existing
            key = (e.producer, e.bus, e.start_cycle, a.reader)
            changed[key] = self._incoming_interval(e.producer, e.start_cycle, a.reader)
        for key, interval in changed.items():
            self._set(key, interval)

    # ------------------------------------------------------------------
    # Full rebuild (initialisation and the backtrack escape hatch)
    # ------------------------------------------------------------------
    def rebuild(self) -> None:
        """Re-derive every entry from the schedule (O(schedule) fallback).

        Engines start from empty schedules and commit monotonically; a
        scheduler that *removes* placements (backtracking) must call this
        after mutating the schedule — per-entry invalidation of a removal
        is not supported.
        """
        for c in range(self.n_clusters):
            self._hist[c] = [0] * self.ii
            self._base[c] = 0
            self._dirty[c] = True
        self._entries = {}
        sched = self.schedule
        for node in sched.ops:
            self._set(node, self._producer_interval(node))
        for comm in sched.comms:
            for reader in comm.readers:
                key = (comm.producer, comm.bus, comm.start_cycle, reader)
                self._set(
                    key, self._incoming_interval(comm.producer, comm.start_cycle, reader)
                )


def _cover(rows: list[int], start: int, end: int, sign: int, ii: int) -> int:
    """Add *sign* to the rows of ``[start, end)`` left over after whole
    wraps of II; returns the number of whole wraps (which cover every row
    once each and so belong to the scalar base)."""
    fulls, rem = divmod(end - start, ii)
    row = start % ii
    stop = row + rem
    if stop <= ii:
        for r in range(row, stop):
            rows[r] += sign
    else:
        for r in range(row, ii):
            rows[r] += sign
        for r in range(stop - ii):
            rows[r] += sign
    return fulls


def _delta_pieces(
    old: Interval | None, new: Interval | None
) -> tuple[tuple[int, int, int, int], ...]:
    """Signed ``(cluster, start, end, sign)`` pieces whose row coverage
    sums to that of *new* minus that of *old*.

    An entry that changes usually keeps its register and start and only
    moves its end (a new late read or transfer extends a live range), so
    the difference is the short stretch between the two ends rather than
    both whole intervals.
    """
    if old is None:
        return ((*new, 1),)
    if new is None:
        return ((*old, -1),)
    cluster, start, old_end = old
    if new[0] == cluster and new[1] == start:
        new_end = new[2]
        if new_end > old_end:
            return ((cluster, old_end, new_end, 1),)
        return ((cluster, new_end, old_end, -1),)
    return ((*old, -1), (*new, 1))


def _flow_tables(graph: DependenceGraph) -> tuple[dict, dict]:
    """Per-node ``(result_latency, consumers)`` of *graph*: the latency of
    a node that writes a register (None otherwise) and its flow consumers
    as ``(consumer, distance)`` pairs — what the interval recomputation
    reads, without per-call graph lookups."""
    result_latency = {}
    consumers = {}
    for op in graph.operations():
        node = op.node_id
        result_latency[node] = op.latency if op.writes_register else None
        consumers[node] = tuple((d.dst, d.distance) for d in graph.flow_consumers(node))
    return result_latency, consumers
