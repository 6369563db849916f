"""Register requirements (MaxLive) of a (possibly partial) modulo schedule.

The paper uses no spill code: "those clusters for which the insertion of
this node would increase the register requirements above the number of
available registers are discarded" (Section 5.1).  This module computes the
per-cluster register requirement of a schedule, defined as the classic
MaxLive measure over the modulo-wrapped lifetimes:

* a value produced by node *u* (in cluster *c*) is written to *c*'s
  register file at ``s(u) + lat(u)`` and must stay live until its last
  local read — reads by same-cluster consumers *v* happen at
  ``s(v) + II*dist``, and every bus transfer of the value reads the
  register file (or bypass) at the communication start cycle;
* a value arriving in cluster *c'* over a bus (arrival = comm start +
  bus latency) is stored into *c'*'s file only if some consumer there
  reads it *later* than the arrival cycle (the incoming-value register
  feeds same-cycle consumers directly, Section 3); if stored, it is live
  from arrival until its last read in *c'*;
* a produced value with no scheduled reads yet occupies its destination
  register for one cycle (the write itself).

A lifetime spanning ``len`` cycles contributes to ``len`` (mod II) rows of
the pressure histogram; lifetimes longer than II therefore count multiple
times per row, which models the modulo variable expansion the hardware or
unroller would need.

The histogram is a plain difference array over the II rows: a few
dozen intervals per schedule make interpreter-level integer arithmetic
cheaper than building arrays for them.
"""

from __future__ import annotations

from itertools import accumulate

from ..ir.ddg import DependenceGraph
from .schedule import Communication, ModuloSchedule


def _intervals(
    schedule: ModuloSchedule,
    extra_comms: list[Communication] | None,
) -> list[tuple[int, int, int]]:
    """All live ranges as (cluster, start, end) with end exclusive."""
    graph: DependenceGraph = schedule.graph
    ii = schedule.ii
    bus_latency = schedule.config.buses.latency
    comms = schedule.comms if not extra_comms else schedule.comms + extra_comms

    comms_by_producer: dict[int, list[Communication]] = {}
    for comm in comms:
        comms_by_producer.setdefault(comm.producer, []).append(comm)

    out: list[tuple[int, int, int]] = []
    ops = schedule.ops
    for node, placed in ops.items():
        op = graph.operation(node)
        if not op.writes_register:
            continue
        written = placed.cycle + op.latency
        last_read = written  # the write occupies the register >= 1 cycle
        for dep in graph.flow_consumers(node):
            consumer = ops.get(dep.dst)
            if consumer is None or consumer.cluster != placed.cluster:
                continue  # remote consumers read the communicated copy
            read = consumer.cycle + ii * dep.distance
            if read > last_read:
                last_read = read
        for comm in comms_by_producer.get(node, ()):
            if comm.start_cycle > last_read:
                last_read = comm.start_cycle
        out.append((placed.cluster, written, last_read + 1))

    # Incoming communicated values stored in destination register files.
    for comm in comms:
        arrival = comm.start_cycle + bus_latency
        consumers = graph.flow_consumers(comm.producer)
        for reader_cluster in comm.readers:
            # None sentinel, not -1: partial schedules legally contain
            # negative cycles (backward scans, see engine.py), so a late
            # read at a negative cycle is still a late read.
            last_late_read: int | None = None
            for dep in consumers:
                consumer = ops.get(dep.dst)
                if consumer is None or consumer.cluster != reader_cluster:
                    continue
                read = consumer.cycle + ii * dep.distance
                if read > arrival and (last_late_read is None or read > last_late_read):
                    last_late_read = read
            if last_late_read is not None:
                out.append((reader_cluster, arrival, last_late_read + 1))
    return out


def cluster_pressures(
    schedule: ModuloSchedule,
    *,
    extra_comms: list[Communication] | None = None,
) -> dict[int, int]:
    """MaxLive per cluster for *schedule*.

    ``extra_comms`` lets schedulers evaluate a tentative placement's
    communication plan without mutating the schedule.
    """
    ii = schedule.ii
    n_clusters = schedule.config.n_clusters
    # Whole-II wraps cover every row; a remainder covers rows
    # start .. start+rem-1 (mod II), added to a per-cluster difference array.
    base = [0] * n_clusters
    diffs = [[0] * (ii + 1) for _ in range(n_clusters)]
    for cluster, start, end in _intervals(schedule, extra_comms):
        full, rem = divmod(end - start, ii)
        base[cluster] += full
        if rem:
            diff = diffs[cluster]
            first = start % ii
            stop = first + rem
            diff[first] += 1
            if stop <= ii:
                diff[stop] -= 1
            else:  # wraps past the last row
                diff[0] += 1
                diff[stop - ii] -= 1
    return {c: base[c] + max(accumulate(diffs[c][:ii])) for c in range(n_clusters)}


def mve_factor(schedule: ModuloSchedule) -> int:
    """Modulo-variable-expansion factor of the schedule.

    A value whose lifetime exceeds II would be overwritten by its own
    next-iteration instance; without rotating register files the kernel
    must be replicated ``max_v ceil(lifetime(v) / II)`` times with renamed
    registers (Lam).  The pressure model already *counts* the extra copies
    (wrapped lifetimes contribute once per II spanned); this exposes the
    resulting kernel replication for code-size accounting.
    """
    ii = schedule.ii
    factor = 1
    for _, start, end in _intervals(schedule, None):
        need = -(-(end - start) // ii)  # ceil
        if need > factor:
            factor = need
    return factor


def max_pressure(schedule: ModuloSchedule) -> int:
    """The largest per-cluster MaxLive of the schedule."""
    pressures = cluster_pressures(schedule)
    return max(pressures.values()) if pressures else 0


def pressure_ok(
    schedule: ModuloSchedule,
    *,
    extra_comms: list[Communication] | None = None,
) -> bool:
    """Do all clusters fit in their register files?"""
    limit = schedule.config.regs_per_cluster
    return all(
        p <= limit
        for p in cluster_pressures(schedule, extra_comms=extra_comms).values()
    )
