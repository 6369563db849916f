"""Unit tests for the incremental MaxLive tracker (repro.core.pressure).

The end-to-end equivalence with ``cluster_pressures`` after every commit
is property-tested in test_property_schedulers.py; these tests cover the
pieces engines do not exercise: attaching to a non-empty schedule,
negative-cycle intervals, and probe non-mutation.
"""

import random

from repro.arch.configs import two_cluster_config
from repro.core.comm import AddReader, CommPlan, NewTransfer
from repro.core.lifetimes import cluster_pressures
from repro.core.pressure import PressureTracker, _cover, _delta_pieces
from repro.core.schedule import Communication, ModuloSchedule, ScheduledOp
from repro.ir.ddg import DependenceGraph


def chain_graph(n=3, op="fadd"):
    g = DependenceGraph("chain")
    ids = [g.add_operation(op) for _ in range(n)]
    for a, b in zip(ids, ids[1:]):
        g.add_dependence(a, b)
    return g, ids


class TestRebuild:
    def test_attaches_to_populated_schedule(self):
        g, (a, b, c) = chain_graph()
        s = ModuloSchedule(g, two_cluster_config(1, 2), ii=6)
        s.place(ScheduledOp(a, 0, 0, 0))
        s.place(ScheduledOp(b, 4, 0, 0))
        s.place(ScheduledOp(c, 11, 1, 0))
        s.add_comm(Communication(b, 0, 0, start_cycle=8, readers=frozenset({1})))
        tracker = PressureTracker(s)  # __init__ rebuilds from the state
        assert tracker.pressures() == cluster_pressures(s)

    def test_rebuild_with_negative_cycles(self):
        g, (a, b, c) = chain_graph()
        s = ModuloSchedule(g, two_cluster_config(1, 2), ii=5)
        s.place(ScheduledOp(a, -11, 0, 0))
        s.place(ScheduledOp(b, -7, 0, 0))
        s.place(ScheduledOp(c, -1, 1, 0))
        s.add_comm(Communication(b, 0, 0, start_cycle=-4, readers=frozenset({1})))
        tracker = PressureTracker(s)
        assert tracker.pressures() == cluster_pressures(s)


class TestProbe:
    def setup_schedule(self):
        g, (a, b, c) = chain_graph()
        s = ModuloSchedule(g, two_cluster_config(1, 2), ii=6)
        s.place(ScheduledOp(a, 0, 0, 0))
        s.place(ScheduledOp(b, 4, 0, 0))
        return g, s, (a, b, c)

    def test_probe_equals_scratch_overlay(self):
        g, s, (a, b, c) = self.setup_schedule()
        tracker = PressureTracker(s)
        plan = CommPlan(
            new_transfers=[
                NewTransfer(producer=b, src_cluster=0, bus=0, start_cycle=8, reader=1)
            ],
            added_readers=[],
        )
        touched = tracker.probe(c, 1, 12, plan)
        # scratch overlay: place c and add the comm, recompute, undo
        s.ops[c] = ScheduledOp(c, 12, 1, -1)
        scratch = cluster_pressures(s, extra_comms=plan.pressure_comms())
        del s.ops[c]
        for cluster, pressure in touched.items():
            assert pressure == scratch[cluster]

    def test_probe_does_not_mutate(self):
        g, s, (a, b, c) = self.setup_schedule()
        tracker = PressureTracker(s)
        before = dict(tracker.pressures())
        plan = CommPlan(new_transfers=[], added_readers=[])
        tracker.probe(c, 0, 12, plan)
        assert c not in s.ops
        assert tracker.pressures() == before
        assert tracker.pressures() == cluster_pressures(s)

    def test_added_reader_probe(self):
        g, s, (a, b, c) = self.setup_schedule()
        comm = Communication(b, 0, 0, start_cycle=8, readers=frozenset())
        s.add_comm(comm)
        tracker = PressureTracker(s)
        plan = CommPlan(
            new_transfers=[], added_readers=[AddReader(existing=comm, reader=1)]
        )
        touched = tracker.probe(c, 1, 12, plan)
        s.ops[c] = ScheduledOp(c, 12, 1, -1)
        scratch = cluster_pressures(s, extra_comms=plan.pressure_comms())
        del s.ops[c]
        for cluster, pressure in touched.items():
            assert pressure == scratch[cluster]


class TestHistogramDelta:
    """Replacing an entry's interval adds only the signed pieces of
    ``_delta_pieces``; their row coverage must equal new minus old."""

    @staticmethod
    def coverage(interval, ii, n_clusters=2):
        """Per-cluster count of cycles in the interval at each MRT row."""
        cov = [[0] * ii for _ in range(n_clusters)]
        if interval is not None:
            cluster, start, end = interval
            for t in range(start, end):
                cov[cluster][t % ii] += 1
        return cov

    def test_pieces_cover_new_minus_old(self):
        rng = random.Random(5)
        for _ in range(2000):
            ii = rng.randint(1, 7)

            def interval():
                if rng.random() < 0.15:
                    return None
                start = rng.randint(-10, 10)
                return (rng.randrange(2), start, start + rng.randint(1, 20))

            old = interval()
            if old is not None and rng.random() < 0.6:
                # The common case: same register and start, the end moved.
                new = (old[0], old[1], old[1] + rng.randint(1, 20))
            else:
                new = interval()
            if old == new:
                continue
            rows = [[0] * ii for _ in range(2)]
            for cluster, start, end, sign in _delta_pieces(old, new):
                fulls = _cover(rows[cluster], start, end, sign, ii)
                rows[cluster] = [r + sign * fulls for r in rows[cluster]]
            before, after = self.coverage(old, ii), self.coverage(new, ii)
            expected = [
                [a - b for a, b in zip(after[c], before[c])] for c in range(2)
            ]
            assert rows == expected, (old, new, ii)
