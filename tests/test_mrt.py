"""Unit tests for the modulo reservation table."""

import random

import pytest

from repro.arch.configs import four_cluster_config, two_cluster_config, unified_config
from repro.core.mrt import ReservationTable
from repro.errors import SchedulingError
from repro.ir.operation import FuClass


class TestFuTables:
    def test_occupy_and_conflict(self):
        mrt = ReservationTable(four_cluster_config(), ii=4)
        unit = mrt.occupy_fu(0, FuClass.FP, 2, "a")
        assert unit == 0
        assert not mrt.fu_slot_free(0, FuClass.FP, 2)
        with pytest.raises(SchedulingError):
            mrt.occupy_fu(0, FuClass.FP, 2, "b")

    def test_modulo_wrapping(self):
        mrt = ReservationTable(four_cluster_config(), ii=3)
        mrt.occupy_fu(0, FuClass.INT, 1, "a")
        # cycle 4 maps to row 1 -> occupied
        assert not mrt.fu_slot_free(0, FuClass.INT, 4)
        assert mrt.fu_slot_free(0, FuClass.INT, 5)

    def test_negative_cycles_wrap(self):
        mrt = ReservationTable(four_cluster_config(), ii=4)
        mrt.occupy_fu(0, FuClass.MEM, -1, "a")  # row 3
        assert not mrt.fu_slot_free(0, FuClass.MEM, 3)

    def test_units_fill_in_order(self):
        mrt = ReservationTable(unified_config(), ii=2)
        units = [mrt.occupy_fu(0, FuClass.FP, 0, f"op{i}") for i in range(4)]
        assert units == [0, 1, 2, 3]
        assert not mrt.fu_slot_free(0, FuClass.FP, 0)
        assert mrt.fu_slot_free(0, FuClass.FP, 1)

    def test_release(self):
        mrt = ReservationTable(four_cluster_config(), ii=2)
        unit = mrt.occupy_fu(1, FuClass.INT, 0, "a")
        mrt.release_fu(1, FuClass.INT, 0, unit, "a")
        assert mrt.fu_slot_free(1, FuClass.INT, 0)

    def test_release_wrong_owner_rejected(self):
        mrt = ReservationTable(four_cluster_config(), ii=2)
        unit = mrt.occupy_fu(1, FuClass.INT, 0, "a")
        with pytest.raises(SchedulingError):
            mrt.release_fu(1, FuClass.INT, 0, unit, "b")

    def test_clusters_are_independent(self):
        mrt = ReservationTable(four_cluster_config(), ii=2)
        mrt.occupy_fu(0, FuClass.FP, 0, "a")
        assert mrt.fu_slot_free(1, FuClass.FP, 0)

    def test_bad_ii_rejected(self):
        with pytest.raises(SchedulingError):
            ReservationTable(unified_config(), ii=0)


class TestBusTables:
    def test_bus_latency_rows(self):
        cfg = two_cluster_config(n_buses=1, bus_latency=2)
        mrt = ReservationTable(cfg, ii=4)
        assert mrt.bus_rows(3) == [3, 0]  # wraps

    def test_occupy_blocks_whole_transfer(self):
        cfg = two_cluster_config(n_buses=1, bus_latency=2)
        mrt = ReservationTable(cfg, ii=4)
        bus = mrt.bus_free(0)
        assert bus == 0
        mrt.occupy_bus(0, bus, "t0")
        assert mrt.bus_free(0) is None  # rows 0,1 taken
        assert mrt.bus_free(1) is None  # rows 1,2 -> 1 taken
        assert mrt.bus_free(2) == 0  # rows 2,3 free

    def test_second_bus_picked_up(self):
        cfg = two_cluster_config(n_buses=2, bus_latency=1)
        mrt = ReservationTable(cfg, ii=2)
        mrt.occupy_bus(0, 0, "a")
        assert mrt.bus_free(0) == 1

    def test_transfer_longer_than_ii_impossible(self):
        cfg = two_cluster_config(n_buses=1, bus_latency=4)
        mrt = ReservationTable(cfg, ii=3)
        assert mrt.bus_free(0) is None

    def test_no_buses_machine(self):
        mrt = ReservationTable(unified_config(), ii=4)
        assert mrt.bus_free(0) is None
        assert mrt.bus_utilisation() == 0.0

    def test_release_bus(self):
        cfg = two_cluster_config(n_buses=1, bus_latency=2)
        mrt = ReservationTable(cfg, ii=4)
        mrt.occupy_bus(1, 0, "t")
        mrt.release_bus(1, 0, "t")
        assert mrt.bus_free(1) == 0


class TestUtilisation:
    def test_bus_utilisation(self):
        cfg = two_cluster_config(n_buses=1, bus_latency=2)
        mrt = ReservationTable(cfg, ii=4)
        mrt.occupy_bus(0, 0, "t")
        assert mrt.bus_utilisation() == pytest.approx(0.5)

    def test_fu_utilisation(self):
        cfg = four_cluster_config()
        mrt = ReservationTable(cfg, ii=1)
        # 12 FU cells at II=1; occupy 3.
        mrt.occupy_fu(0, FuClass.INT, 0, "a")
        mrt.occupy_fu(0, FuClass.FP, 0, "b")
        mrt.occupy_fu(1, FuClass.MEM, 0, "c")
        assert mrt.fu_utilisation() == pytest.approx(3 / 12)


def _scratch_start_busy(mrt, start):
    """Buses busy in some row of a transfer at *start*, from the row masks."""
    busy = 0
    for row in mrt.bus_rows(start):
        busy |= mrt._bus.masks[row]
    return busy


def _check_start_cache(mrt, rng):
    ii, full = mrt.ii, mrt._bus.full
    for start in range(-ii, 2 * ii):
        busy = _scratch_start_busy(mrt, start)
        assert mrt.start_busy[start % ii] == busy
        assert mrt.bus_occupancy(start) == busy
        extra = rng.randrange(full + 1)
        free = ~(busy | extra) & full
        if mrt.config.buses.latency > ii or not free:
            expected = None
        else:
            expected = (free & -free).bit_length() - 1
        assert mrt.bus_free(start, extra) == expected


class TestStartRowCache:
    """The cached start-row occupancy always equals a from-scratch OR of the
    bus row masks, over random occupy/release sequences."""

    @pytest.mark.parametrize("ii", range(1, 9))
    @pytest.mark.parametrize("latency", [1, 2, 3, 4])
    @pytest.mark.parametrize("buses", [1, 2])
    def test_random_occupy_release(self, ii, latency, buses):
        rng = random.Random(ii * 100 + latency * 10 + buses)
        cfg = two_cluster_config(n_buses=buses, bus_latency=latency)
        mrt = ReservationTable(cfg, ii)
        live: list[tuple[int, int, str]] = []
        _check_start_cache(mrt, rng)
        for step in range(60):
            if live and rng.random() < 0.4:
                start, bus, owner = live.pop(rng.randrange(len(live)))
                mrt.release_bus(start, bus, owner)
            else:
                start = rng.randrange(-2 * ii, 3 * ii)
                bus = mrt.bus_free(start)
                if bus is None:
                    bus = rng.randrange(buses)
                owner = f"t{step}"
                try:
                    mrt.occupy_bus(start, bus, owner)
                except SchedulingError:
                    # A conflict (always, for latency > II) may leave some
                    # rows claimed; the cache must still follow the masks.
                    assert latency > ii or _scratch_start_busy(mrt, start)
                else:
                    live.append((start, bus, owner))
            _check_start_cache(mrt, rng)

    def test_release_frees_only_the_overlapping_starts(self):
        mrt = ReservationTable(two_cluster_config(n_buses=1, bus_latency=2), ii=6)
        mrt.occupy_bus(2, 0, "a")
        mrt.occupy_bus(4, 0, "b")
        # start s needs rows s and s+1: only start 0 (rows 0, 1) is free
        assert [mrt.bus_free(s) for s in range(6)] == [0, None, None, None, None, None]
        mrt.release_bus(2, 0, "a")
        assert [mrt.bus_free(s) for s in range(6)] == [0, 0, 0, None, None, None]
