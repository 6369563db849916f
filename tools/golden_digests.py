#!/usr/bin/env python3
"""Golden schedule digests: one sha256 per scenario point.

A digest covers everything a scheduling decision can change: II, SC and
unroll factor, each operation's (cycle, cluster, FU), every
communication's (producer, source cluster, bus, start, readers) and the
``FailureLog`` counts of each failed II attempt, for the emitted schedule
and for the non-unrolled base schedule when the policy built one.  A
change that moves one operation, or fails one probe for another reason,
changes the digest of its point.

The points are a stratified subset of the clustered Figure 8 grid: every
(clusters, buses, latency, policy) scenario — 2/4 clusters x 1/2 buses x
latency 1/2/4 x the three unroll policies — paired with three loops of the
SPECfp95-like suite, walking the loop list so that every loop is covered.

Run from the repository root::

    python tools/golden_digests.py           # check tests/golden against the code
    python tools/golden_digests.py --write   # regenerate after a deliberate change

A deliberate behaviour change regenerates the file and says so in
CHANGES.md; ``tests/test_golden.py`` runs the check in tier-1.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "schedules.json"
LOOPS_PER_SCENARIO = 3

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.arch.configs import PAPER_BUS_COUNTS, PAPER_BUS_LATENCIES  # noqa: E402
from repro.core.selective import schedule_with_policy  # noqa: E402
from repro.errors import SchedulingError  # noqa: E402
from repro.experiments.common import paper_machine  # noqa: E402
from repro.experiments.fig8 import POLICIES  # noqa: E402
from repro.runner.engine import make_scheduler  # noqa: E402
from repro.workloads.specfp import specfp95_suite  # noqa: E402


def golden_points():
    """``(label, loop, config, policy)`` for every digested point."""
    loops = [loop for program in specfp95_suite() for loop in program.eligible_loops()]
    scenarios = itertools.product(
        (2, 4), PAPER_BUS_COUNTS, PAPER_BUS_LATENCIES, POLICIES
    )
    for j, (clusters, buses, latency, policy) in enumerate(scenarios):
        config = paper_machine(clusters, buses, latency)
        for b in range(LOOPS_PER_SCENARIO):
            loop = loops[(LOOPS_PER_SCENARIO * j + b) % len(loops)]
            label = f"{loop.name} {clusters}c-{buses}b-lat{latency} {policy.value}"
            yield label, loop, config, policy


def schedule_fields(schedule) -> dict:
    """The decision-bearing content of one modulo schedule."""
    return {
        "ii": schedule.ii,
        "sc": schedule.stage_count,
        "ops": [
            [op.node, op.cycle, op.cluster, op.fu_index]
            for op in sorted(schedule.ops.values(), key=lambda o: o.node)
        ],
        "comms": [
            [c.producer, c.src_cluster, c.bus, c.start_cycle, sorted(c.readers)]
            for c in schedule.comms
        ],
        "failures": [
            [f.no_fu, f.no_bus, f.register_pressure, f.dependence_window]
            for f in schedule.attempt_failures
        ],
    }


def point_digest(loop, config, policy) -> str:
    """sha256 of one point's schedule (or of its scheduling failure)."""
    try:
        result = schedule_with_policy(loop.graph, make_scheduler("bsa", config), policy)
    except SchedulingError as exc:
        content: dict = {"error": str(exc)}
    else:
        content = {
            "unroll_factor": result.unroll_factor,
            "schedule": schedule_fields(result.schedule),
            "base": (
                None
                if result.base_schedule is None
                else schedule_fields(result.base_schedule)
            ),
        }
    text = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def compute_digests() -> dict[str, str]:
    return {
        label: point_digest(loop, config, policy)
        for label, loop, config, policy in golden_points()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--write", action="store_true", help="regenerate the golden file"
    )
    args = parser.parse_args(argv)
    digests = compute_digests()
    if args.write:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(digests)} digest(s) to {GOLDEN.relative_to(ROOT)}")
        return 0
    golden = json.loads(GOLDEN.read_text())
    labels = golden.keys() | digests.keys()
    bad = sorted(k for k in labels if golden.get(k) != digests.get(k))
    for label in bad:
        print(f"MISMATCH {label}")
    print(f"{len(digests)} point(s), {len(bad)} mismatch(es)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
