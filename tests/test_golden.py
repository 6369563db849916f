"""Golden schedule digests: scheduling decisions are pinned byte for byte.

``tests/golden/schedules.json`` holds one sha256 per point of a stratified
subset of the clustered Figure 8 grid (see ``tools/golden_digests.py``).
A change that moves one operation, one transfer or one failed-probe count
fails here; a deliberate behaviour change regenerates the file with
``python tools/golden_digests.py --write`` and records that in CHANGES.md.
"""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "golden_digests.py"


@pytest.fixture(scope="module")
def golden_tool():
    spec = importlib.util.spec_from_file_location("golden_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_covers_stratified_grid(golden_tool):
    labels = [label for label, *_ in golden_tool.golden_points()]
    golden = json.loads(golden_tool.GOLDEN.read_text())
    assert sorted(labels) == sorted(golden)
    assert len(labels) == len(set(labels)) == 2 * 2 * 3 * 3 * 3
    # Every loop of the suite is digested at least once.
    loops = {label.split()[0] for label in labels}
    suite = golden_tool.specfp95_suite()
    assert loops == {loop.name for p in suite for loop in p.eligible_loops()}


def test_schedules_match_golden_digests(golden_tool):
    golden = json.loads(golden_tool.GOLDEN.read_text())
    digests = golden_tool.compute_digests()
    mismatched = sorted(k for k in golden if digests.get(k) != golden[k])
    assert not mismatched, f"{len(mismatched)} schedule(s) changed: {mismatched[:5]}"


def test_digest_sees_failure_counts(golden_tool):
    """The digest covers the FailureLog of every failed attempt."""
    from repro.core.schedule import FailureLog

    label, loop, config, policy = next(iter(golden_tool.golden_points()))
    result = golden_tool.schedule_with_policy(
        loop.graph, golden_tool.make_scheduler("bsa", config), policy
    )
    fields = golden_tool.schedule_fields(result.schedule)
    result.schedule.attempt_failures.append(FailureLog(no_bus=1))
    assert golden_tool.schedule_fields(result.schedule) != fields
