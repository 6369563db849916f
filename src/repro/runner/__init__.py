"""Parallel, cache-backed experiment engine.

Every figure in the paper is a grid sweep: thousands of
(loop x machine x scheduler x unrolling-policy) points, each of which
schedules — and for cross-validation also simulates — one loop.  This
package decomposes such sweeps into hashable, self-describing
:class:`~repro.runner.scenario.ScenarioPoint` work units and provides:

* :mod:`repro.runner.scenario` — the work-unit and result records, and
  the canonical hashing that makes them content-addressable;
* :mod:`repro.runner.cache` — a content-addressed on-disk result cache
  (key = scenario hash + code version) so interrupted sweeps resume for
  free and repeated figures skip scheduling entirely;
* :mod:`repro.runner.engine` — point execution, the scheduler registry,
  and :func:`~repro.runner.engine.run_sweep`, the one resolver from
  points to results (memo, cache, deterministic sharding of the misses
  across a ``ProcessPoolExecutor``, counting);
* :mod:`repro.runner.grids` — the named-grid registry behind the
  ``repro-vliw sweep`` command.

The experiment harnesses in :mod:`repro.experiments` are thin layers on
top: their nested loops are grid declarations, and
:class:`~repro.experiments.common.ExperimentContext` memoises runner
results in-process while delegating persistence to the shared cache.
See ``docs/ARCHITECTURE.md`` for the full data-flow.
"""

from .cache import CacheStats, ResultCache, default_cache_root, default_code_version
from .engine import (
    SCHEDULERS,
    SweepStats,
    execute_point,
    execute_points,
    make_scheduler,
    make_worker_pool,
    run_sweep,
    scheduler_table,
    sequential_fallback,
)
from .grids import GRIDS, GridSpec
from .scenario import (
    GridItem,
    PointResult,
    ScenarioPoint,
    graph_content_hash,
    machine_to_json,
    program_payload,
    scenario_for,
)

__all__ = [
    "GRIDS",
    "GridItem",
    "GridSpec",
    "CacheStats",
    "PointResult",
    "ResultCache",
    "SCHEDULERS",
    "ScenarioPoint",
    "SweepStats",
    "default_cache_root",
    "default_code_version",
    "execute_point",
    "execute_points",
    "graph_content_hash",
    "machine_to_json",
    "make_scheduler",
    "make_worker_pool",
    "program_payload",
    "run_sweep",
    "scenario_for",
    "scheduler_table",
]
