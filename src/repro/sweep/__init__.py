"""Cross-catalog sweep engine: amortized multi-catalog solving.

Plans a (catalog × workload × knob) grid and solves it far cheaper
than independent cold solves by sharing per-catalog structure,
transferring incumbent plans between neighboring grid points, and
fanning waves over the process pool — see :mod:`repro.sweep.engine`
for the amortization and exactness contracts, and ``docs/SWEEP.md``
for the design write-up.
"""

from .engine import (
    SweepConfig,
    SweepEngine,
    SweepPointResult,
    SweepResult,
)
from .grid import SweepPoint, plan_grid

__all__ = [
    "SweepConfig",
    "SweepEngine",
    "SweepPoint",
    "SweepPointResult",
    "SweepResult",
    "plan_grid",
]
