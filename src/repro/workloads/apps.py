"""Analytics application profiles (paper Table 2).

The paper characterizes four representative applications plus Pagerank
(used in the Fig. 4 workflow):

=========  =============  ==================================  ==========
App        I/O-intensive  Dominant phase                      CPU-bound
=========  =============  ==================================  ==========
Sort       shuffle        shuffle I/O between map & reduce    no
Join       shuffle+reduce reduce-side join, many small files  no
Grep       map            sequential input scan               no
KMeans     —              compute in map & reduce iterations  yes
Pagerank   —              same behaviour as KMeans (§3.1.3)   yes
=========  =============  ==================================  ==========

A profile captures everything the simulator and the analytical
estimator need about an application, *independent of cluster or tier*:

* **data selectivities** — how intermediate and output sizes derive
  from the input size;
* **per-task CPU processing rates** per phase — the compute-side rate
  limit in MB/s per task.  Task time over ``d`` bytes on a tier with
  I/O share ``b`` is ``d/b + d/cpu_rate`` (I/O and compute serialize at
  the record level, so rates combine harmonically).  CPU-bound apps
  have low rates here, which is exactly why their runtime is
  tier-insensitive;
* **files per reduce task** — small-file pressure that interacts with
  an object store's per-request overhead (Join on objStore, §3.1.2).

The numeric rates are *calibration inputs to the simulator substrate*,
chosen so the simulated per-tier behaviour reproduces the paper's
measured Fig. 1 orderings; CAST itself never reads them directly — it
consumes phase bandwidths measured by the offline profiler, exactly as
the paper's framework profiles jobs on the real cluster.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Dict, Tuple

__all__ = [
    "AppProfile",
    "SORT",
    "JOIN",
    "GREP",
    "KMEANS",
    "PAGERANK",
    "APP_CATALOG",
    "characterization_table",
]

#: HDFS-era input split size: one map task per 256 MB of input.
SPLIT_GB = 0.25


@dataclass(frozen=True)
class AppProfile:
    """Static, cluster-independent description of one application.

    Attributes
    ----------
    name:
        Application id (``"sort"``...).
    map_selectivity:
        intermediate bytes / input bytes (Sort: 1.0 — no reduction).
    reduce_selectivity:
        output bytes / intermediate bytes.
    cpu_map_mb_s / cpu_shuffle_mb_s / cpu_reduce_mb_s:
        Per-task compute-side processing rate in each phase (MB/s).
        ``inf``-like large values mean the phase is pure I/O.
    files_per_reduce_task:
        Output objects each reduce task creates (GCS-connector request
        overhead multiplies with this on objStore).
    reduce_fraction:
        reduce tasks per map task (``r = max(1, round(f * m))``).
    io_intensive_map / io_intensive_shuffle / io_intensive_reduce:
        Table 2's qualitative flags (for reporting / tests).
    cpu_intensive:
        Table 2's CPU-bound flag.
    """

    name: str
    map_selectivity: float
    reduce_selectivity: float
    cpu_map_mb_s: float
    cpu_shuffle_mb_s: float
    cpu_reduce_mb_s: float
    files_per_reduce_task: int
    reduce_fraction: float
    io_intensive_map: bool
    io_intensive_shuffle: bool
    io_intensive_reduce: bool
    cpu_intensive: bool

    def __post_init__(self) -> None:
        if not (0.0 <= self.map_selectivity):
            raise ValueError(f"{self.name}: bad map selectivity")
        if self.reduce_selectivity < 0:
            raise ValueError(f"{self.name}: bad reduce selectivity")
        for rate in (self.cpu_map_mb_s, self.cpu_shuffle_mb_s, self.cpu_reduce_mb_s):
            if rate <= 0:
                raise ValueError(f"{self.name}: non-positive CPU rate")

    @cached_property
    def fields_json(self) -> str:
        """Every field as canonical JSON, built once per object (the
        simulation cache's key for a job's application)."""
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"),
                          allow_nan=False)

    # -- derived data sizes (L-hat in Table 3) ----------------------------

    def intermediate_gb(self, input_gb: float) -> float:
        """Shuffle data volume produced by the map phase."""
        return input_gb * self.map_selectivity

    def output_gb(self, input_gb: float) -> float:
        """Final output volume written by the reduce phase."""
        return self.intermediate_gb(input_gb) * self.reduce_selectivity

    def footprint_gb(self, input_gb: float) -> float:
        """input + intermediate + output — the Eq. 3 capacity floor."""
        return input_gb + self.intermediate_gb(input_gb) + self.output_gb(input_gb)

    # -- task-count heuristics --------------------------------------------

    def map_tasks(self, input_gb: float) -> int:
        """One map task per 256 MB input split (at least one)."""
        return max(1, int(math.ceil(input_gb / SPLIT_GB)))

    def reduce_tasks(self, n_map_tasks: int) -> int:
        """Reduce parallelism derived from map count."""
        return max(1, int(round(self.reduce_fraction * n_map_tasks)))


# ---------------------------------------------------------------------------
# The five applications.  CPU rates are per task on an n1-standard-16
# slot (≈1.6 vCPU): I/O-bound phases get rates far above any tier's
# per-task bandwidth share; compute phases get rates low enough to be
# the bottleneck on every tier.
# ---------------------------------------------------------------------------

SORT = AppProfile(
    name="sort",
    map_selectivity=1.0,          # no data reduction in map (§3.1.2)
    reduce_selectivity=1.0,
    cpu_map_mb_s=400.0,
    cpu_shuffle_mb_s=500.0,
    cpu_reduce_mb_s=300.0,
    files_per_reduce_task=1,
    reduce_fraction=0.35,
    io_intensive_map=False,
    io_intensive_shuffle=True,
    io_intensive_reduce=False,
    cpu_intensive=False,
)

JOIN = AppProfile(
    name="join",
    map_selectivity=1.0,          # both tables flow to the reducers
    reduce_selectivity=0.6,
    cpu_map_mb_s=350.0,
    cpu_shuffle_mb_s=400.0,
    cpu_reduce_mb_s=120.0,        # reduce-side join logic
    files_per_reduce_task=150,    # analytics query → many small outputs
    reduce_fraction=0.5,
    io_intensive_map=False,
    io_intensive_shuffle=True,
    io_intensive_reduce=True,
    cpu_intensive=False,
)

GREP = AppProfile(
    name="grep",
    map_selectivity=0.001,        # matching records only
    reduce_selectivity=1.0,
    cpu_map_mb_s=600.0,           # pattern scan is nearly free
    cpu_shuffle_mb_s=500.0,
    cpu_reduce_mb_s=300.0,
    files_per_reduce_task=1,
    reduce_fraction=0.02,
    io_intensive_map=True,
    io_intensive_shuffle=False,
    io_intensive_reduce=False,
    cpu_intensive=False,
)

KMEANS = AppProfile(
    name="kmeans",
    map_selectivity=0.0005,       # partial centroid sums
    reduce_selectivity=1.0,
    cpu_map_mb_s=7.0,             # distance computation dominates
    cpu_shuffle_mb_s=400.0,
    cpu_reduce_mb_s=10.0,
    files_per_reduce_task=1,
    reduce_fraction=0.02,
    io_intensive_map=False,
    io_intensive_shuffle=False,
    io_intensive_reduce=False,
    cpu_intensive=True,
)

#: §3.1.3: "Pagerank … exhibits the same behavior as KMeans".
PAGERANK = AppProfile(
    name="pagerank",
    map_selectivity=0.02,         # rank vector updates
    reduce_selectivity=1.0,
    cpu_map_mb_s=8.0,
    cpu_shuffle_mb_s=400.0,
    cpu_reduce_mb_s=11.0,
    files_per_reduce_task=1,
    reduce_fraction=0.05,
    io_intensive_map=False,
    io_intensive_shuffle=False,
    io_intensive_reduce=False,
    cpu_intensive=True,
)

#: All known applications keyed by name.
APP_CATALOG: Dict[str, AppProfile] = {
    app.name: app for app in (SORT, JOIN, GREP, KMEANS, PAGERANK)
}


def characterization_table() -> Tuple[Tuple[str, bool, bool, bool, bool], ...]:
    """Reproduce Table 2: (app, map-I/O, shuffle-I/O, reduce-I/O, CPU).

    Returns rows for the four studied applications in paper order.
    """
    rows = []
    for app in (SORT, JOIN, GREP, KMEANS):
        rows.append(
            (
                app.name,
                app.io_intensive_map,
                app.io_intensive_shuffle,
                app.io_intensive_reduce,
                app.cpu_intensive,
            )
        )
    return tuple(rows)
