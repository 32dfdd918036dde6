"""Workload specification: jobs, reuse sets, whole workloads.

A *workload* (``J`` in Table 3) is the unit CAST plans for: a set of
jobs, each running one application over an input of known size, plus
two cross-job structures the paper §3.1.3 shows matter for placement:

* **reuse sets** — groups of jobs reading the same input dataset, with
  a *reuse lifetime* (how long the data stays warm: ~1 hour or ~1 week
  in the paper's analysis) and a number of re-accesses;
* **workflows** — job DAGs with deadlines (see
  :mod:`repro.workloads.workflow`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Tuple

from ..errors import WorkloadError
from .apps import APP_CATALOG, AppProfile

__all__ = [
    "JobSpec",
    "ReuseLifetime",
    "ReuseSet",
    "ReuseEntry",
    "WorkloadSpec",
]


class ReuseLifetime(str, enum.Enum):
    """Data-reuse lifetimes studied in §3.1.3 / Fig. 3.

    ``SHORT`` — re-accesses spread over one hour (every ~8 min);
    ``LONG`` — re-accesses spread over one week (daily).
    """

    NONE = "no-reuse"
    SHORT = "1-hr"
    LONG = "1-week"

    @property
    def window_seconds(self) -> float:
        """Total period over which the re-accesses happen."""
        if self is ReuseLifetime.NONE:
            return 0.0
        if self is ReuseLifetime.SHORT:
            return 3600.0
        return 7 * 24 * 3600.0


@dataclass(frozen=True)
class JobSpec:
    """One analytics job (a row of ``L-hat`` in Table 3).

    Attributes
    ----------
    job_id:
        Unique id within the workload.
    app:
        The :class:`~repro.workloads.apps.AppProfile` being run.
    input_gb:
        Input dataset size in GB.
    n_maps / n_reduces:
        Task parallelism; derived from the app's heuristics when not
        given explicitly (SWIM traces specify ``n_maps`` directly).
    """

    job_id: str
    app: AppProfile
    input_gb: float
    n_maps: Optional[int] = None
    n_reduces: Optional[int] = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.input_gb):
            raise WorkloadError(f"{self.job_id}: non-finite input {self.input_gb} GB")
        if self.input_gb <= 0:
            raise WorkloadError(f"{self.job_id}: non-positive input {self.input_gb} GB")
        if self.n_maps is not None and self.n_maps <= 0:
            raise WorkloadError(f"{self.job_id}: non-positive map count")
        if self.n_reduces is not None and self.n_reduces <= 0:
            raise WorkloadError(f"{self.job_id}: non-positive reduce count")

    @property
    def map_tasks(self) -> int:
        """Map-task count (explicit or derived from the input size)."""
        if self.n_maps is not None:
            return self.n_maps
        return self.app.map_tasks(self.input_gb)

    @property
    def reduce_tasks(self) -> int:
        """Reduce-task count (explicit or derived from the map count)."""
        if self.n_reduces is not None:
            return self.n_reduces
        return self.app.reduce_tasks(self.map_tasks)

    @property
    def intermediate_gb(self) -> float:
        """Shuffle volume (``inter_i``)."""
        return self.app.intermediate_gb(self.input_gb)

    @property
    def output_gb(self) -> float:
        """Output volume (``output_i``)."""
        return self.app.output_gb(self.input_gb)

    @cached_property
    def footprint_gb(self) -> float:
        """Eq. 3 capacity floor: input + intermediate + output.

        Cached on the (immutable) spec: plan rebases and neighbor
        closures read it for every job."""
        return self.input_gb + self.intermediate_gb + self.output_gb

    @staticmethod
    def make(
        job_id: str,
        app_name: str,
        input_gb: float,
        n_maps: Optional[int] = None,
        n_reduces: Optional[int] = None,
    ) -> "JobSpec":
        """Convenience constructor resolving the app by name."""
        try:
            app = APP_CATALOG[app_name]
        except KeyError:
            raise WorkloadError(
                f"unknown application {app_name!r}; "
                f"known: {sorted(APP_CATALOG)}"
            ) from None
        return JobSpec(job_id=job_id, app=app, input_gb=input_gb,
                       n_maps=n_maps, n_reduces=n_reduces)


@dataclass(frozen=True)
class ReuseSet:
    """Jobs sharing one input dataset (``D`` in Constraint 7).

    Attributes
    ----------
    job_ids:
        The sharing jobs.  CAST++ pins them to one storage service.
    lifetime:
        How long the dataset stays warm between first and last access.
    n_accesses:
        Total accesses over the lifetime (the paper uses 7 for both
        reuse cases in Fig. 3).
    """

    job_ids: FrozenSet[str]
    lifetime: ReuseLifetime = ReuseLifetime.SHORT
    n_accesses: int = 7

    def __post_init__(self) -> None:
        if len(self.job_ids) < 1:
            raise WorkloadError("ReuseSet needs at least one job")
        if self.n_accesses < 1:
            raise WorkloadError("ReuseSet needs at least one access")


class ReuseEntry(NamedTuple):
    """One reuse set's constants for the §3.1.3 reuse economics."""

    #: The set's job ids, sorted.
    members: Tuple[str, ...]
    #: Size of the shared dataset: the largest member input (GB).
    shared_gb: float
    #: The lifetime's window in seconds.
    window_s: float


@dataclass(frozen=True)
class WorkloadSpec:
    """A full analytics workload: jobs + reuse structure.

    Invariants enforced at construction: unique job ids; reuse sets
    reference existing jobs; no job belongs to two reuse sets.
    """

    jobs: Tuple[JobSpec, ...]
    reuse_sets: Tuple[ReuseSet, ...] = ()
    name: str = "workload"

    def __post_init__(self) -> None:
        ids = [j.job_id for j in self.jobs]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise WorkloadError(f"duplicate job ids: {dupes}")
        known = set(ids)
        seen: set = set()
        for rs in self.reuse_sets:
            unknown = rs.job_ids - known
            if unknown:
                raise WorkloadError(f"reuse set references unknown jobs: {sorted(unknown)}")
            overlap = rs.job_ids & seen
            if overlap:
                raise WorkloadError(f"jobs in multiple reuse sets: {sorted(overlap)}")
            seen |= rs.job_ids

    # -- lookups -----------------------------------------------------------
    #
    # The indexes are built on first use and cached on the instance (the
    # spec is immutable, so they never go stale).

    @cached_property
    def _job_index(self) -> Dict[str, JobSpec]:
        return {j.job_id: j for j in self.jobs}

    @cached_property
    def _reuse_index(self) -> Dict[str, ReuseSet]:
        return {jid: rs for rs in self.reuse_sets for jid in rs.job_ids}

    def job(self, job_id: str) -> JobSpec:
        """Find a job by id."""
        try:
            return self._job_index[job_id]
        except KeyError:
            raise WorkloadError(
                f"no job {job_id!r} in workload {self.name!r}"
            ) from None

    def reuse_set_of(self, job_id: str) -> Optional[ReuseSet]:
        """The reuse set containing ``job_id``, or ``None``."""
        return self._reuse_index.get(job_id)

    @cached_property
    def reuse_table(self) -> Tuple[ReuseEntry, ...]:
        """Per reuse set, in declaration order: sorted members, shared
        dataset size and lifetime window — what the reuse-aware
        objective reads on every evaluation."""
        table = []
        for rs in self.reuse_sets:
            members = tuple(sorted(rs.job_ids))
            # Looked up here, not before the loop: sessions build a spec
            # per delta, most without reuse sets, and skip the index.
            index = self._job_index
            table.append(ReuseEntry(
                members=members,
                shared_gb=max(index[j].input_gb for j in members),
                window_s=rs.lifetime.window_seconds,
            ))
        return tuple(table)

    # -- aggregates ----------------------------------------------------------

    @property
    def n_jobs(self) -> int:
        """Number of jobs."""
        return len(self.jobs)

    @property
    def total_input_gb(self) -> float:
        """Sum of job input sizes (shared inputs counted once)."""
        total = 0.0
        counted: set = set()
        for j in self.jobs:
            rs = self.reuse_set_of(j.job_id)
            if rs is None:
                total += j.input_gb
            else:
                key = tuple(sorted(rs.job_ids))
                if key not in counted:
                    counted.add(key)
                    total += max(self.job(i).input_gb for i in rs.job_ids)
        return total

    @property
    def total_footprint_gb(self) -> float:
        """Sum of per-job Eq. 3 footprints (upper bound on capacity)."""
        return sum(j.footprint_gb for j in self.jobs)

    def jobs_by_app(self) -> Mapping[str, List[JobSpec]]:
        """Group jobs by application name."""
        out: Dict[str, List[JobSpec]] = {}
        for j in self.jobs:
            out.setdefault(j.app.name, []).append(j)
        return out
