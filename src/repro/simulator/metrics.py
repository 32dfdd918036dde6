"""Simulation result records.

Plain dataclasses carrying what an experiment needs: phase-level
timings per job (Fig. 1's download / processing / upload breakdown) and
workload-level aggregates.  Monetary cost is *not* computed here — the
cost model lives in :mod:`repro.core.cost` and is shared between the
simulator (observed) and the estimator (predicted), so both sides of a
comparison always price identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Tuple

from ..cloud.storage import Tier

__all__ = ["JobSimResult", "WorkloadSimResult"]


@dataclass(frozen=True)
class JobSimResult:
    """Timing breakdown of one simulated job.

    Attributes
    ----------
    job_id:
        The simulated job.
    input_tier / output_tier:
        Where the job read persistent input and wrote persistent output.
    download_s:
        objStore→ephSSD input staging (zero unless input on ephSSD).
    map_s / reduce_s:
        Phase durations (reduce includes shuffle, as executed).
    upload_s:
        ephSSD→objStore output persistence (zero unless on ephSSD).
    events:
        DES events dispatched (diagnostics).
    """

    job_id: str
    input_tier: Tier
    output_tier: Tier
    download_s: float
    map_s: float
    reduce_s: float
    upload_s: float
    events: int = 0

    def for_job(self, job_id: str) -> "JobSimResult":
        """This result re-stamped with ``job_id`` (cache hits, dedup).

        ``dataclasses.replace(self, job_id=job_id)`` at a fraction of
        its cost: the copy takes every field of a result that was
        already validated, so it skips ``__init__``.  Returns ``self``
        when the id already matches.
        """
        if job_id == self.job_id:
            return self
        copy = object.__new__(JobSimResult)
        fields = copy.__dict__
        fields.update(self.__dict__)
        fields["job_id"] = job_id
        return copy

    @property
    def processing_s(self) -> float:
        """Map + shuffle/reduce time (Fig. 1's 'data processing' bar)."""
        return self.map_s + self.reduce_s

    @property
    def total_s(self) -> float:
        """End-to-end runtime including persistence transfers."""
        return self.download_s + self.map_s + self.reduce_s + self.upload_s


@dataclass(frozen=True)
class WorkloadSimResult:
    """Aggregate of sequentially executed jobs.

    The paper's own completion-time model (Eq. 4) sums per-job times,
    so the simulated workload makespan is the same sum plus any
    cross-tier transfer times the caller recorded.
    """

    job_results: Tuple[JobSimResult, ...]
    transfer_s: float = 0.0

    @property
    def makespan_s(self) -> float:
        """Workload completion time ``T`` (seconds)."""
        return sum(r.total_s for r in self.job_results) + self.transfer_s

    @property
    def n_jobs(self) -> int:
        """Number of simulated jobs."""
        return len(self.job_results)

    def by_job(self) -> Mapping[str, JobSimResult]:
        """Results keyed by job id."""
        return {r.job_id: r for r in self.job_results}
