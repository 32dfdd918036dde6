"""Analytics job performance estimator (paper Eq. 1, §4.1).

The MRCute-style three-phase wave model:

.. math::

    EST = \\lceil m/(n_{vm} m_c) \\rceil \\cdot \\frac{input/m}{bw^{s}_{map}}
        + \\lceil r/(n_{vm} r_c) \\rceil \\cdot \\frac{inter/r}{bw^{s}_{shuffle}}
        + \\lceil r/(n_{vm} r_c) \\rceil \\cdot \\frac{output/r}{bw^{s}_{reduce}}

with phase bandwidths looked up in the profiled
:class:`~repro.profiler.models.ModelMatrix` at the provisioned per-VM
capacity (which folds the REG capacity-scaling spline into the
estimate, Eq. 4).  Jobs placed on ephSSD additionally pay analytic
objStore staging terms (input download, output upload), since ephSSD
offers no persistence (§3.2, Fig. 1's breakdown).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from ..cloud.provider import CloudProvider
from ..cloud.storage import Tier
from ..cloud.vm import ClusterSpec
from ..profiler.models import ModelMatrix
from ..units import MB_PER_GB, gb_to_mb
from ..workloads.spec import JobSpec

__all__ = ["JobEstimate", "eq1_static_terms", "estimate_job", "staging_seconds"]


@dataclass(frozen=True)
class JobEstimate:
    """Phase-level runtime prediction for one (job, tier, capacity)."""

    job_id: str
    tier: Tier
    download_s: float
    map_s: float
    shuffle_s: float
    reduce_s: float
    upload_s: float

    @property
    def processing_s(self) -> float:
        """Map + shuffle + reduce (excludes persistence staging)."""
        return self.map_s + self.shuffle_s + self.reduce_s

    @property
    def total_s(self) -> float:
        """End-to-end predicted runtime."""
        return self.download_s + self.processing_s + self.upload_s


def staging_seconds(
    size_gb: float,
    n_objects: int,
    cluster_spec: ClusterSpec,
    provider: CloudProvider,
    lanes_per_vm: Optional[int] = None,
) -> float:
    """Analytic objStore↔ephSSD staging time for ``size_gb``.

    One parallel stream per node at the connector's per-node
    throughput, with per-object setup latencies amortized across one
    connection per slot (gsutil ``-m`` style parallel staging).

    ``lanes_per_vm`` defaults to the simulator's bulk-staging lane
    count per VM.
    """
    from ..simulator.engine import STAGING_LANES_PER_VM

    if size_gb <= 0:
        return 0.0
    svc = provider.service(Tier.OBJ_STORE)
    bw = svc.bulk_staging_mb_s or svc.throughput_mb_s(1.0)
    per_node_gb = size_gb / cluster_spec.n_vms
    if lanes_per_vm is None:
        lanes_per_vm = STAGING_LANES_PER_VM
    lanes = cluster_spec.n_vms * lanes_per_vm
    reqs = max(1, int(math.ceil(n_objects / lanes)))
    return gb_to_mb(per_node_gb) / bw + reqs * svc.request_overhead_s


def _effective_waves(n_tasks: int, slots: int, cpu_bound: bool) -> float:
    """Wave count for Eq. 1's ``#waves x runtime-per-wave`` terms.

    Eq. 1 uses ``ceil(tasks/slots)``, which over-charges jobs whose
    last wave underfills the cluster: for an I/O-bound phase the
    binding resource is the per-node storage channel, so a wave
    carrying a fraction of the data finishes in that fraction of the
    time — the remainder is *data-proportional*.  A CPU-bound phase
    really does pay a full remainder wave (every task computes at the
    fixed per-slot rate regardless of how empty the cluster is), so the
    ceil stands.  This refinement is what keeps the Fig. 8 prediction
    error in the paper's single-digit range for slot-underfilled jobs.
    """
    if n_tasks <= 0:
        return 0.0
    full, rem = divmod(n_tasks, slots)
    if rem == 0:
        return float(full)
    if cpu_bound:
        return float(full + 1)
    # Between data-proportional (perfect channel use) and a full wave
    # (per-task fixed costs bind when the cluster is nearly empty): a
    # mildly sublinear occupancy exponent tracks the simulated
    # remainder cost across occupancies.
    return full + (rem / slots) ** 0.8


def eq1_static_terms(
    job: JobSpec,
    cluster_spec: ClusterSpec,
    provider: CloudProvider,
    staging: bool = True,
) -> Tuple[float, float, float, float, float]:
    """One job's capacity-independent Eq. 1 terms.

    ``(map, shuffle, reduce, download_s, upload_s)``: per phase, waves ×
    per-task MB, which divided by the phase bandwidth gives the phase
    seconds; then the ephSSD objStore staging seconds (input in, output
    out), computed only with ``staging`` and 0.0 otherwise.
    :func:`estimate_job`, the incremental evaluator and the tensor
    model all read this one definition, so their runtimes agree bit
    for bit.
    """
    app = job.app
    cpu = app.cpu_intensive
    m, r = job.map_tasks, job.reduce_tasks
    output_gb = job.output_gb
    waves_m = _effective_waves(m, cluster_spec.total_map_slots, cpu)
    waves_r = _effective_waves(r, cluster_spec.total_reduce_slots, cpu)
    download_s = upload_s = 0.0
    if staging:
        download_s = staging_seconds(job.input_gb, m, cluster_spec, provider)
        upload_s = staging_seconds(
            output_gb, r * app.files_per_reduce_task, cluster_spec, provider
        )
    # ``x / n * MB_PER_GB`` is gb_to_mb(x / n), inlined: this runs for
    # every job of every evaluate_plan call.
    return (
        waves_m * (job.input_gb / m * MB_PER_GB),
        waves_r * (job.intermediate_gb / r * MB_PER_GB),
        waves_r * (output_gb / r * MB_PER_GB),
        download_s,
        upload_s,
    )


def estimate_job(
    job: JobSpec,
    tier: Tier,
    capacity_gb_per_vm: float,
    cluster_spec: ClusterSpec,
    matrix: ModelMatrix,
    provider: CloudProvider,
    include_staging: bool = True,
) -> JobEstimate:
    """Eq. 1 runtime estimate for ``job`` on ``tier``.

    Parameters
    ----------
    capacity_gb_per_vm:
        Provisioned per-VM capacity of the job's service — the REG
        input.  Ignored for capacity-insensitive services.
    include_staging:
        Charge ephSSD's objStore download/upload terms (disabled by
        CAST++ for warm reuse re-accesses and intra-workflow hops).
    """
    bw = matrix.bandwidths(job.app.name, tier, capacity_gb_per_vm)
    mb_map, mb_shuffle, mb_reduce, download_s, upload_s = eq1_static_terms(
        job, cluster_spec, provider,
        staging=tier is Tier.EPH_SSD and include_staging,
    )
    return JobEstimate(
        job_id=job.job_id,
        tier=tier,
        download_s=download_s,
        map_s=mb_map / bw.map_mb_s,
        shuffle_s=mb_shuffle / bw.shuffle_mb_s,
        reduce_s=mb_reduce / bw.reduce_mb_s,
        upload_s=upload_s,
    )
