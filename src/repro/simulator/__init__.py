"""Discrete-event MapReduce + cloud-storage cluster simulator.

The reproduction's stand-in for the paper's 400-core Google Cloud
Hadoop testbed: slot-scheduled map/reduce phases, processor-shared
storage channels per node and tier, per-block placement, object-store
request overheads, and ephSSD persistence staging.
"""

from .cache import (
    SimulationCache,
    cache_enabled,
    catalog_digest,
    job_sim_fingerprint,
    sim_key_context,
    simulation_cache,
)
from .cluster import SimCluster, SimNode, channel_bandwidth_mb_s
from .engine import (
    cross_tier_transfer_seconds,
    default_per_vm_capacity,
    intermediate_tier_for,
    resolve_sim_inputs,
    simulate_batch,
    simulate_job,
    simulate_workflow,
    simulate_workload,
)
from .vectorized import (
    ANALYTIC_RTOL,
    analytic_enabled,
    batch_results_match,
    fallback_reason,
    fastpath_stats,
    register_fastpath_metrics,
    reset_fastpath_stats,
)
from .events import EventQueue
from .hdfs import BlockPlacement
from .metrics import JobSimResult, WorkloadSimResult
from .scheduler import PhaseRun
from .storage_backend import (
    ReferenceSharedChannel,
    SharedChannel,
    VirtualTimeSharedChannel,
    channel_impl_name,
    use_reference_channel,
)
from .tasks import make_map_task, make_reduce_task

__all__ = [
    "EventQueue",
    "SharedChannel",
    "ReferenceSharedChannel",
    "VirtualTimeSharedChannel",
    "use_reference_channel",
    "channel_impl_name",
    "SimulationCache",
    "simulation_cache",
    "cache_enabled",
    "catalog_digest",
    "job_sim_fingerprint",
    "sim_key_context",
    "SimCluster",
    "SimNode",
    "channel_bandwidth_mb_s",
    "PhaseRun",
    "BlockPlacement",
    "JobSimResult",
    "WorkloadSimResult",
    "make_map_task",
    "make_reduce_task",
    "intermediate_tier_for",
    "default_per_vm_capacity",
    "resolve_sim_inputs",
    "simulate_job",
    "simulate_batch",
    "simulate_workload",
    "simulate_workflow",
    "cross_tier_transfer_seconds",
    "ANALYTIC_RTOL",
    "analytic_enabled",
    "batch_results_match",
    "fallback_reason",
    "fastpath_stats",
    "register_fastpath_metrics",
    "reset_fastpath_stats",
]
