"""Shared fixtures for the paper-reproduction experiments.

Every experiment module uses the same deployment objects the paper
does: the Google Cloud Jan-2015 catalog, the 10-VM characterization
cluster (§3) and the 25-VM / 400-core evaluation cluster (§5), and the
per-tier volume sizing of the §3 experiments (500 GB persSSD/persHDD
volumes per VM, one 375 GB ephSSD volume, a 250 GB persSSD helper for
objStore's shuffle data).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from ..cloud.provider import CloudProvider, google_cloud_2015
from ..cloud.storage import Tier
from ..cloud.vm import ClusterSpec
from ..core.cost import CostBreakdown, deployment_cost
from ..profiler.models import ModelMatrix
from ..profiler.profiler import build_model_matrix
from ..simulator.engine import HELPER_INTERMEDIATE_GB_PER_VM
from ..workloads.spec import JobSpec

__all__ = [
    "provider",
    "characterization_cluster",
    "evaluation_cluster",
    "model_matrix",
    "fig1_capacity",
    "single_config_billed_gb",
    "single_config_cost",
]


def provider() -> CloudProvider:
    """The paper's cloud (fresh instance; providers are immutable)."""
    return google_cloud_2015()


def characterization_cluster() -> ClusterSpec:
    """§3's 10 × n1-standard-16 testbed (160 cores)."""
    return ClusterSpec(n_vms=10)


def evaluation_cluster() -> ClusterSpec:
    """§5's 25 × n1-standard-16 testbed (400 cores)."""
    return ClusterSpec(n_vms=25)


def model_matrix(
    prov: Optional[CloudProvider] = None,
    cluster: Optional[ClusterSpec] = None,
) -> ModelMatrix:
    """The profiled model matrix for a deployment.

    :func:`~repro.profiler.profiler.build_model_matrix` memoizes it by
    catalog and cluster content, so experiment modules calling in with
    equivalent deployments share one profiled matrix.
    """
    return build_model_matrix(
        provider=prov or provider(),
        cluster_spec=cluster or characterization_cluster(),
    )


def fig1_capacity(tier: Tier) -> Dict[Tier, float]:
    """Per-VM volume sizing of the §3 single-tier configurations."""
    if tier is Tier.EPH_SSD:
        return {Tier.EPH_SSD: 375.0}
    if tier is Tier.OBJ_STORE:
        return {Tier.PERS_SSD: HELPER_INTERMEDIATE_GB_PER_VM}
    return {tier: 500.0}


def single_config_billed_gb(
    job: JobSpec,
    tier: Tier,
    per_vm_caps: Mapping[Tier, float],
    cluster: ClusterSpec,
    prov: CloudProvider,
) -> Dict[Tier, float]:
    """Aggregate billed capacity for one job on one §3 configuration.

    Provisioned volumes bill in full (``caps × n_vms``); ephSSD jobs
    additionally bill their persistent objStore copies, and objStore
    jobs bill the dataset itself on objStore on top of the helper
    volume.
    """
    billed: Dict[Tier, float] = {
        t: cap * cluster.n_vms for t, cap in per_vm_caps.items()
    }
    svc = prov.service(tier)
    if svc.requires_backing is not None:
        backing = svc.requires_backing
        billed[backing] = billed.get(backing, 0.0) + job.input_gb + job.output_gb
    if tier is Tier.OBJ_STORE:
        billed[Tier.OBJ_STORE] = billed.get(Tier.OBJ_STORE, 0.0) + job.footprint_gb
    return billed


def single_config_cost(
    job: JobSpec,
    tier: Tier,
    runtime_s: float,
    cluster: ClusterSpec,
    prov: CloudProvider,
    per_vm_caps: Optional[Mapping[Tier, float]] = None,
) -> CostBreakdown:
    """Eq. 5/6 cost of running one job on one §3 configuration."""
    caps = dict(per_vm_caps) if per_vm_caps is not None else fig1_capacity(tier)
    billed = single_config_billed_gb(job, tier, caps, cluster, prov)
    return deployment_cost(prov, cluster, runtime_s, billed)
