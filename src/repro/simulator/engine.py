"""Top-level simulation drivers.

This module is the "cluster" of the reproduction: where the paper runs
jobs on a 400-core Google Cloud Hadoop deployment, we run them here.
A job executes as:

1. **download** (only when its input tier is non-persistent ephSSD):
   stage the input from objStore onto the local SSDs, one parallel
   stream per node;
2. **map phase**: one task per input split under map-slot limits, each
   reading from the tier its block lives on (per-block placement —
   all-or-nothing placement is the single-tier special case);
3. **shuffle + reduce phase**: one task per reducer under reduce-slot
   limits;
4. **upload** (only when output lands on ephSSD): persist the output
   back to objStore.

Jobs in a workload run back-to-back (the cluster is the unit of
scheduling in the paper's evaluation, and Eq. 4 sums per-job times),
and workflow simulation additionally charges cross-tier output→input
transfers between dependent jobs.

There is one event engine: the virtual-time channels of
:mod:`~repro.simulator.storage_backend` under the ring dispatcher of
:mod:`~repro.simulator.scheduler`.  The seed channel and dispatcher it
replaced live in ``tests/reference/`` as the executable specification.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..cloud.provider import CloudProvider
from ..cloud.storage import Tier
from ..cloud.vm import ClusterSpec
from ..errors import SimulationError
from ..obs.metrics import get_registry
from ..obs.tracing import span as _span
from ..units import gb_to_mb
from ..workloads.spec import JobSpec, WorkloadSpec
from ..workloads.workflow import Workflow
from .cache import (
    SimKey,
    cache_enabled,
    job_sim_fingerprint,
    sim_key_context,
    simulation_cache,
)
from .cluster import SimCluster, channel_bandwidth_mb_s
from .hdfs import BlockPlacement
from .metrics import JobSimResult, WorkloadSimResult
from .scheduler import PhaseRun, TaskBody
from .tasks import make_map_task, make_reduce_task
from .vectorized import (
    evaluate_wave_model,
    fallback_reason,
    wave_model_inputs,
)
from .vectorized import _stats as _fastpath_stats

__all__ = [
    "intermediate_tier_for",
    "default_per_vm_capacity",
    "resolve_sim_inputs",
    "simulate_job",
    "simulate_batch",
    "simulate_workload",
    "simulate_workflow",
    "cross_tier_transfer_seconds",
]

#: Prefix distinguishing analytic results in the simulation cache.
#: Engine-computed results keep their bare fingerprint keys (whose first
#: field is an app profile's JSON, never ``"analytic"``), so a
#: closed-form number can never be served where a caller asked the
#: event engine (``simulate_job`` stays bit-exact), while repeat batch
#: queries still hit.
ANALYTIC_KEY_PREFIX: SimKey = ("analytic",)


#: Per-VM persSSD volume backing objStore jobs' shuffle data.  The
#: paper's §3.1.1 text says 100 GB, but the measured Fig. 1 runtime
#: ratios (objStore ≈ 1.4–1.6× persSSD for shuffle-heavy jobs, not 3×)
#: are only consistent with intermediate I/O that is not choked by a
#: 48 MB/s volume — Hadoop spills overlap with local buffering on the
#: real system.  250 GB (118 MB/s) reproduces the measured ratios; see
#: DESIGN.md's substitution table.
HELPER_INTERMEDIATE_GB_PER_VM = 250.0

#: Parallel connections per VM for bulk objStore staging (gsutil -m
#: style).  Much higher than the task-slot count: staging is a pure
#: transfer loop, not slot-bound user code.
STAGING_LANES_PER_VM = 24


def intermediate_tier_for(provider: CloudProvider, input_tier: Tier) -> Tier:
    """Where shuffle data lives for a job whose data tier is ``input_tier``.

    The paper stores intermediate data on the same service as the
    original data, except for objStore, which cannot host shuffle
    spills — those go to the service named by ``requires_intermediate``
    (persSSD in the Google catalog, §3.1.1).
    """
    svc = provider.service(input_tier)
    if svc.requires_intermediate is not None:
        return svc.requires_intermediate
    return input_tier


def default_per_vm_capacity(
    job: JobSpec,
    input_tier: Tier,
    cluster_spec: ClusterSpec,
    provider: CloudProvider,
) -> Dict[Tier, float]:
    """Per-VM volume sizing covering one job's Eq. 3 footprint.

    Block tiers get ``footprint / n_vms`` (at least the smallest
    catalog volume); an objStore job gets the paper's 100 GB persSSD
    intermediate volume per VM.
    """
    caps: Dict[Tier, float] = {}
    inter_tier = intermediate_tier_for(provider, input_tier)
    share = job.footprint_gb / cluster_spec.n_vms
    if input_tier is Tier.OBJ_STORE:
        caps[inter_tier] = HELPER_INTERMEDIATE_GB_PER_VM
    elif input_tier is Tier.EPH_SSD:
        svc = provider.service(Tier.EPH_SSD)
        n_vol = max(1, int(math.ceil(share / svc.fixed_volume_gb)))
        n_vol = min(n_vol, svc.max_volumes_per_vm or n_vol)
        caps[Tier.EPH_SSD] = n_vol * svc.fixed_volume_gb
    else:
        caps[input_tier] = max(share, 100.0)
    return caps


class _PhaseClock:
    """Records phase boundary times as the driver advances."""

    __slots__ = ("marks",)

    def __init__(self) -> None:
        self.marks: Dict[str, float] = {}

    def mark(self, label: str, time: float) -> None:
        self.marks[label] = time

    def duration(self, label: str) -> float:
        start = self.marks.get(f"{label}:start")
        end = self.marks.get(f"{label}:end")
        if start is None or end is None:
            return 0.0
        return end - start


def resolve_sim_inputs(
    job: JobSpec,
    input_tier: Tier,
    cluster_spec: ClusterSpec,
    provider: CloudProvider,
    per_vm_capacity_gb: Optional[Mapping[Tier, float]] = None,
    block_placement: Optional[BlockPlacement] = None,
    output_tier: Optional[Tier] = None,
) -> Tuple[Dict[Tier, float], Optional[BlockPlacement], Tier]:
    """Normalize a :func:`simulate_job` call onto its canonical inputs.

    Returns the resolved per-VM capacities, the normalized block
    placement (``None`` when uniform on the input tier — that IS the
    default placement, so both spellings must share a cache key) and
    the effective output tier.  Shared by the cache lookup in
    :func:`simulate_job` and the parallel runner's dedup pass.
    """
    out_tier = output_tier or input_tier
    caps = dict(
        per_vm_capacity_gb
        if per_vm_capacity_gb is not None
        else default_per_vm_capacity(job, input_tier, cluster_spec, provider)
    )
    # An ephSSD output from a non-ephSSD job still needs local volumes.
    if out_tier is Tier.EPH_SSD and Tier.EPH_SSD not in caps:
        caps[Tier.EPH_SSD] = provider.service(Tier.EPH_SSD).fixed_volume_gb

    if block_placement is not None and block_placement.n_blocks != job.map_tasks:
        raise SimulationError(
            f"{job.job_id}: block placement has {block_placement.n_blocks} blocks "
            f"but the job has {job.map_tasks} map tasks"
        )
    placement = block_placement
    if placement is not None and all(t == input_tier for t in placement.tiers):
        placement = None
    return caps, placement, out_tier


def simulate_job(
    job: JobSpec,
    input_tier: Tier,
    cluster_spec: ClusterSpec,
    provider: CloudProvider,
    per_vm_capacity_gb: Optional[Mapping[Tier, float]] = None,
    block_placement: Optional[BlockPlacement] = None,
    output_tier: Optional[Tier] = None,
    stage_in: bool = True,
    stage_out: bool = True,
) -> JobSimResult:
    """Execute one job on a fresh simulated cluster.

    Parameters
    ----------
    job:
        The job to run.
    input_tier:
        Storage service holding (or staging) the job's input.
    per_vm_capacity_gb:
        Channel sizing; defaults to :func:`default_per_vm_capacity`.
    block_placement:
        Optional per-block tier map (Fig. 5 experiments).  Must have
        exactly ``job.map_tasks`` blocks.
    output_tier:
        Where output is written; defaults to ``input_tier``
        (workflows override this to pipeline across tiers).
    stage_in / stage_out:
        Whether ephSSD persistence staging applies at this job's input
        / output.  Workflow execution disables them for mid-DAG jobs:
        an ephSSD job fed by another ephSSD job finds its input already
        local, and only terminal outputs need the objStore upload.

    Returns
    -------
    JobSimResult
        Phase-level timing breakdown.

    Notes
    -----
    Results are memoized in the process-wide
    :class:`~repro.simulator.cache.SimulationCache`: the run depends
    only on the job's *shape* (never its id), so shape-duplicate jobs —
    the normal case in SWIM workloads — are simulated once.  Hits are
    the stored result re-stamped with this job's id, bit-exact by
    construction.  ``REPRO_SIM_CACHE=0`` disables the cache.
    """
    caps, placement, out_tier = resolve_sim_inputs(
        job, input_tier, cluster_spec, provider,
        per_vm_capacity_gb=per_vm_capacity_gb,
        block_placement=block_placement,
        output_tier=output_tier,
    )

    if not cache_enabled():
        return _simulate_job_instrumented(
            job, input_tier, cluster_spec, provider, caps, placement,
            out_tier, stage_in, stage_out,
        )

    key = job_sim_fingerprint(
        job, input_tier, cluster_spec, provider, caps, out_tier,
        stage_in, stage_out,
        placement_tiers=None if placement is None else tuple(placement.tiers),
    )
    cache = simulation_cache()
    hit = cache.get(key)
    if hit is not None:
        return hit.for_job(job.job_id)
    result = _simulate_job_instrumented(
        job, input_tier, cluster_spec, provider, caps, placement,
        out_tier, stage_in, stage_out,
    )
    cache.put(key, result)
    return result


def _simulate_job_instrumented(
    job: JobSpec,
    input_tier: Tier,
    cluster_spec: ClusterSpec,
    provider: CloudProvider,
    caps: Dict[Tier, float],
    block_placement: Optional[BlockPlacement],
    out_tier: Tier,
    stage_in: bool,
    stage_out: bool,
) -> JobSimResult:
    """Run one uncached simulation under a span + latency histogram.

    Only *misses* pay this (a span and one histogram observation are
    microseconds against a millisecond-scale discrete-event run); the
    cache-hit fast path above stays untouched.
    """
    started = time.perf_counter()
    with _span(
        "simulator.job",
        attrs={"job_id": job.job_id, "input_tier": input_tier.value},
    ):
        result = _simulate_job_uncached(
            job, input_tier, cluster_spec, provider, caps, block_placement,
            out_tier, stage_in, stage_out,
        )
    get_registry().histogram(
        "cast_sim_job_seconds",
        "Wall time of one uncached simulate_job run",
    ).observe(time.perf_counter() - started)
    return result


def _simulate_job_uncached(
    job: JobSpec,
    input_tier: Tier,
    cluster_spec: ClusterSpec,
    provider: CloudProvider,
    caps: Dict[Tier, float],
    block_placement: Optional[BlockPlacement],
    out_tier: Tier,
    stage_in: bool,
    stage_out: bool,
) -> JobSimResult:
    """The actual discrete-event run (inputs already resolved)."""
    cluster = SimCluster(cluster_spec, provider, caps)
    queue = cluster.queue
    clock = _PhaseClock()
    inter_tier = intermediate_tier_for(provider, input_tier)

    m = job.map_tasks
    r = job.reduce_tasks
    split_gb = job.input_gb / m
    shuffle_gb = job.intermediate_gb / r
    output_share_gb = job.output_gb / r

    blocks = block_placement or BlockPlacement.uniform(m, input_tier)

    # --- phase drivers, chained through callbacks -------------------------

    def start_download() -> None:
        if input_tier is not Tier.EPH_SSD or not stage_in:
            start_map()
            return
        clock.mark("download:start", queue.now)
        per_node_gb = job.input_gb / cluster.n_nodes
        # Staging runs many connections per VM (gsutil -m style), so
        # per-object setup latencies amortize across the lanes.
        lanes = cluster.n_nodes * STAGING_LANES_PER_VM
        reqs = max(1, int(math.ceil(m / lanes)))
        remaining = [cluster.n_nodes]

        def one_done() -> None:
            remaining[0] -= 1
            if remaining[0] == 0:
                clock.mark("download:end", queue.now)
                start_map()

        for node in cluster.nodes:
            node.staging_channel().start_transfer(
                gb_to_mb(per_node_gb), one_done, n_requests=reqs
            )

    def start_map() -> None:
        clock.mark("map:start", queue.now)
        # Task bodies are stateless between invocations (all per-run
        # state lives in closures the body creates when called), so
        # same-shape tasks share one body object — one per block tier
        # instead of one per block.
        body_for: Dict[Tier, TaskBody] = {}
        tasks = []
        for i in range(m):
            tier = blocks.tiers[i]
            body = body_for.get(tier)
            if body is None:
                body = body_for[tier] = make_map_task(
                    job.app, split_gb, tier, inter_tier
                )
            tasks.append(body)
        # HDFS spreads a file's blocks evenly over the cluster and the
        # scheduler runs map tasks data-locally: block i lives (and its
        # task runs) on node i*n//m.  With a fractional placement this
        # is what concentrates slow-tier blocks on a subset of nodes
        # and produces the Fig. 5 straggler plateau.
        pins = [i * cluster.n_nodes // m for i in range(m)]

        def map_done() -> None:
            clock.mark("map:end", queue.now)
            start_reduce()

        PhaseRun(cluster, "map", tasks, map_done, pins=pins).start()

    def start_reduce() -> None:
        clock.mark("reduce:start", queue.now)
        # All reduce tasks of a job are identical in shape; share one
        # stateless body (see start_map).
        body = make_reduce_task(
            job.app, shuffle_gb, output_share_gb, inter_tier, out_tier
        )
        tasks = [body] * r

        def reduce_done() -> None:
            clock.mark("reduce:end", queue.now)
            start_upload()

        PhaseRun(cluster, "reduce", tasks, reduce_done).start()

    def start_upload() -> None:
        if out_tier is not Tier.EPH_SSD or job.output_gb <= 0 or not stage_out:
            return
        clock.mark("upload:start", queue.now)
        per_node_gb = job.output_gb / cluster.n_nodes
        lanes = cluster.n_nodes * STAGING_LANES_PER_VM
        reqs = max(1, int(math.ceil(r * job.app.files_per_reduce_task / lanes)))
        remaining = [cluster.n_nodes]

        def one_done() -> None:
            remaining[0] -= 1
            if remaining[0] == 0:
                clock.mark("upload:end", queue.now)

        for node in cluster.nodes:
            node.staging_channel().start_transfer(
                gb_to_mb(per_node_gb), one_done, n_requests=reqs
            )

    queue.schedule_at(0.0, start_download)
    queue.run()

    return JobSimResult(
        job_id=job.job_id,
        input_tier=input_tier,
        output_tier=out_tier,
        download_s=clock.duration("download"),
        map_s=clock.duration("map"),
        reduce_s=clock.duration("reduce"),
        upload_s=clock.duration("upload"),
        events=queue.events_dispatched,
    )


def simulate_batch(
    items: Sequence[Tuple[JobSpec, Tier, Optional[Mapping[Tier, float]]]],
    cluster_spec: ClusterSpec,
    provider: CloudProvider,
    block_placements: Optional[Sequence[Optional[BlockPlacement]]] = None,
    stage_in: bool = True,
    stage_out: bool = True,
    fast_path: bool = True,
) -> List[JobSimResult]:
    """Simulate many ``(job, input_tier, caps)`` requests at once.

    The batch analogue of :func:`simulate_job`, routed through the
    vectorized wave model of :mod:`~repro.simulator.vectorized` where
    the closed form is exact and through the event engine everywhere
    else.  Per request, in order:

    1. the content-addressed cache is consulted under the *engine* key —
       hits are the engine's stored result re-stamped with the request's
       job id, bit-exact exactly as :func:`simulate_job` serves them;
    2. eligible requests (uniform placement, full staging — see
       :func:`~repro.simulator.vectorized.fallback_reason`) are
       evaluated in one NumPy pass, agreeing with the engine to
       :data:`~repro.simulator.vectorized.ANALYTIC_RTOL`; their results
       cache under the engine key prefixed with
       :data:`ANALYTIC_KEY_PREFIX`, so they can never shadow an engine
       result;
    3. everything else falls back to :func:`simulate_job` per request —
       with ``fast_path=False`` the whole batch takes this path and is
       bit-identical to serial engine runs.
    """
    items = list(items)
    if not items:
        return []
    placements: Sequence[Optional[BlockPlacement]]
    if block_placements is None:
        placements = [None] * len(items)
    else:
        placements = list(block_placements)
        if len(placements) != len(items):
            raise SimulationError(
                f"simulate_batch: {len(items)} items but "
                f"{len(placements)} block placements"
            )

    use_cache = cache_enabled()
    cache = simulation_cache() if use_cache else None
    context = sim_key_context(cluster_spec, provider) if use_cache else None
    stats = _fastpath_stats()

    results: List[Optional[JobSimResult]] = [None] * len(items)
    # (index, job, input_tier, out_tier, wave inputs, analytic cache key)
    analytic: List[Tuple[int, JobSpec, Tier, Tier, object, Optional[SimKey]]] = []
    # (index, job, input_tier, caps, placement)
    fallback: List[Tuple[int, JobSpec, Tier, Dict[Tier, float], Optional[BlockPlacement]]] = []
    first_for_key: Dict[SimKey, int] = {}
    dup_of: Dict[int, int] = {}
    n_cache_hits = 0

    for i, (job, tier, caps_in) in enumerate(items):
        caps, placement, out_tier = resolve_sim_inputs(
            job, tier, cluster_spec, provider,
            per_vm_capacity_gb=caps_in,
            block_placement=placements[i],
        )
        key: Optional[SimKey] = None
        if cache is not None:
            key = job_sim_fingerprint(
                job, tier, cluster_spec, provider, caps, out_tier,
                stage_in, stage_out,
                placement_tiers=None if placement is None else tuple(placement.tiers),
                context=context,
            )
            hit = cache.get(key)
            if hit is not None:
                results[i] = hit.for_job(job.job_id)
                n_cache_hits += 1
                continue
            prev = first_for_key.get(key)
            if prev is not None:
                dup_of[i] = prev
                continue
            first_for_key[key] = i

        if fast_path:
            reason = fallback_reason(job, placement, stage_in, stage_out)
        else:
            reason = "disabled"
        if reason is None:
            akey = None if key is None else ANALYTIC_KEY_PREFIX + key
            if akey is not None:
                ahit = cache.get(akey)
                if ahit is not None:
                    results[i] = ahit.for_job(job.job_id)
                    n_cache_hits += 1
                    continue
            wave = wave_model_inputs(
                job, tier, cluster_spec, provider, caps, out_tier,
                stage_in, stage_out,
            )
            analytic.append((i, job, tier, out_tier, wave, akey))
        else:
            stats.note_fallback(reason)
            fallback.append((i, job, tier, caps, placement))

    with _span(
        "simulator.batch",
        attrs={
            "items": len(items),
            "analytic": len(analytic),
            "fallback": len(fallback),
            "cache_hits": n_cache_hits,
        },
    ):
        if analytic:
            phases = evaluate_wave_model([entry[4] for entry in analytic])
            for (i, job, tier, out_tier, _wave, akey), row in zip(analytic, phases):
                res = JobSimResult(
                    job_id=job.job_id,
                    input_tier=tier,
                    output_tier=out_tier,
                    download_s=float(row[0]),
                    map_s=float(row[1]),
                    reduce_s=float(row[2]),
                    upload_s=float(row[3]),
                    events=0,
                )
                results[i] = res
                if akey is not None and cache is not None:
                    cache.put(akey, res)
            stats.analytic += len(analytic)
        for i, job, tier, caps, placement in fallback:
            results[i] = simulate_job(
                job, tier, cluster_spec, provider,
                per_vm_capacity_gb=caps,
                block_placement=placement,
                stage_in=stage_in,
                stage_out=stage_out,
            )

    for i, src_idx in dup_of.items():
        src = results[src_idx]
        assert src is not None
        results[i] = src.for_job(items[i][0].job_id)

    stats.cache_hits += n_cache_hits
    stats.deduped += len(dup_of)
    stats.batches += 1
    out = [res for res in results if res is not None]
    assert len(out) == len(items)
    return out


def simulate_workload(
    workload: WorkloadSpec,
    tier_of: Mapping[str, Tier],
    cluster_spec: ClusterSpec,
    provider: CloudProvider,
    per_vm_capacity_gb: Optional[Mapping[Tier, float]] = None,
) -> WorkloadSimResult:
    """Run a workload's jobs back-to-back under a per-job tier map.

    ``per_vm_capacity_gb``, when given, applies to every job (a fixed
    provisioned cluster); otherwise each job gets footprint-sized
    volumes (matching how the solver provisions capacity per job).
    """
    results = []
    for jobspec in workload.jobs:
        tier = tier_of[jobspec.job_id]
        results.append(
            simulate_job(
                jobspec,
                tier,
                cluster_spec,
                provider,
                per_vm_capacity_gb=per_vm_capacity_gb,
            )
        )
    return WorkloadSimResult(job_results=tuple(results))


def cross_tier_transfer_seconds(
    size_gb: float,
    src_tier: Tier,
    dst_tier: Tier,
    cluster_spec: ClusterSpec,
    provider: CloudProvider,
    per_vm_capacity_gb: Optional[Mapping[Tier, float]] = None,
) -> float:
    """Time to pipeline ``size_gb`` from ``src_tier`` to ``dst_tier``.

    The copy runs one stream per node, bottlenecked by the slower of
    the two per-node channel bandwidths plus any object-store request
    overhead on either end.  Zero when the tiers match.
    """
    if src_tier == dst_tier or size_gb <= 0:
        return 0.0
    # Only two per-node bandwidths are needed — read them straight from
    # the sizing arithmetic rather than building a throwaway SimCluster.
    src_bw = channel_bandwidth_mb_s(provider, cluster_spec, src_tier, per_vm_capacity_gb)
    dst_bw = channel_bandwidth_mb_s(provider, cluster_spec, dst_tier, per_vm_capacity_gb)
    bw = min(src_bw, dst_bw)
    per_node_gb = size_gb / cluster_spec.n_vms
    overhead = 0.0
    for tier in (src_tier, dst_tier):
        overhead += provider.service(tier).request_overhead_s
    return gb_to_mb(per_node_gb) / bw + overhead


def simulate_workflow(
    workflow: Workflow,
    tier_of: Mapping[str, Tier],
    cluster_spec: ClusterSpec,
    provider: CloudProvider,
    per_vm_capacity_gb: Optional[Mapping[Tier, float]] = None,
    fast_path: bool = False,
) -> WorkloadSimResult:
    """Run a workflow's jobs in topological order with transfer costs.

    When a producer's output tier differs from a consumer's input tier,
    the output is pipelined across (§3.1.3) and the copy time joins the
    workflow makespan — the cost CAST's workflow-oblivious solver fails
    to account for (§5.2.1).

    ``fast_path=True`` dispatches the jobs through
    :func:`simulate_batch` grouped by their staging flags; eligibility
    stays per request (:func:`~repro.simulator.vectorized.fallback_reason`),
    so partially-staged DAG jobs still run on the exact event engine
    and only fully-staged jobs (isolated, single-job workflows) take
    the closed form.  The default keeps the historical per-job engine
    loop, bit-identical to every prior release.
    """
    order = workflow.topological_order()
    g = workflow.graph()
    # Only DAG-boundary jobs stage against objStore: roots read
    # external input, leaves persist the final output.  Mid-DAG data
    # either sits locally (same tier) or moves via the cross-tier
    # transfer accounted below.
    staging = {
        job_id: (
            not any(True for _ in g.predecessors(job_id)),
            not any(True for _ in g.successors(job_id)),
        )
        for job_id in order
    }
    if fast_path:
        groups: Dict[Tuple[bool, bool], List[str]] = {}
        for job_id in order:
            groups.setdefault(staging[job_id], []).append(job_id)
        by_id: Dict[str, JobSimResult] = {}
        for (stage_in, stage_out), ids in groups.items():
            batch = [
                (workflow.job(j), tier_of[j], per_vm_capacity_gb)
                for j in ids
            ]
            for j, res in zip(
                ids,
                simulate_batch(
                    batch, cluster_spec, provider,
                    stage_in=stage_in, stage_out=stage_out, fast_path=True,
                ),
            ):
                by_id[j] = res
        results = [by_id[job_id] for job_id in order]
    else:
        results = [
            simulate_job(
                workflow.job(job_id),
                tier_of[job_id],
                cluster_spec,
                provider,
                per_vm_capacity_gb=per_vm_capacity_gb,
                stage_in=staging[job_id][0],
                stage_out=staging[job_id][1],
            )
            for job_id in order
        ]
    transfer_total = 0.0
    for job_id in order:
        jobspec = workflow.job(job_id)
        tier = tier_of[job_id]
        for succ in workflow.successors(job_id):
            dst = tier_of[succ]
            transfer_total += cross_tier_transfer_seconds(
                jobspec.output_gb, tier, dst, cluster_spec, provider,
                per_vm_capacity_gb,
            )
    return WorkloadSimResult(job_results=tuple(results), transfer_s=transfer_total)
