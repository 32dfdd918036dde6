"""Closed-form wave-model batch evaluator (the vectorized fast path).

The discrete-event engine exists for *contention*: shared-channel
queueing, per-block placements that concentrate slow blocks on a few
nodes (Fig. 5), and phased workloads.  In the common uncontended case —
uniform placement, full staging, one job on a fresh cluster — every
wave of a phase is a cohort of identical tasks entering an otherwise
idle processor-shared channel, so the engine's event cascade collapses
to the paper's Eq. 1 closed form per wave:

* a **map wave** of ``k`` tasks on one node lasts
  ``startup + max(read_overhead + k·split/B_block, split/cpu_map)
  + k·inter/B_inter``;
* a **reduce wave** of ``k`` tasks lasts
  ``startup + max(k·shuffle/B_inter, shuffle/cpu_shuffle +
  shuffle/cpu_reduce) + write_overheads + k·out/B_out``;
* ephSSD **staging** is one bulk stream per node:
  ``requests·overhead + per_node_mb/B_staging``.

A phase is then a dot product of wave counts and wave durations, and a
whole batch of simulation requests evaluates as NumPy array
expressions over ``(batch, phase, wave)`` tensors — no event queue, no
Python callbacks.

Exactness
---------
The closed form replays the engine's arithmetic (same sizes, same
bandwidth sizing via :func:`~repro.simulator.cluster.channel_bandwidth_mb_s`,
same startup constant) but not its operation *order*, so results agree
with the virtual-time engine only to floating-point reassociation —
empirically ~1e-15 relative, gated at :data:`ANALYTIC_RTOL` (1e-9, the
house parity tolerance).  Analytic results are therefore **never**
stored under an engine cache key (see ``simulate_batch``), and
:func:`fallback_reason` routes every request the closed form cannot
express back to the exact event engine:

* ``"placement"`` — non-uniform block placement (stragglers/contention);
* ``"phased"`` — staging partially disabled, as in ``core/dynamic.py``
  phased workloads and mid-DAG workflow jobs;
* ``"degenerate"`` — malformed task counts.

``simulate_batch(..., fast_path=False)`` turns the fast path off
(reason ``"disabled"``): the batch API then returns results
bit-identical to serial event-engine runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..cloud.provider import CloudProvider
from ..cloud.storage import Tier
from ..cloud.vm import ClusterSpec
from ..units import gb_to_mb
from ..workloads.spec import JobSpec
from .cluster import channel_bandwidth_mb_s
from .hdfs import BlockPlacement
from .storage_backend import _EPS_MB
from .tasks import TASK_STARTUP_S

__all__ = [
    "ANALYTIC_RTOL",
    "WaveModelInputs",
    "fallback_reason",
    "wave_model_inputs",
    "evaluate_wave_model",
    "fastpath_stats",
    "reset_fastpath_stats",
    "register_fastpath_metrics",
]

#: Documented agreement bound between the closed form and the
#: virtual-time event engine: per-phase relative difference.  Matches
#: the PARITY_RTOL the throughput benchmarks gate on.
ANALYTIC_RTOL = 1e-9


def fallback_reason(
    job: JobSpec,
    placement: Optional[BlockPlacement],
    stage_in: bool,
    stage_out: bool,
) -> Optional[str]:
    """Why one request must run on the event engine (``None`` = eligible).

    ``placement`` must already be normalized by
    :func:`~repro.simulator.engine.resolve_sim_inputs` (``None`` for the
    uniform case) — a non-``None`` placement means per-block tier mixes,
    whose straggler plateaus only the event engine reproduces.  Phased
    requests (staging partially disabled, the ``core/dynamic.py``
    pattern) also fall back: their timing interacts with surrounding
    promote/demote transfers the closed form does not see.
    """
    if placement is not None:
        return "placement"
    if not (stage_in and stage_out):
        return "phased"
    if job.map_tasks < 1 or job.reduce_tasks < 1:
        return "degenerate"
    return None


@dataclass(frozen=True, slots=True)
class WaveModelInputs:
    """Per-request scalars the closed form reads — nothing else.

    One instance per eligible simulation request; a batch of these is
    what :func:`evaluate_wave_model` turns into arrays.  All sizes are
    MB (the engine's channel unit), all rates MB/s.
    """

    m: int                    #: map tasks
    r: int                    #: reduce tasks
    n: int                    #: worker VMs
    map_slots: int
    reduce_slots: int
    split_mb: float           #: per-map input split
    inter_mb: float           #: per-map intermediate partition
    shuffle_mb: float         #: per-reduce shuffle read
    out_mb: float             #: per-reduce output write
    cpu_map: float
    cpu_shuffle: float
    cpu_reduce: float
    bw_block: float           #: per-node input-tier channel bandwidth
    bw_inter: float
    bw_out: float
    ovh_block: float          #: per-read request overhead (objStore input)
    ovh_inter: float
    ovh_out: float            #: per-write overhead × files_per_reduce_task
    download_mb: float        #: per-node staged input (0 = no download)
    download_reqs: int
    upload_mb: float          #: per-node persisted output (0 = no upload)
    upload_reqs: int
    bw_staging: float
    ovh_staging: float


def wave_model_inputs(
    job: JobSpec,
    input_tier: Tier,
    cluster_spec: ClusterSpec,
    provider: CloudProvider,
    caps: Mapping[Tier, float],
    out_tier: Tier,
    stage_in: bool,
    stage_out: bool,
) -> WaveModelInputs:
    """Extract one request's closed-form scalars (inputs pre-resolved)."""
    from .engine import STAGING_LANES_PER_VM, intermediate_tier_for

    app = job.app
    n = cluster_spec.n_vms
    m = job.map_tasks
    r = job.reduce_tasks
    inter_tier = intermediate_tier_for(provider, input_tier)
    split_mb = gb_to_mb(job.input_gb / m)

    def _overhead(tier: Tier) -> float:
        if tier is Tier.OBJ_STORE:
            return float(provider.service(tier).request_overhead_s)
        return 0.0

    svc_obj = provider.service(Tier.OBJ_STORE)
    bw_staging = float(svc_obj.bulk_staging_mb_s or svc_obj.throughput_mb_s(1.0))
    lanes = n * STAGING_LANES_PER_VM

    download_mb = 0.0
    download_reqs = 0
    if input_tier is Tier.EPH_SSD and stage_in:
        download_mb = gb_to_mb(job.input_gb / n)
        download_reqs = max(1, -(-m // lanes))
    upload_mb = 0.0
    upload_reqs = 0
    if out_tier is Tier.EPH_SSD and job.output_gb > 0 and stage_out:
        upload_mb = gb_to_mb(job.output_gb / n)
        upload_reqs = max(1, -(-(r * app.files_per_reduce_task) // lanes))

    return WaveModelInputs(
        m=m,
        r=r,
        n=n,
        map_slots=cluster_spec.vm.map_slots,
        reduce_slots=cluster_spec.vm.reduce_slots,
        split_mb=split_mb,
        inter_mb=split_mb * app.map_selectivity,
        shuffle_mb=gb_to_mb(job.intermediate_gb / r),
        out_mb=gb_to_mb(job.output_gb / r),
        cpu_map=float(app.cpu_map_mb_s),
        cpu_shuffle=float(app.cpu_shuffle_mb_s),
        cpu_reduce=float(app.cpu_reduce_mb_s),
        bw_block=channel_bandwidth_mb_s(provider, cluster_spec, input_tier, caps),
        bw_inter=channel_bandwidth_mb_s(provider, cluster_spec, inter_tier, caps),
        bw_out=channel_bandwidth_mb_s(provider, cluster_spec, out_tier, caps),
        ovh_block=_overhead(input_tier),
        ovh_inter=_overhead(inter_tier),
        ovh_out=_overhead(out_tier) * app.files_per_reduce_task,
        download_mb=download_mb,
        download_reqs=download_reqs,
        upload_mb=upload_mb,
        upload_reqs=upload_reqs,
        bw_staging=bw_staging,
        ovh_staging=float(svc_obj.request_overhead_s),
    )


def evaluate_wave_model(batch: Sequence[WaveModelInputs]) -> np.ndarray:
    """Evaluate a batch of requests; returns ``(len(batch), 4)`` phases.

    Columns are ``(download_s, map_s, reduce_s, upload_s)``.  The
    computation builds ``(batch, phase, wave)`` count and duration
    tensors — phases have at most two distinct wave shapes (full waves
    and one remainder wave) — and contracts over the wave axis.
    """
    size = len(batch)
    if size == 0:
        return np.zeros((0, 4))

    def _f(field: str) -> np.ndarray:
        return np.array([getattr(w, field) for w in batch], dtype=np.float64)

    def _i(field: str) -> np.ndarray:
        return np.array([getattr(w, field) for w in batch], dtype=np.int64)

    m, r, n = _i("m"), _i("r"), _i("n")
    ms, rs = _i("map_slots"), _i("reduce_slots")
    split_mb, inter_mb = _f("split_mb"), _f("inter_mb")
    shuffle_mb, out_mb = _f("shuffle_mb"), _f("out_mb")
    cpu_map, cpu_shuffle, cpu_reduce = _f("cpu_map"), _f("cpu_shuffle"), _f("cpu_reduce")
    bw_block, bw_inter, bw_out = _f("bw_block"), _f("bw_inter"), _f("bw_out")
    ovh_block, ovh_inter, ovh_out = _f("ovh_block"), _f("ovh_inter"), _f("ovh_out")

    def map_wave(k: np.ndarray) -> np.ndarray:
        """Duration of a map wave of ``k`` concurrent tasks per node."""
        kf = k.astype(np.float64)
        read = ovh_block + np.where(split_mb > _EPS_MB, kf * split_mb / bw_block, 0.0)
        compute = split_mb / cpu_map
        write = np.where(
            inter_mb <= 0.0,
            0.0,
            ovh_inter + np.where(inter_mb > _EPS_MB, kf * inter_mb / bw_inter, 0.0),
        )
        return np.where(k > 0, TASK_STARTUP_S + np.maximum(read, compute) + write, 0.0)

    def reduce_wave(k: np.ndarray) -> np.ndarray:
        """Duration of a reduce wave of ``k`` concurrent tasks per node."""
        kf = k.astype(np.float64)
        read = np.where(
            shuffle_mb <= 0.0,
            0.0,
            ovh_inter + np.where(shuffle_mb > _EPS_MB, kf * shuffle_mb / bw_inter, 0.0),
        )
        compute = shuffle_mb / cpu_shuffle + shuffle_mb / cpu_reduce
        write = np.where(
            out_mb <= 0.0,
            0.0,
            ovh_out + np.where(out_mb > _EPS_MB, kf * out_mb / bw_out, 0.0),
        )
        return np.where(k > 0, TASK_STARTUP_S + np.maximum(read, compute) + write, 0.0)

    # --- map: the fullest node holds ceil(m/n) data-local tasks and
    # runs them in lockstep waves of its map-slot count.
    per_node = -(-m // n)
    map_full, map_rem = np.divmod(per_node, ms)

    # --- reduce: breadth-first dispatch spreads min(r, n·rs) tasks
    # evenly; past that, refills key off which event *kind* completes a
    # wave.  Output writes and read-bound waves complete through a
    # channel wake that re-fills one node at a time (clustered
    # remainder: min(rs, rem)); compute-bound waves complete in ring
    # dispatch order and re-fill breadth-first (ceil(rem/n)).  Ties are
    # clustered — wake events re-arm behind same-time compute events.
    cap = n * rs
    single = -(-r // n)  # r <= cap: one wave of ceil(r/n)
    full_waves, rem = np.divmod(r, cap)
    read_rs = np.where(
        shuffle_mb <= 0.0,
        0.0,
        ovh_inter + np.where(shuffle_mb > _EPS_MB, rs * shuffle_mb / bw_inter, 0.0),
    )
    compute_r = shuffle_mb / cpu_shuffle + shuffle_mb / cpu_reduce
    clustered = (out_mb > 0.0) | (read_rs >= compute_r)
    k_rem = np.where(clustered, np.minimum(rs, rem), np.minimum(rs, -(-rem // n)))
    multi = r > cap
    reduce_k_last = np.where(multi, k_rem, single)

    # --- staging: one bulk stream per node, request setup up front.
    dl_mb, ul_mb = _f("download_mb"), _f("upload_mb")
    dl_reqs, ul_reqs = _i("download_reqs"), _i("upload_reqs")
    bw_staging, ovh_staging = _f("bw_staging"), _f("ovh_staging")

    def staging_time(size_mb: np.ndarray, reqs: np.ndarray) -> np.ndarray:
        setup = reqs.astype(np.float64) * ovh_staging
        stream = np.where(size_mb > _EPS_MB, size_mb / bw_staging, 0.0)
        return np.where(reqs > 0, setup + stream, 0.0)

    # --- contract (batch, phase, wave) counts against durations.
    durations = np.zeros((size, 4, 2))
    counts = np.zeros((size, 4, 2))
    durations[:, 0, 0] = staging_time(dl_mb, dl_reqs)
    counts[:, 0, 0] = (dl_reqs > 0).astype(np.float64)
    durations[:, 1, 0] = map_wave(ms)
    counts[:, 1, 0] = map_full.astype(np.float64)
    durations[:, 1, 1] = map_wave(map_rem)
    counts[:, 1, 1] = (map_rem > 0).astype(np.float64)
    durations[:, 2, 0] = reduce_wave(rs)
    counts[:, 2, 0] = np.where(multi, full_waves, 0).astype(np.float64)
    durations[:, 2, 1] = reduce_wave(reduce_k_last)
    counts[:, 2, 1] = (reduce_k_last > 0).astype(np.float64)
    durations[:, 3, 0] = staging_time(ul_mb, ul_reqs)
    counts[:, 3, 0] = (ul_reqs > 0).astype(np.float64)
    return (counts * durations).sum(axis=2)


class _FastPathStats:
    """Plain-int counters for batch routing decisions (obs-mirrored)."""

    __slots__ = ("analytic", "fallback", "cache_hits", "deduped", "batches",
                 "fallback_reasons")

    def __init__(self) -> None:
        self.analytic = 0
        self.fallback = 0
        self.cache_hits = 0
        self.deduped = 0
        self.batches = 0
        self.fallback_reasons: Dict[str, int] = {}

    def note_fallback(self, reason: str) -> None:
        self.fallback += 1
        self.fallback_reasons[reason] = self.fallback_reasons.get(reason, 0) + 1

    def snapshot(self) -> Dict[str, Any]:
        return {
            "analytic": self.analytic,
            "fallback": self.fallback,
            "cache_hits": self.cache_hits,
            "deduped": self.deduped,
            "batches": self.batches,
            "fallback_reasons": dict(self.fallback_reasons),
        }


_STATS = _FastPathStats()


def _stats() -> _FastPathStats:
    """The process-wide fast-path counters (internal)."""
    return _STATS


def fastpath_stats() -> Dict[str, Any]:
    """Snapshot of the batch fast-path routing counters."""
    return _STATS.snapshot()


def reset_fastpath_stats() -> None:
    """Zero the counters (benchmarks and tests)."""
    s = _STATS
    s.analytic = s.fallback = s.cache_hits = s.deduped = s.batches = 0
    s.fallback_reasons.clear()


def register_fastpath_metrics(registry: Any, key: str = "sim_fastpath") -> None:
    """Mirror fast-path counters into a metrics registry.

    Same keyed-collector pattern as the simulation cache: publishes
    ``cast_sim_fastpath_total{path=analytic|fallback|cache_hit|deduped}``,
    ``cast_sim_fastpath_batches_total`` and per-reason
    ``cast_sim_fastpath_fallbacks_total{reason=...}`` on every scrape,
    keeping the dispatch path itself uninstrumented.
    """

    def _mirror(reg: Any) -> None:
        s = _STATS
        paths = reg.counter(
            "cast_sim_fastpath_total",
            "Batch simulation requests by routing outcome",
            labelnames=("path",),
        )
        paths.set_total(s.analytic, path="analytic")
        paths.set_total(s.fallback, path="fallback")
        paths.set_total(s.cache_hits, path="cache_hit")
        paths.set_total(s.deduped, path="deduped")
        reg.counter(
            "cast_sim_fastpath_batches_total", "simulate_batch invocations"
        ).set_total(s.batches)
        reasons = reg.counter(
            "cast_sim_fastpath_fallbacks_total",
            "Event-engine fallbacks by reason",
            labelnames=("reason",),
        )
        for reason, count in sorted(s.fallback_reasons.items()):
            reasons.set_total(count, reason=reason)

    registry.register_collector(key, _mirror)


def batch_results_match(
    a: Sequence[Any],
    b: Sequence[Any],
    rtol: float = ANALYTIC_RTOL,
) -> List[str]:
    """Per-phase relative comparison of two aligned result sequences.

    Returns human-readable mismatch descriptions (empty = parity).
    Shared by the CLI ``--check`` gate, the vectorized benchmark and
    the tests so "the documented tolerance" is one definition.
    """
    problems: List[str] = []
    phases = ("download_s", "map_s", "reduce_s", "upload_s")
    for ra, rb in zip(a, b):
        for phase in phases:
            va, vb = getattr(ra, phase), getattr(rb, phase)
            scale = max(abs(va), abs(vb), 1e-12)
            if abs(va - vb) / scale > rtol:
                problems.append(
                    f"{ra.job_id}.{phase}: {va!r} vs {vb!r} "
                    f"(rel {abs(va - vb) / scale:.3e} > {rtol:g})"
                )
    return problems
