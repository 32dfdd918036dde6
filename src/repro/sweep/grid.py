"""Grid planning for cross-catalog sweeps.

A sweep is a dense (catalog × workload × knob) grid of solve requests.
This module turns the three axes into a flat, deterministic point list
carrying everything the engine needs to amortize work across points:

* **Common-random-number seeding.**  The solver seed of a point is a
  pure function of its (workload, knob) cell — *not* its catalog — so
  paired catalog comparisons at one cell are CRN-matched: the annealer
  walks the same move sequence modulo acceptance, and utility deltas
  between catalogs are catalog effects, not seed noise.  Seeds follow
  the program's one seed rule, :func:`~repro.workers.spawn_seeds`
  (cell 0 reuses the request seed unchanged).
* **Warm-start donor DAG.**  Every point names the already-solved
  neighbor whose incumbent plan seeds its search: knob point ``k``
  transfers from ``k-1`` on the same catalog, and each non-reference
  catalog's first knob point transfers cross-catalog from the
  reference catalog's anchor at the same (workload, knob) cell.  The
  induced DAG is scheduled in *waves* — all points of a wave depend
  only on earlier waves, so a wave fans out over the process pool
  without synchronization inside it.
* **Fingerprints.**  Each point carries the canonical service-layer
  request fingerprint (same hash a ``plan`` request for this cell
  would get under op ``sweep_point``), which the engine uses to dedup
  literal duplicates in the grid and the service uses as its cache key
  component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Mapping, Optional, Sequence

from ..errors import SolverError
from ..service.fingerprint import request_fingerprint
from ..workers import spawn_seeds
from ..workloads.io import workload_to_dict
from ..workloads.spec import WorkloadSpec

__all__ = ["SweepPoint", "plan_grid"]


@dataclass(frozen=True)
class SweepPoint:
    """One (catalog, workload, knob) cell of a sweep grid."""

    index: int
    catalog_idx: int
    workload_idx: int
    knob_idx: int
    provider: str
    workload_name: str
    n_vms: int
    iterations: int
    seed: int
    #: Index of the already-solved point whose plan seeds this one
    #: (None for the reference catalog's first-knob anchors).
    donor: Optional[int]
    #: Donor crosses catalogs (anchor transfer) rather than knobs.
    cross_catalog: bool
    #: Scheduling wave: every donor lives in a strictly earlier wave.
    wave: int
    fingerprint: str


def plan_grid(
    providers: Sequence[str],
    workloads: Sequence[WorkloadSpec],
    knobs: Sequence[Mapping[str, Any]],
    n_vms: int,
    iterations: int,
    seed: int,
    use_castpp: bool,
    backend: str,
    replicas: int,
) -> List[SweepPoint]:
    """Flatten the three sweep axes into a donor-annotated point list.

    ``knobs`` entries may override ``n_vms`` and/or ``iterations``; an
    entry may also carry inert keys (e.g. ``rep`` for CRN-paired
    replications) that only serve to make the cell distinct.  Point
    order is row-major (catalog, workload, knob) and deterministic.
    """
    if not providers:
        raise SolverError("sweep needs at least one provider")
    if not workloads:
        raise SolverError("sweep needs at least one workload")
    knobs = list(knobs) or [{}]
    W, K = len(workloads), len(knobs)
    # CRN: one seed per (workload, knob) cell, shared by every catalog.
    cell_seeds = spawn_seeds(seed, W * K)
    spec_dicts = [workload_to_dict(w) for w in workloads]

    points: List[SweepPoint] = []
    index = {}
    for c, prov in enumerate(providers):
        for w, workload in enumerate(workloads):
            for k, knob in enumerate(knobs):
                point_vms = int(knob.get("n_vms", n_vms))
                point_iters = int(knob.get("iterations", iterations))
                if point_vms <= 0:
                    raise SolverError(f"knob {k} has non-positive n_vms")
                if point_iters <= 0:
                    raise SolverError(f"knob {k} has non-positive iterations")
                donor: Optional[int] = None
                cross = False
                if k > 0:
                    donor = index[(c, w, k - 1)]
                elif c > 0:
                    donor = index[(0, w, 0)]
                    cross = True
                i = len(points)
                index[(c, w, k)] = i
                points.append(
                    SweepPoint(
                        index=i,
                        catalog_idx=c,
                        workload_idx=w,
                        knob_idx=k,
                        provider=str(prov),
                        workload_name=workload.name,
                        n_vms=point_vms,
                        iterations=point_iters,
                        seed=cell_seeds[w * K + k],
                        donor=donor,
                        cross_catalog=cross,
                        wave=k + (1 if c > 0 else 0),
                        fingerprint=request_fingerprint(
                            op="sweep_point",
                            spec=spec_dicts[w],
                            provider=str(prov),
                            n_vms=point_vms,
                            iterations=point_iters,
                            seed=cell_seeds[w * K + k],
                            use_castpp=use_castpp,
                            backend=backend,
                            replicas=replicas,
                        ),
                    )
                )
    return points
