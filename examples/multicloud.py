#!/usr/bin/env python
"""Cross-provider planning: the same workload on Google Cloud vs AWS.

CAST's method is provider-agnostic — the planner consumes a storage
catalog, a price book and a profiled model matrix, nothing else.  This
example profiles and plans the same 16-job workload against both the
paper's Google Cloud catalog and an era-plausible AWS-style catalog
(striped EBS volumes, S3's higher request latencies) and compares the
resulting placements and economics.

Run:
    python examples/multicloud.py
"""

from __future__ import annotations

from collections import Counter

from repro.cloud.aws import aws_2015
from repro.cloud.provider import google_cloud_2015
from repro.core.annealing import AnnealingSchedule
from repro.core.castpp import CastPlusPlus
from repro.profiler.profiler import build_model_matrix
from repro.workloads.swim import synthesize_small_workload


def main() -> None:
    workload = synthesize_small_workload()
    print(f"workload: {workload.n_jobs} jobs, "
          f"{workload.total_footprint_gb:.0f} GB footprint\n")

    for provider in (google_cloud_2015(), aws_2015()):
        cluster = provider.cluster(10)
        matrix = build_model_matrix(provider=provider, cluster_spec=cluster)
        solver = CastPlusPlus(
            cluster_spec=cluster, matrix=matrix, provider=provider,
            schedule=AnnealingSchedule(iter_max=1500), seed=42,
        )
        plan = solver.solve(workload).best_state
        ev = solver.evaluate(workload, plan, reuse_aware=True)

        mix = Counter(p.tier.value for p in plan.placements.values())
        print(f"=== {provider.name} ({provider.default_vm.name}) ===")
        print(f"  placements : "
              + ", ".join(f"{t}: {n}" for t, n in sorted(mix.items())))
        print(f"  predicted  : {ev.makespan_min:.1f} min, "
              f"${ev.cost.total_usd:.2f} "
              f"(vm ${ev.cost.vm_usd:.2f} + storage ${ev.cost.storage_usd:.2f})")
        print(f"  utility    : {ev.utility:.3e}\n")

    print("The catalogs differ (slower S3, cheaper gp2, pricier local "
          "SSD),\nso the solver lands different mixes — no code changed "
          "between runs.")


if __name__ == "__main__":
    main()
