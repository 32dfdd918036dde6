"""Start-up footprint: the serving processes run without SciPy or networkx.

The daemon, the fleet router and every shard import the CLI, server and
router modules at start-up (and again on each shard respawn).  None of
them may pull in SciPy (the PCHIP spline is in-tree) or networkx (only
workflow paths build a DAG).  The check runs in a fresh interpreter in
which importing SciPy raises ``ImportError``, so it also proves that a
plan and a fast-path what-if need no SciPy at all.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = textwrap.dedent(
    """
    import importlib.abc
    import json
    import sys


    class NoScipy(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"{name} is not installed")
            return None


    sys.meta_path.insert(0, NoScipy())

    import repro.cli
    import repro.fleet.router
    import repro.service.server

    after_import = sorted(
        m for m in ("scipy", "networkx") if m in sys.modules
    )

    from repro import plan_workload
    from repro.cloud import ClusterSpec, google_cloud_2015
    from repro.cloud.storage import Tier
    from repro.core.plan import TieringPlan
    from repro.experiments.measure import measure_plan
    from repro.experiments.runner import ExperimentRunner
    from repro.workloads.swim import synthesize_small_workload

    workload = synthesize_small_workload(n_jobs=20)
    outcome = plan_workload(workload, n_vms=10, iterations=200)

    plan = TieringPlan.uniform(workload, Tier.PERS_SSD)
    with ExperimentRunner(0, fast_path=True) as runner:
        measured = measure_plan(
            workload, plan, ClusterSpec(n_vms=10), google_cloud_2015(),
            runner=runner,
        )

    print(json.dumps({
        "after_import": after_import,
        "placements": len(outcome.plan.placements),
        "utility": outcome.evaluation.utility,
        "makespan_s": measured.makespan_s,
        "whatif_jobs": len(measured.per_job),
        "scipy_loaded": "scipy" in sys.modules,
    }))
    """
)


def test_serving_modules_start_without_scipy_or_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["after_import"] == []
    assert report["placements"] == 20
    assert report["utility"] > 0
    assert report["whatif_jobs"] == 20 and report["makespan_s"] > 0
    assert report["scipy_loaded"] is False
