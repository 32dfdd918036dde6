"""Pinned answers of plain ``plan`` solves on the request path.

``solve_workload_request`` — the function a planner-service worker runs
for one ``plan`` restart — is called for basic CAST and CAST++, each on
the single-chain ``anneal`` backend and the 8-replica ``tempering``
backend, over two 100-job Facebook-SWIM workloads with several
three-member reuse sets: one whose reuse window ends before the
makespan (no holding cost) and one whose window outlives it.  Every
field of every answer — plan, utility, makespan, costs, evaluator
counters and tempering statistics — is compared for equality with
``data/solve_pin.json``: a change to the search kernels or the
objective must leave every restart bit for bit where it was.

Regenerate the fixture (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_solve_pin.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.solver import solve_workload_request
from repro.workloads.io import workload_to_dict
from repro.workloads.spec import ReuseLifetime
from repro.workloads.swim import synthesize_facebook_workload

FIXTURE = Path(__file__).parent / "data" / "solve_pin.json"

ITERATIONS = 400
SEEDS = (3, 11)
CONFIGS = {
    "cast-anneal": dict(use_castpp=False, backend="anneal"),
    "cast-tempering": dict(use_castpp=False, backend="tempering", replicas=8),
    "castpp-anneal": dict(use_castpp=True, backend="anneal"),
    "castpp-tempering": dict(use_castpp=True, backend="tempering", replicas=8),
}


def _workloads():
    return {
        # The canonical workload: five sets, one-hour window.
        "facebook": synthesize_facebook_workload(),
        # Ten sets held for a week, well past any makespan.
        "facebook-long": synthesize_facebook_workload(
            rng=np.random.default_rng(7), reuse_fraction=0.3,
            reuse_lifetime=ReuseLifetime.LONG, name="facebook-long",
        ),
    }


def record(workload_name, config):
    workload = workload_to_dict(_workloads()[workload_name])
    return [
        solve_workload_request(
            workload, iterations=ITERATIONS, seed=seed, **CONFIGS[config]
        )
        for seed in SEEDS
    ]


def record_all():
    return {
        name: {config: record(name, config) for config in CONFIGS}
        for name in _workloads()
    }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("workload_name", ["facebook", "facebook-long"])
def test_solve_matches_pin(pinned, workload_name, config):
    assert record(workload_name, config) == pinned[workload_name][config]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_solve_pin.py --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(record_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
