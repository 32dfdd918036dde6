"""Pinned outputs of the workflow (Eq. 8–10) solver paths.

Three callers drive the deadline annealer: ``CastPlusPlus.solve_workflow``
over the §5.2 suite, the planner-service entry point
``solve_workflow_request``, and the tenant-goal dispatcher for the two
deadline goals.  Each is replayed at a reduced budget and compared field
by field with ``data/workflow_pin.json``.  Every float is compared for
equality: the same seed must reproduce the recorded plans, acceptance
counts and Eq. 8–10 evaluations bit for bit.

Regenerate the fixture (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_workflow_pin.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.cloud.provider import google_cloud_2015
from repro.cloud.vm import ClusterSpec
from repro.core.annealing import AnnealingSchedule
from repro.core.castpp import (
    CastPlusPlus,
    evaluate_workflow_plan,
    solve_workflow_request,
)
from repro.core.goals import TenantGoal, solve_for_goal
from repro.profiler.profiler import build_model_matrix
from repro.workloads.io import workflow_to_dict
from repro.workloads.workflow import (
    Workflow,
    evaluation_workflow_suite,
    search_engine_workflow,
)

FIXTURE = Path(__file__).parent / "data" / "workflow_pin.json"

SUITE_ITERATIONS = 500
GOAL_ITERATIONS = 300
GOALS = (TenantGoal.MIN_MISS_RATE, TenantGoal.MIN_COST_UNDER_DEADLINES)


def _deployment(n_vms):
    provider = google_cloud_2015()
    cluster = ClusterSpec(n_vms=n_vms)
    return provider, cluster, build_model_matrix(provider=provider, cluster_spec=cluster)


def _evaluation_record(ev):
    return {
        "makespan_s": ev.makespan_s,
        "transfer_s": ev.transfer_s,
        "cost_vm_usd": ev.cost.vm_usd,
        "cost_storage_usd": ev.cost.storage_usd,
        "cost_total_usd": ev.cost.total_usd,
        "meets_deadline": ev.meets_deadline,
    }


def record_suite():
    """``solve_workflow`` over the Fig. 9 suite on the evaluation cluster."""
    provider, cluster, matrix = _deployment(25)
    solver = CastPlusPlus(
        cluster_spec=cluster, matrix=matrix, provider=provider,
        schedule=AnnealingSchedule(iter_max=SUITE_ITERATIONS), seed=42,
    )
    out = {}
    for wf in evaluation_workflow_suite():
        result = solver.solve_workflow(wf)
        ev = evaluate_workflow_plan(wf, result.best_state, cluster, matrix, provider)
        out[wf.name] = {
            "best_utility": result.best_utility,
            "accepted": result.accepted,
            "plan": result.best_state.to_dict(),
            "evaluation": _evaluation_record(ev),
        }
    return out


def record_request():
    """Every field of one planner-service workflow answer."""
    return solve_workflow_request(
        workflow_to_dict(search_engine_workflow(deadline_s=2000.0)),
        n_vms=10, iterations=GOAL_ITERATIONS, seed=7,
    )


def _goal_workflows():
    """The deadlines ``test_core_goals.py`` plans for, uniquely named."""
    impossible = search_engine_workflow(deadline_s=1.0)
    return [
        search_engine_workflow(deadline_s=3000.0),
        Workflow(
            name="impossible-twin", jobs=impossible.jobs,
            edges=impossible.edges, deadline_s=1.0,
        ),
        Workflow(
            name="tight-twin", jobs=impossible.jobs,
            edges=impossible.edges, deadline_s=2000.0,
        ),
    ]


def record_goal(goal):
    provider, cluster, matrix = _deployment(10)
    outcome = solve_for_goal(
        goal, cluster_spec=cluster, matrix=matrix, provider=provider,
        workflows=_goal_workflows(),
        schedule=AnnealingSchedule(iter_max=GOAL_ITERATIONS), seed=42,
    )
    return {
        "objective_value": outcome.objective_value,
        "plans": {name: plan.to_dict() for name, plan in outcome.plans.items()},
    }


def record_all():
    return {
        "suite": record_suite(),
        "request": record_request(),
        "goals": {goal.value: record_goal(goal) for goal in GOALS},
    }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


def test_suite_solves_match_pin(pinned):
    assert record_suite() == pinned["suite"]


def test_workflow_request_matches_pin(pinned):
    assert record_request() == pinned["request"]


@pytest.mark.parametrize("goal", GOALS, ids=lambda g: g.value)
def test_deadline_goals_match_pin(pinned, goal):
    assert record_goal(goal) == pinned["goals"][goal.value]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_workflow_pin.py --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(record_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
