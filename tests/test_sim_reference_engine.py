"""The product simulator against the seed simulator of ``tests/reference/``.

Two levels:

* the ring dispatcher with its node-local completion fast path
  (:class:`~repro.simulator.scheduler.PhaseRun`) against the seed
  full-rescan dispatcher, on timed task bodies: every task must start on
  the same node at the same time, in the same order, and the phase must
  end at the same time;
* whole jobs: :func:`~repro.simulator.engine.simulate_job` under
  :func:`~reference.simulator.reference_simulator` (seed channels and
  dispatcher) against the product engine, within 1e-9 relative on every
  phase.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cloud.provider import google_cloud_2015
from repro.cloud.storage import Tier
from repro.cloud.vm import ClusterSpec, VMType
from repro.simulator.cluster import SimCluster
from repro.simulator.engine import simulate_job
from repro.simulator.hdfs import BlockPlacement
from repro.simulator.scheduler import PhaseRun
from repro.workloads.apps import GREP, JOIN, KMEANS, PAGERANK, SORT
from repro.workloads.spec import JobSpec

from reference.simulator import ReferencePhaseRun, reference_simulator

PROVIDER = google_cloud_2015()
PHASES = ("download_s", "map_s", "reduce_s", "upload_s")
RTOL = 1e-9


@st.composite
def phase_cases(draw):
    """A cluster shape, a phase kind and its tasks' durations and pins.

    Durations come from a small set, or are all equal, so cohorts of
    tasks finishing at one instant are common.
    """
    n_nodes = draw(st.integers(1, 8))
    map_slots = draw(st.integers(1, 4))
    reduce_slots = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(("map", "reduce")))
    n_tasks = draw(st.integers(0, 40))
    if draw(st.booleans()):
        durations = [draw(st.sampled_from((1.0, 2.5)))] * n_tasks
    else:
        durations = draw(st.lists(
            st.sampled_from((0.5, 1.0, 1.0, 2.5, 4.0)),
            min_size=n_tasks, max_size=n_tasks,
        ))
    nodes = st.integers(0, n_nodes - 1)
    mode = draw(st.sampled_from(("none", "all", "mixed")))
    if mode == "none":
        pins = None
    elif mode == "all":
        pins = draw(st.lists(nodes, min_size=n_tasks, max_size=n_tasks))
    else:
        pins = draw(st.lists(st.none() | nodes, min_size=n_tasks, max_size=n_tasks))
    return n_nodes, map_slots, reduce_slots, kind, durations, pins


def run_phase(run_cls, n_nodes, map_slots, reduce_slots, kind, durations, pins):
    """(task, node, start time) in dispatch order, and the phase end time."""
    vm = VMType(name="t", vcpus=4, memory_gb=8.0,
                map_slots=map_slots, reduce_slots=reduce_slots)
    cluster = SimCluster(ClusterSpec(n_vms=n_nodes, vm=vm), PROVIDER, {})
    queue = cluster.queue
    started = []
    ended = []

    def timed(i, duration):
        def body(node, done):
            started.append((i, node.node_id, queue.now))
            queue.schedule_after(duration, done)
        return body

    tasks = [timed(i, d) for i, d in enumerate(durations)]
    run_cls(cluster, kind, tasks, lambda: ended.append(queue.now), pins=pins).start()
    queue.run()
    assert len(ended) == 1
    return started, ended[0]


class TestDispatcher:
    @settings(max_examples=300, deadline=None)
    @given(phase_cases())
    # Pins crowd node 0 while unpinned tasks fill the rest: the ring
    # must drop node 0 from its pass where the seed's rescan skips it.
    @example((3, 2, 1, "map", [1.0] * 9, [0, 0, 0, 0, None, None, 1, None, 2]))
    def test_ring_dispatch_matches_the_seed_dispatcher(self, case):
        got = run_phase(PhaseRun, *case)
        want = run_phase(ReferencePhaseRun, *case)
        assert got == want


def _assert_phases_close(got, want):
    for phase in PHASES:
        a, b = getattr(got, phase), getattr(want, phase)
        denom = max(abs(a), abs(b))
        assert denom == 0.0 or abs(a - b) / denom <= RTOL, (phase, a, b)


class TestEngine:
    @settings(max_examples=40, deadline=None)
    @given(
        app=st.sampled_from((SORT, JOIN, GREP, KMEANS, PAGERANK)),
        input_gb=st.sampled_from((2.0, 7.5, 20.0)),
        n_maps=st.integers(1, 24),
        n_vms=st.integers(1, 6),
        tier=st.sampled_from(list(Tier)),
        stage_in=st.booleans(),
        stage_out=st.booleans(),
        other=st.sampled_from(list(Tier)),
        fast_fraction=st.sampled_from((None, 0.0, 0.5, 1.0)),
    )
    def test_simulate_job_matches_the_seed_simulator(
        self, app, input_gb, n_maps, n_vms, tier, stage_in, stage_out,
        other, fast_fraction,
    ):
        job = JobSpec(job_id="j", app=app, input_gb=input_gb, n_maps=n_maps)
        cluster = ClusterSpec(n_vms=n_vms)
        placement = (
            None if fast_fraction is None
            else BlockPlacement.fractional(n_maps, tier, other, fast_fraction)
        )
        kwargs = dict(block_placement=placement, stage_in=stage_in, stage_out=stage_out)
        product = simulate_job(job, tier, cluster, PROVIDER, **kwargs)
        with reference_simulator():
            seed = simulate_job(job, tier, cluster, PROVIDER, **kwargs)
        _assert_phases_close(product, seed)

    @pytest.mark.parametrize("tier", list(Tier))
    def test_default_jobs_on_every_tier(self, tier):
        cluster = ClusterSpec(n_vms=5)
        for app in (SORT, GREP):
            job = JobSpec(job_id="d", app=app, input_gb=30.0)
            product = simulate_job(job, tier, cluster, PROVIDER)
            with reference_simulator():
                seed = simulate_job(job, tier, cluster, PROVIDER)
            _assert_phases_close(product, seed)
            # The seed channels fire an event per membership change, so
            # the harness visibly ran them.
            assert seed.events > product.events
