"""Tensor batch evaluator and parallel-tempering backend.

The exactness contract under test: the tensor path only *guides* the
search — batch utilities must track the canonical
:func:`~repro.core.utility.evaluate_plan` score to within 1e-9
relative on arbitrary plans, and any plan the tempering backend
returns is re-scored canonically, so its reported metrics are
bit-identical to the naive path.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.provider import google_cloud_2015
from repro.cloud.vm import ClusterSpec
from repro.core.annealing import AnnealingSchedule
from repro.core.castpp import CastPlusPlus
from repro.core.solver import CastSolver
from repro.core.tempering import _replica_streams, parallel_tempering
from repro.core.tensor_eval import TensorWorkloadModel
from repro.core.utility import evaluate_plan
from repro.errors import SolverError
from repro.profiler.profiler import build_model_matrix
from repro.service.fingerprint import request_fingerprint
from repro.workloads.io import workload_to_dict
from repro.workloads.swim import (
    synthesize_facebook_workload,
    synthesize_small_workload,
)

PROVIDER = google_cloud_2015()
CLUSTER = ClusterSpec(n_vms=25)
MATRIX = build_model_matrix(provider=PROVIDER, cluster_spec=CLUSTER)
WORKLOAD = synthesize_small_workload(n_jobs=14, rng=np.random.default_rng(11))
FB = synthesize_facebook_workload(rng=np.random.default_rng(11))
PARITY_RTOL = 1e-9


def make_solver(cls=CastSolver, **kwargs):
    kwargs.setdefault("schedule", AnnealingSchedule(iter_max=300))
    return cls(
        cluster_spec=CLUSTER, matrix=MATRIX, provider=PROVIDER,
        seed=7, **kwargs,
    )


def batch_state(model, tier, lvl):
    """A TensorBatchState holding arbitrary per-replica plans."""
    state = model.make_state(tier[0], lvl[0], tier.shape[0])
    state.tier[:] = tier
    state.lvl[:] = lvl
    model.refresh(state)
    return state


class TestEncodeDecode:
    def test_round_trip_is_bit_exact(self):
        model = TensorWorkloadModel(WORKLOAD, CLUSTER, MATRIX, PROVIDER)
        plan = make_solver().initial_plan(WORKLOAD)
        # Force a custom (non-level) capacity onto one job so the
        # custom-column rewrite path is exercised too.
        job_id = WORKLOAD.jobs[0].job_id
        p = plan.placements[job_id]
        plan.placements[job_id] = replace(p, capacity_gb=p.capacity_gb + 0.3125)
        tier, lvl = model.encode_plan(plan)
        decoded = model.decode_plan(tier, lvl)
        assert decoded.to_dict() == plan.to_dict()

    def test_custom_capacity_lands_on_level_zero(self):
        model = TensorWorkloadModel(WORKLOAD, CLUSTER, MATRIX, PROVIDER)
        plan = make_solver().initial_plan(WORKLOAD)
        job_id = WORKLOAD.jobs[0].job_id
        p = plan.placements[job_id]
        plan.placements[job_id] = replace(p, capacity_gb=p.capacity_gb + 0.3125)
        _, lvl = model.encode_plan(plan)
        assert lvl[model._job_pos[job_id]] == 0


class TestBatchParity:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_batch_matches_canonical_within_1e9(self, data):
        model = TensorWorkloadModel(WORKLOAD, CLUSTER, MATRIX, PROVIDER)
        N, T, L = model.n_jobs, model.n_tiers, model.n_levels
        K = 3
        tier = np.array(data.draw(st.lists(
            st.lists(st.integers(0, T - 1), min_size=N, max_size=N),
            min_size=K, max_size=K,
        )), dtype=np.int64)
        lvl = np.array(data.draw(st.lists(
            st.lists(st.integers(1, L - 1), min_size=N, max_size=N),
            min_size=K, max_size=K,
        )), dtype=np.int64)
        batch = model.utilities(batch_state(model, tier, lvl))
        for r in range(K):
            canonical = evaluate_plan(
                WORKLOAD, model.decode_plan(tier[r], lvl[r]),
                CLUSTER, MATRIX, PROVIDER,
            )
            assert batch[r] == pytest.approx(
                canonical.utility, rel=PARITY_RTOL
            )

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_reuse_aware_parity_on_group_uniform_plans(self, data):
        # The CAST++ batch path assumes each reuse set sits on one tier
        # (Constraint 7, preserved by the group move kernels), so the
        # random plans draw one tier per reuse group.
        model = TensorWorkloadModel(
            FB, CLUSTER, MATRIX, PROVIDER, reuse_aware=True
        )
        N, T, L, G = model.n_jobs, model.n_tiers, model.n_levels, len(model.groups)
        tier = np.empty(N, dtype=np.int64)
        for g, ns in enumerate(model.groups):
            tier[ns] = data.draw(st.integers(0, T - 1))
        lvl = np.array(
            data.draw(st.lists(st.integers(1, L - 1), min_size=N, max_size=N)),
            dtype=np.int64,
        )
        batch = model.utilities(batch_state(model, tier[None, :], lvl[None, :]))
        canonical = evaluate_plan(
            FB, model.decode_plan(tier, lvl),
            CLUSTER, MATRIX, PROVIDER, reuse_aware=True,
        )
        assert batch[0] == pytest.approx(canonical.utility, rel=PARITY_RTOL)


class TestTemperingBackend:
    @pytest.mark.parametrize("cls,workload,reuse", [
        (CastSolver, WORKLOAD, False),
        (CastPlusPlus, FB, True),
    ])
    def test_rescore_is_bit_identical(self, cls, workload, reuse):
        solver = make_solver(cls, backend="tempering", replicas=4)
        result = solver.solve(workload)
        canonical = evaluate_plan(
            workload, result.best_state, CLUSTER, MATRIX, PROVIDER,
            reuse_aware=reuse,
        )
        assert result.best_utility == canonical.utility  # bit-identical
        assert solver.last_tempering["canonical_utility"] == canonical.utility
        assert solver.last_tempering["replicas"] == 4

    @pytest.mark.parametrize("use_castpp,rescores", [
        (True, [True]),
        (False, [False, True]),
    ])
    def test_winner_rescored_once_per_world_view(
        self, monkeypatch, use_castpp, rescores
    ):
        # CAST++'s canonical re-score is reuse-aware, like the report
        # plan_workload asks for, so it doubles as that report; basic
        # CAST's reuse-oblivious re-score stays a separate evaluation.
        import repro
        import repro.core.solver as solver_mod
        import repro.core.tempering as tempering_mod

        calls = []
        real = solver_mod.evaluate_plan

        def counting(workload, plan, *args, **kwargs):
            calls.append((plan, kwargs.get("reuse_aware")))
            return real(workload, plan, *args, **kwargs)

        monkeypatch.setattr(solver_mod, "evaluate_plan", counting)
        monkeypatch.setattr(tempering_mod, "evaluate_plan", counting, raising=False)
        outcome = repro.plan_workload(
            FB, n_vms=25, provider=PROVIDER, use_castpp=use_castpp,
            iterations=100, seed=3, backend="tempering", replicas=4,
        )
        winner = [reuse for plan, reuse in calls if plan is outcome.plan]
        assert winner == rescores
        report = real(
            FB, outcome.plan, outcome.solver.cluster_spec, MATRIX, PROVIDER,
            reuse_aware=True,
        )
        assert outcome.evaluation.utility == report.utility
        assert outcome.solver.last_tempering["canonical_utility"] == real(
            FB, outcome.plan, outcome.solver.cluster_spec, MATRIX, PROVIDER,
            reuse_aware=use_castpp,
        ).utility

    def test_same_seed_same_plan(self):
        a = make_solver(backend="tempering", replicas=4).solve(WORKLOAD)
        b = make_solver(backend="tempering", replicas=4).solve(WORKLOAD)
        assert a.best_utility == b.best_utility
        assert a.best_state.to_dict() == b.best_state.to_dict()

    def test_replica_zero_stream_is_seed_pinned(self):
        # Documented seeding: replica 0 always consumes default_rng(seed),
        # so changing the replica count perturbs results only through
        # the extra SeedSequence-spawned streams.
        draws = []
        for replicas in (1, 4, 8):
            streams, _ = _replica_streams(42, replicas)
            draws.append(streams[0].integers(1 << 30, size=8).tolist())
        assert draws[0] == draws[1] == draws[2]
        assert draws[0] == np.random.default_rng(42).integers(
            1 << 30, size=8
        ).tolist()

    def test_validation_errors(self):
        model = TensorWorkloadModel(WORKLOAD, CLUSTER, MATRIX, PROVIDER)
        solver = make_solver()
        tier, lvl = model.encode_plan(solver.initial_plan(WORKLOAD))
        with pytest.raises(SolverError):
            parallel_tempering(model, tier, lvl, solver.schedule, replicas=0)
        with pytest.raises(SolverError):
            parallel_tempering(
                model, tier, lvl, solver.schedule, ladder_ratio=0.5
            )
        with pytest.raises(SolverError):
            parallel_tempering(model, tier, lvl, solver.schedule, swap_every=0)


class TestBackendWiring:
    def test_unknown_backend_raises(self):
        with pytest.raises(SolverError, match="unknown solver backend"):
            make_solver(backend="quantum").solve(WORKLOAD)

    def test_fingerprint_distinguishes_backends(self):
        spec = workload_to_dict(WORKLOAD)
        anneal = request_fingerprint("plan", spec, backend="anneal")
        tempering = request_fingerprint("plan", spec, backend="tempering")
        assert anneal != tempering
        assert request_fingerprint(
            "plan", spec, backend="tempering", replicas=4
        ) != tempering
