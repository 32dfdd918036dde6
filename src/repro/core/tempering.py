"""Parallel-tempering annealer over the tensorized objective.

One Metropolis chain (Algorithm 2) loses search quality as workloads
grow: at 1,000 jobs the move space is so large that a single sequential
chain either freezes early (cold schedule) or never refines (hot
schedule).  Parallel tempering runs M coupled replicas of the same
search at a geometric ladder of temperatures and periodically swaps
*temperatures* between neighboring replicas — hot replicas roam the
plan space, cold replicas refine, and good plans migrate down the
ladder instead of being rediscovered.

The engine runs on :class:`~repro.core.tensor_eval.TensorWorkloadModel`:
every replica proposes one move per step, one kernel call applies all
M moves to the sufficient statistics, and the whole batch is scored in
one NumPy pass, so a tempering step costs about as much as one
incremental single-chain iteration while evaluating M× the candidates.

Determinism
-----------
Replica streams come from the program's one seed rule
(:func:`repro.workers.spawn_seeds`, which also seeds the solver pool's
restarts): ``spawn_seeds(seed, M + 1)`` gives replica 0 the request
seed itself and replicas 1..M-1 the first M-1 ``SeedSequence``
children of the seed; the swap schedule has its own dedicated stream
(the last slot, child M-1), and swap rounds visit adjacent ladder
pairs in a fixed alternating-parity order.  Each replica stream yields
one block of mixed-radix move codes and one block of Metropolis
uniforms per swap period (block lengths depend only on the schedule),
so stream consumption is a pure function of the step count.  Same seed
+ same replica count ⇒ the
same plan, bit for bit.  Changing the replica count changes results
*only* through this documented seeding (streams are appended, the swap
stream moves to the new last child) — there is no other dependence
on M.

Exactness
---------
Tensor utilities guide acceptance and best-tracking only.  The returned
:class:`~repro.core.annealing.AnnealingResult` carries the decoded best
plan re-scored through the canonical
:func:`~repro.core.utility.evaluate_plan`, so reported metrics are
bit-identical to evaluating that plan on the naive path.

Move kernel
-----------
The neighborhood mirrors the single-chain solvers, with one documented
deviation: a pure *retier* move keeps the job's current capacity level
(the single-chain kernel re-derives ``max(1.0, cap/footprint)``), which
keeps level identity exact under encode/decode.  Reuse-aware searches
(CAST++) move whole reuse sets atomically, preserving Constraint 7's
single-tier invariant by construction.  Each swap period's move codes
are decoded at once into per-step member moves
(:meth:`~repro.core.tensor_eval.TensorWorkloadModel.group_move_block` /
``job_move_block``); a step applies every replica's move in one
:meth:`~repro.core.tensor_eval.TensorWorkloadModel.apply_moves` call,
and a rejected replica is rolled back from that step's snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import SolverError
from ..obs.progress import SolverProgress
from ..workers import spawn_seeds
from ..workloads.spec import WorkloadSpec
from .annealing import _MIN_METROPOLIS_EXPONENT, AnnealingResult, AnnealingSchedule
from .plan import TieringPlan
from .tensor_eval import TensorWorkloadModel

__all__ = ["TemperingOutcome", "parallel_tempering", "solve_tempering"]

#: Geometric spacing between adjacent ladder temperatures.  Tuned on
#: the scale benchmark: tighter ladders (more, cooler replicas) beat
#: wide ones on every workload size tried — wide ladders waste the
#: hottest replicas on pure random walk.
DEFAULT_LADDER_RATIO = 1.2
#: Steps between deterministic swap rounds.
DEFAULT_SWAP_EVERY = 25
#: Drift control: every this-many swap rounds the sufficient
#: statistics are rebuilt exactly from the plan arrays, bounding how
#: long incremental float error can accumulate.
_REFRESH_ROUNDS = 4


@dataclass(frozen=True)
class TemperingOutcome:
    """Raw outcome of one tempering run (encoded-plan domain)."""

    best_tier: np.ndarray
    best_lvl: np.ndarray
    #: Guidance (tensor-path) utility of the best plan — diagnostics
    #: only; callers report the canonical re-scored value.
    best_utility: float
    iterations: int
    accepted: int
    swaps_attempted: int
    swaps_accepted: int
    refreshes: int


def _replica_streams(
    seed: int, replicas: int
) -> Tuple[List[np.random.Generator], np.random.Generator]:
    """Replica RNG streams + the dedicated swap stream (see module doc)."""
    streams = [np.random.default_rng(s) for s in spawn_seeds(seed, replicas + 1)]
    return streams[:-1], streams[-1]


def parallel_tempering(
    model: TensorWorkloadModel,
    tier0: np.ndarray,
    lvl0: np.ndarray,
    schedule: AnnealingSchedule,
    seed: int = 42,
    replicas: int = 8,
    ladder_ratio: float = DEFAULT_LADDER_RATIO,
    swap_every: int = DEFAULT_SWAP_EVERY,
    group_moves: bool = False,
    progress: Optional[Callable[[SolverProgress], None]] = None,
    progress_every: int = 500,
) -> TemperingOutcome:
    """Maximize the tensorized utility with M tempered replicas.

    Each step advances every replica by one move (scored as a batch),
    applies the same normalized-delta Metropolis rule as
    :func:`~repro.core.annealing.simulated_annealing` at the replica's
    ladder temperature, and every ``swap_every`` steps runs a
    deterministic adjacent-pair swap round; every few rounds the
    sufficient statistics are rebuilt exactly to bound incremental
    float drift.  ``group_moves`` switches to the CAST++ kernel
    (atomic reuse-set moves).

    ``progress`` samples a :class:`~repro.obs.progress.SolverProgress`
    (with per-ladder swap stats) at the first chunk boundary past every
    ``progress_every`` steps — telemetry never enters the per-step
    loop, so the disabled cost is zero.
    """
    R = int(replicas)
    if R < 1:
        raise SolverError(f"need at least one replica, got {replicas}")
    if ladder_ratio < 1.0:
        raise SolverError(f"ladder ratio must be >= 1, got {ladder_ratio}")
    if swap_every < 1:
        raise SolverError(f"swap period must be >= 1, got {swap_every}")
    T, L = model.n_tiers, model.n_levels
    if T < 2:
        raise SolverError("tempering needs at least two tiers to move between")

    state = model.make_state(tier0, lvl0, R)
    u_cur = model.utilities(state)
    u_best = u_cur[0]
    best_tier = np.array(tier0, dtype=np.int64)
    best_lvl = np.array(lvl0, dtype=np.int64)

    rngs, swap_rng = _replica_streams(int(seed), R)
    ratio_pows = np.array([float(ladder_ratio) ** i for i in range(R)])
    pos = np.arange(R)  # replica -> ladder position (0 = coldest)
    factor = ratio_pows[pos].tolist()

    # One mixed-radix move code per replica per step: a single scalar
    # draw from [0, M) decodes into every move component via divmod,
    # replacing a per-component array draw (≈10× cheaper per replica).
    N, A, G = model.n_jobs, model.n_apps, len(model.groups)
    if group_moves:
        radix = 3 * G * (T - 1) * (L - 1)
    else:
        radix = 4 * N * A * T * (T - 1) * (L - 1)

    temp = schedule.temp_init
    accepted = 0
    swaps_attempted = 0
    swaps_accepted = 0
    refreshes = 0
    tier_arr, lvl_arr = state.tier, state.lvl
    iter_max = schedule.iter_max
    next_report = int(progress_every) if progress is not None else 0

    step = 0
    while step < iter_max:
        # One block of move codes + one block of uniforms per replica
        # per swap period (RNG consumption stays a pure function of the
        # step count; blocks amortize the per-call generator overhead).
        chunk = min(swap_every, iter_max - step)
        codes = np.empty((R, chunk), dtype=np.int64)
        unis = np.empty((chunk, R))
        for r in range(R):
            codes[r] = rngs[r].integers(radix, size=chunk)
            unis[:, r] = rngs[r].random(chunk)
        unis = unis.tolist()
        # Decode every move component for the whole block at once and
        # expand it into per-step member moves; only the current tiers
        # the tier draws are relative to are read at apply time.
        v, lm_b = np.divmod(codes, L - 1)
        v, to_b = np.divmod(v, T - 1)
        if group_moves:
            kind_b, g_b = np.divmod(v, G)
            block = model.group_move_block(kind_b, g_b, to_b, lm_b)
        else:
            v, ta_b = np.divmod(v, T)
            v, ai_b = np.divmod(v, A)
            kind_b, ni_b = np.divmod(v, N)
            block = model.job_move_block(kind_b, ni_b, ai_b, ta_b, to_b, lm_b)

        for k in range(chunk):
            temp = max(temp * schedule.cooling_rate, schedule.temp_min)
            model.apply_moves(state, block[k])

            # R is small, so the accept step is scalar Python math on
            # plain lists — cheaper than ~10 tiny-ndarray ufunc calls.
            ucl = model.utilities(state)
            um = max(ucl)
            if um > u_best:
                leader = ucl.index(um)
                u_best = um
                best_tier = tier_arr[leader].copy()
                best_lvl = lvl_arr[leader].copy()

            scale = abs(u_best) if u_best != 0 else 1.0
            inv = 1.0 / (scale * temp)
            uk = unis[k]
            for r in range(R):
                d = ucl[r] - u_cur[r]
                if d >= 0.0 or uk[r] < math.exp(
                    max(d * inv / factor[r], _MIN_METROPOLIS_EXPONENT)
                ):
                    u_cur[r] = ucl[r]
                    accepted += 1
                else:
                    state.reject(r)

        step += chunk
        if progress is not None and (step >= next_report or step >= iter_max):
            next_report = step + int(progress_every)
            progress(SolverProgress(
                backend="tempering",
                iteration=step,
                iter_max=iter_max,
                temperature=temp,
                best_utility=u_best,
                accepted=accepted,
                proposed=step * R,
                replicas=R,
                swaps_attempted=swaps_attempted,
                swaps_accepted=swaps_accepted,
            ))
        if step % swap_every == 0:
            rounds = step // swap_every
            if rounds % _REFRESH_ROUNDS == 0:
                # Exact rebuild bounds incremental float drift.
                model.refresh(state)
                u_cur = model.utilities(state)
                refreshes += 1
            if R > 1:
                ladder = np.empty(R, dtype=np.int64)
                ladder[pos] = np.arange(R)  # ladder position -> replica
                parity = rounds % 2
                scale = abs(u_best) if u_best != 0 else 1.0
                for i in range(parity, R - 1, 2):
                    ra, rb = int(ladder[i]), int(ladder[i + 1])
                    t_cold = temp * float(ratio_pows[i])
                    t_hot = temp * float(ratio_pows[i + 1])
                    gain = (u_cur[rb] - u_cur[ra]) / scale
                    swap_expo = (1.0 / t_cold - 1.0 / t_hot) * gain
                    swaps_attempted += 1
                    if swap_expo >= 0.0 or swap_rng.random() < math.exp(
                        max(swap_expo, _MIN_METROPOLIS_EXPONENT)
                    ):
                        pos[ra], pos[rb] = i + 1, i
                        swaps_accepted += 1
                factor = ratio_pows[pos].tolist()

    return TemperingOutcome(
        best_tier=best_tier,
        best_lvl=best_lvl,
        best_utility=u_best,
        iterations=schedule.iter_max,
        accepted=accepted,
        swaps_attempted=swaps_attempted,
        swaps_accepted=swaps_accepted,
        refreshes=refreshes,
    )


def solve_tempering(
    solver: Any,
    workload: WorkloadSpec,
    schedule: AnnealingSchedule,
    initial: Optional[TieringPlan] = None,
    progress: Optional[Callable[[SolverProgress], None]] = None,
    progress_every: int = 500,
) -> AnnealingResult[TieringPlan]:
    """Run the tempering backend for a `CastSolver`/`CastPlusPlus`.

    Builds the tensor model matching the solver's world view, searches
    with :func:`parallel_tempering` from ``schedule`` (the ladder's
    base schedule), then decodes the best plan and re-scores it once
    through ``solver.evaluate`` (the canonical
    :func:`~repro.core.utility.evaluate_plan`) — the reported
    ``best_utility`` (and any metrics derived from the plan) are
    bit-identical to the naive path for that plan.  Run statistics land
    in ``solver.last_tempering``.
    """
    init = initial if initial is not None else solver.initial_plan(workload)
    model = TensorWorkloadModel(
        workload,
        solver.cluster_spec,
        solver.matrix,
        solver.provider,
        reuse_aware=solver._reuse_aware,
    )
    tier0, lvl0 = model.encode_plan(init)
    outcome = parallel_tempering(
        model,
        tier0,
        lvl0,
        schedule,
        seed=solver.seed,
        replicas=solver.replicas,
        group_moves=solver._reuse_aware,
        progress=progress,
        progress_every=progress_every,
    )
    best_plan = model.decode_plan(outcome.best_tier, outcome.best_lvl)
    canonical = solver.evaluate(workload, best_plan, reuse_aware=solver._reuse_aware)
    solver.last_evaluator = None
    stats: Dict[str, Any] = {
        "replicas": int(solver.replicas),
        "steps": outcome.iterations,
        "moves_proposed": outcome.iterations * int(solver.replicas),
        "accepted": outcome.accepted,
        "swaps_attempted": outcome.swaps_attempted,
        "swaps_accepted": outcome.swaps_accepted,
        "refreshes": outcome.refreshes,
        "guide_utility": outcome.best_utility,
        "canonical_utility": canonical.utility,
    }
    solver.last_tempering = stats
    return AnnealingResult(
        best_state=best_plan,
        best_utility=canonical.utility,
        iterations=outcome.iterations,
        accepted=outcome.accepted,
    )
