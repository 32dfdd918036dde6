"""Generic simulated-annealing engine (paper Algorithm 2).

The paper's solver structure, factored out of the tiering domain so the
basic solver, CAST++'s reuse-constrained solver and the workflow
deadline solver all share one annealer:

* in every iteration a random neighbor of the current solution is
  drawn;
* a strictly better neighbor always becomes current (and possibly
  best-so-far);
* a worse neighbor is accepted with the Metropolis probability
  ``exp(dU / temp)``, where ``dU`` is the *relative* utility loss —
  utilities here have units of 1/(minute·dollar) and tiny magnitudes,
  so the difference is normalized by the running best before comparing
  with the temperature;
* the temperature decays geometrically (``Cooling``), narrowing the
  search as iterations pass, exactly as Algorithm 2 describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generic, Optional, TypeVar

import numpy as np

from ..errors import SolverError
from ..obs.progress import SolverProgress
from ..obs.tracing import span as _span

__all__ = ["AnnealingSchedule", "AnnealingResult", "Neighbor", "simulated_annealing"]

S = TypeVar("S")

#: Exponent floor for the Metropolis draw: ``exp(-745)`` is the last
#: subnormal double, so clamping here keeps ``exp`` finite and silent
#: (no underflow-to-warning churn) while leaving every acceptance
#: decision unchanged — any probability below ~5e-324 loses to the
#: uniform draw regardless.
_MIN_METROPOLIS_EXPONENT = -745.0


@dataclass(frozen=True)
class Neighbor(Generic[S]):
    """A candidate state plus the move that produced it.

    The neighbor shape a delta objective (``reset``/``propose``/
    ``accept``, see :class:`~repro.core.evaluator.PlanEvaluator`)
    needs: the annealer feeds the move to ``propose`` so only the
    touched part of the objective is recomputed — Algorithm 2's hot
    loop without the O(N) rescan.
    """

    state: S
    move: Any


@dataclass(frozen=True)
class AnnealingSchedule:
    """Hyperparameters of the annealer.

    Attributes
    ----------
    temp_init:
        Initial (dimensionless, relative) temperature.
    cooling_rate:
        Geometric decay factor applied once per iteration.
    iter_max:
        Total neighbor evaluations (Algorithm 2's ``iter_max``).
    temp_min:
        Floor below which acceptance is effectively greedy.
    """

    temp_init: float = 0.2
    cooling_rate: float = 0.998
    iter_max: int = 3000
    temp_min: float = 1e-6

    def __post_init__(self) -> None:
        if not 0 < self.cooling_rate <= 1:
            raise SolverError(f"cooling rate out of (0,1]: {self.cooling_rate}")
        if self.temp_init <= 0:
            raise SolverError(f"non-positive initial temperature: {self.temp_init}")
        if self.iter_max < 1:
            raise SolverError(f"need at least one iteration, got {self.iter_max}")


@dataclass(frozen=True)
class AnnealingResult(Generic[S]):
    """Outcome of one annealing run."""

    best_state: S
    best_utility: float
    iterations: int
    accepted: int


def simulated_annealing(
    initial_state: S,
    utility_fn: Callable[[S], float],
    neighbor_fn: Callable[[S, np.random.Generator], S],
    schedule: AnnealingSchedule,
    rng: Optional[np.random.Generator] = None,
    progress: Optional[Callable[[SolverProgress], None]] = None,
    progress_every: int = 500,
) -> AnnealingResult[S]:
    """Maximize ``utility_fn`` over states by simulated annealing.

    Parameters
    ----------
    initial_state:
        ``P-hat_init`` — where the search starts (Algorithm 2 seeds it
        with the greedy plan or Table 2 heuristics).
    utility_fn:
        The objective to maximize, in one of two protocols:

        * a plain callable ``utility_fn(state)``, with ``neighbor_fn``
          returning bare states;
        * a *delta objective* exposing ``reset(state)`` (full
          evaluation establishing the base), ``propose(state, move)``
          (utility of base + move, uncommitted) and ``accept()``
          (promote the last proposal to base), with ``neighbor_fn``
          returning :class:`Neighbor` values.

        Either may raise :class:`~repro.errors.CastError` for
        infeasible states, which are treated as utility ``-inf``
        (never accepted).
    neighbor_fn:
        Draws a random neighbor of the given state, in the shape the
        objective's protocol takes.
    progress:
        Optional sampled telemetry callback receiving a
        :class:`~repro.obs.progress.SolverProgress` every
        ``progress_every`` iterations.  ``None`` (the default) costs
        the hot loop exactly one ``is not None`` check per iteration.
    """
    from ..errors import CastError

    rng = rng if rng is not None else np.random.default_rng(0)

    propose = getattr(utility_fn, "propose", None)
    reset = getattr(utility_fn, "reset", None)
    accept_cb = getattr(utility_fn, "accept", None)
    delta_mode = callable(propose) and callable(reset) and callable(accept_cb)

    def safe_utility(state: S) -> float:
        try:
            return utility_fn(state)
        except CastError:
            return float("-inf")

    def safe_propose(state: S, move: Any) -> float:
        try:
            return propose(state, move)  # type: ignore[misc]
        except CastError:
            return float("-inf")

    current = initial_state
    # A delta objective whose base already *is* the initial state (a
    # warm-started solve that pre-rebased, e.g. via
    # ``PlanEvaluator.apply_workload_delta``) needs no baseline pass at
    # all — its cached scalars are bit-identical to what ``reset``
    # would recompute.
    prebased = (
        delta_mode
        and getattr(utility_fn, "base_plan", None) is initial_state
    )
    # The baseline evaluation is the annealer's only *full* objective
    # pass — worth its own span on the solve trace (everything after
    # runs at delta granularity and is far too hot to instrument).
    with _span("evaluator.baseline", attrs={"delta_mode": delta_mode, "prebased": prebased}):
        if prebased:
            u_current = utility_fn.base_utility  # type: ignore[attr-defined]
        elif delta_mode:
            try:
                u_current = reset(current)  # type: ignore[misc]
            except CastError:
                u_current = float("-inf")
        else:
            u_current = safe_utility(current)
    if u_current == float("-inf"):
        raise SolverError("initial state is infeasible")
    best, u_best = current, u_current

    temp = schedule.temp_init
    accepted = 0

    for it in range(schedule.iter_max):
        temp = max(temp * schedule.cooling_rate, schedule.temp_min)
        candidate = neighbor_fn(current, rng)
        if delta_mode:
            neighbor = candidate.state
            u_neighbor = safe_propose(neighbor, candidate.move)
        else:
            neighbor = candidate
            u_neighbor = safe_utility(neighbor)

        if u_neighbor > u_best:
            best, u_best = neighbor, u_neighbor

        take = u_neighbor >= u_current
        if not take and u_neighbor > float("-inf"):
            scale = abs(u_best) if u_best != 0 else 1.0
            delta = (u_neighbor - u_current) / scale
            if delta >= 0.0:
                # Normalized gain (unreachable while scale > 0, kept as
                # an overflow guard): exp would be >= 1, accept outright.
                take = True
            else:
                exponent = max(delta / temp, _MIN_METROPOLIS_EXPONENT)
                take = rng.random() < float(np.exp(exponent))
        if take:
            current, u_current = neighbor, u_neighbor
            accepted += 1
            if delta_mode:
                accept_cb()  # type: ignore[misc]
        if progress is not None and (it + 1) % progress_every == 0:
            progress(SolverProgress(
                backend="anneal",
                iteration=it + 1,
                iter_max=schedule.iter_max,
                temperature=temp,
                best_utility=u_best,
                accepted=accepted,
                proposed=it + 1,
            ))

    return AnnealingResult(
        best_state=best,
        best_utility=u_best,
        iterations=schedule.iter_max,
        accepted=accepted,
    )
