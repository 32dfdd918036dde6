"""The generic simulated-annealing engine (Algorithm 2 skeleton)."""

import numpy as np
import pytest

from repro.core.annealing import AnnealingSchedule, simulated_annealing
from repro.errors import CastError, SolverError


def quadratic_utility(x: float) -> float:
    """Maximum at x = 3."""
    return -((x - 3.0) ** 2)


def step_neighbor(x: float, rng: np.random.Generator) -> float:
    return x + rng.normal(0.0, 0.5)


class TestSchedule:
    def test_defaults_valid(self):
        AnnealingSchedule()

    def test_bad_cooling_rejected(self):
        with pytest.raises(SolverError):
            AnnealingSchedule(cooling_rate=0.0)
        with pytest.raises(SolverError):
            AnnealingSchedule(cooling_rate=1.5)

    def test_bad_temperature_rejected(self):
        with pytest.raises(SolverError):
            AnnealingSchedule(temp_init=-1.0)

    def test_zero_iterations_rejected(self):
        with pytest.raises(SolverError):
            AnnealingSchedule(iter_max=0)


class TestSearch:
    def test_finds_quadratic_maximum(self):
        result = simulated_annealing(
            initial_state=-10.0,
            utility_fn=quadratic_utility,
            neighbor_fn=step_neighbor,
            schedule=AnnealingSchedule(iter_max=3000),
            rng=np.random.default_rng(7),
        )
        assert result.best_state == pytest.approx(3.0, abs=0.2)

    def test_best_never_worse_than_initial(self):
        for seed in range(5):
            result = simulated_annealing(
                initial_state=2.9,  # already near-optimal
                utility_fn=quadratic_utility,
                neighbor_fn=step_neighbor,
                schedule=AnnealingSchedule(iter_max=50),
                rng=np.random.default_rng(seed),
            )
            assert result.best_utility >= quadratic_utility(2.9)

    def test_deterministic_for_fixed_seed(self):
        def run():
            return simulated_annealing(
                -5.0, quadratic_utility, step_neighbor,
                AnnealingSchedule(iter_max=200), np.random.default_rng(3),
            )

        assert run().best_state == run().best_state

    def test_infeasible_neighbors_never_accepted(self):
        def utility(x):
            if x < 0:
                raise CastError("infeasible region")
            return -x

        result = simulated_annealing(
            5.0, utility, step_neighbor,
            AnnealingSchedule(iter_max=500), np.random.default_rng(0),
        )
        assert result.best_state >= 0.0

    def test_infeasible_initial_state_rejected(self):
        def utility(x):
            raise CastError("nothing is feasible")

        with pytest.raises(SolverError, match="initial"):
            simulated_annealing(
                0.0, utility, step_neighbor,
                AnnealingSchedule(iter_max=10), np.random.default_rng(0),
            )

    def test_trajectory_recorded_and_monotone(self):
        samples = []
        result = simulated_annealing(
            -10.0, quadratic_utility, step_neighbor,
            AnnealingSchedule(iter_max=300), np.random.default_rng(1),
            progress=samples.append, progress_every=1,
        )
        assert [p.iteration for p in samples] == list(range(1, 301))
        traj = np.asarray([p.best_utility for p in samples])
        assert np.all(np.diff(traj) >= 0)  # best-so-far never regresses
        assert traj[-1] == result.best_utility

    def test_iteration_and_acceptance_counters(self):
        result = simulated_annealing(
            -10.0, quadratic_utility, step_neighbor,
            AnnealingSchedule(iter_max=100), np.random.default_rng(2),
        )
        assert result.iterations == 100
        assert 0 < result.accepted <= 100

    def test_high_temperature_accepts_more(self):
        def count_accepts(temp):
            return simulated_annealing(
                3.0, quadratic_utility, step_neighbor,
                AnnealingSchedule(iter_max=500, temp_init=temp, cooling_rate=1.0),
                np.random.default_rng(11),
            ).accepted

        assert count_accepts(10.0) > count_accepts(0.001)


class _CountingDelta:
    """Toy delta objective over an integer vector: maximize -sum(x^2).

    ``propose`` applies single-index moves against the cached base sum;
    full evaluations (``reset`` only) are counted separately, so the
    test can verify the annealer drives a delta objective through the
    delta protocol alone.
    """

    def __init__(self):
        self.full_calls = 0
        self.delta_calls = 0
        self.accepts = 0
        self._base = None
        self._base_u = None
        self._pending = None

    def __call__(self, state):
        self.full_calls += 1
        return -sum(v * v for v in state)

    def reset(self, state):
        self._base = tuple(state)
        self._base_u = self(state)
        return self._base_u

    def propose(self, state, move):
        idx, value = move
        old = self._base[idx]
        u = self._base_u - (value * value - old * old)
        self.delta_calls += 1
        self._pending = (tuple(state), u)
        return u

    def accept(self):
        self._base, self._base_u = self._pending
        self.accepts += 1


class TestDeltaProtocol:
    def _neighbor(self, state, rng):
        from repro.core.annealing import Neighbor

        idx = int(rng.integers(len(state)))
        value = int(rng.integers(-5, 6))
        nxt = list(state)
        nxt[idx] = value
        return Neighbor(tuple(nxt), (idx, value))

    def test_delta_path_used_and_matches_full(self):
        objective = _CountingDelta()
        result = simulated_annealing(
            (4, -3, 5, 2), objective, self._neighbor,
            AnnealingSchedule(iter_max=400), np.random.default_rng(3),
        )
        # One full evaluation (the reset); everything else was a delta.
        assert objective.full_calls == 1
        assert objective.delta_calls == 400
        assert objective.accepts == result.accepted
        # The optimum of -sum(x^2) is the zero vector.
        assert result.best_utility == 0
        assert result.best_state == (0, 0, 0, 0)

    def test_delta_and_plain_runs_agree(self):
        objective = _CountingDelta()
        with_moves = simulated_annealing(
            (4, -3, 5, 2), objective, self._neighbor,
            AnnealingSchedule(iter_max=200), np.random.default_rng(9),
        )
        plain = simulated_annealing(
            (4, -3, 5, 2), lambda s: -sum(v * v for v in s),
            lambda s, rng: self._neighbor(s, rng).state,
            AnnealingSchedule(iter_max=200), np.random.default_rng(9),
        )
        assert with_moves.best_state == plain.best_state
        assert with_moves.best_utility == plain.best_utility
        assert with_moves.accepted == plain.accepted


class TestMetropolisOverflowGuard:
    def test_huge_utility_gap_does_not_warn_or_crash(self):
        # A worse neighbor by an astronomic margin: exp(delta/temp)
        # would underflow (and warn) without the exponent clamp.
        states = {0: 0.0, 1: -1e308}

        def utility(s):
            return states[s]

        def neighbor(s, rng):
            return 1 - s

        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = simulated_annealing(
                0, utility, neighbor,
                AnnealingSchedule(iter_max=50, temp_init=1e-6),
                np.random.default_rng(0),
            )
        assert result.best_state == 0
        assert result.best_utility == 0.0
