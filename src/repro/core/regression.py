"""Capacity-scaling regression (``REG`` in Eq. 4, §4.2.1).

The paper: *"After carefully considering multiple regression models, we
find that a third degree polynomial-based cubic Hermite spline is a
good fit for the applications and storage services considered"* — used
both to interpolate profiled runtimes across provisioned capacity
(Fig. 2) and inside the solver's completion-time estimate (Eq. 4).

:class:`CapacitySpline` is that model: a shape-preserving PCHIP cubic
Hermite spline through observed ``(capacity, value)`` points, with
constant extension outside the observed range (extrapolating a cubic
would let the solver invent performance no measurement supports).  The
spline is the in-tree :class:`~repro.pchip.Pchip` kernel, bit-identical
to SciPy's ``PchipInterpolator``.  A linear variant is provided for the
regression-model ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from ..pchip import Pchip

__all__ = ["CapacitySpline", "LinearCapacityModel", "fit_runtime_model"]


@dataclass(frozen=True)
class CapacitySpline:
    """PCHIP cubic-Hermite spline through ``(capacity, value)`` points.

    Monotone data yields a monotone interpolant (PCHIP's defining
    property), so runtime-vs-capacity curves never oscillate between
    anchors the way a least-squares cubic can.
    """

    points: Tuple[Tuple[float, float], ...]
    _interp: Optional[Pchip] = field(init=False, repr=False, compare=False)
    _x_lo: float = field(init=False, repr=False, compare=False)
    _x_hi: float = field(init=False, repr=False, compare=False)
    _y_lo: float = field(init=False, repr=False, compare=False)
    _y_hi: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("CapacitySpline needs at least one point")
        xs = np.asarray([p[0] for p in self.points], dtype=float)
        ys = np.asarray([p[1] for p in self.points], dtype=float)
        if xs.size > 1 and np.any(np.diff(xs) <= 0):
            raise ValueError("capacities must be strictly increasing")
        interp = Pchip(xs, ys) if xs.size > 1 else None
        # Anchor endpoints cached once: __call__ sits in the solver's
        # innermost loop and must not rebuild per-point lists per call.
        object.__setattr__(self, "_interp", interp)
        object.__setattr__(self, "_x_lo", float(xs[0]))
        object.__setattr__(self, "_x_hi", float(xs[-1]))
        object.__setattr__(self, "_y_lo", float(ys[0]))
        object.__setattr__(self, "_y_hi", float(ys[-1]))

    def __call__(self, capacity: float) -> float:
        """Evaluate with constant extension outside the anchor range."""
        if capacity <= self._x_lo:
            return self._y_lo
        if capacity >= self._x_hi:
            return self._y_hi
        return self._interp(capacity)  # type: ignore[misc]

    def evaluate(self, capacities: Sequence[float]) -> np.ndarray:
        """Vectorized evaluation, constant-extended outside the anchors.

        Interior points go through the spline in a single vectorized
        call; boundary points take the cached anchor values
        exactly (bit-identical to the scalar path, which never evaluates
        the polynomial at the breakpoints).
        """
        caps = np.asarray(capacities, dtype=float)
        out = np.empty(caps.shape, dtype=float)
        lo = caps <= self._x_lo
        hi = caps >= self._x_hi
        out[lo] = self._y_lo
        out[hi] = self._y_hi
        mid = ~(lo | hi)
        if np.any(mid):
            out[mid] = self._interp.evaluate(caps[mid])  # type: ignore[union-attr]
        return out


@dataclass(frozen=True)
class LinearCapacityModel:
    """Piecewise-linear interpolation baseline (ablation comparator)."""

    points: Tuple[Tuple[float, float], ...]
    _xs: np.ndarray = field(init=False, repr=False, compare=False)
    _ys: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("LinearCapacityModel needs at least one point")
        xs = [p[0] for p in self.points]
        if sorted(xs) != xs or len(set(xs)) != len(xs):
            raise ValueError("capacities must be strictly increasing")
        object.__setattr__(self, "_xs", np.asarray(xs, dtype=float))
        object.__setattr__(
            self, "_ys", np.asarray([p[1] for p in self.points], dtype=float)
        )

    def __call__(self, capacity: float) -> float:
        return float(np.interp(capacity, self._xs, self._ys))

    def evaluate(self, capacities: Sequence[float]) -> np.ndarray:
        """Vectorized evaluation."""
        return np.interp(np.asarray(capacities, dtype=float), self._xs, self._ys)


def fit_runtime_model(
    capacities_gb: Sequence[float],
    runtimes_s: Sequence[float],
    kind: str = "pchip",
):
    """Fit a runtime-vs-capacity model from profiled observations.

    Parameters
    ----------
    capacities_gb / runtimes_s:
        Paired observations (need not be sorted).
    kind:
        ``"pchip"`` (the paper's model) or ``"linear"`` (ablation).
    """
    caps = np.asarray(capacities_gb, dtype=float)
    runs = np.asarray(runtimes_s, dtype=float)
    if caps.shape != runs.shape:
        raise ValueError(
            f"shape mismatch: {caps.shape} capacities vs {runs.shape} runtimes"
        )
    order = np.argsort(caps)
    pts = tuple((float(caps[i]), float(runs[i])) for i in order)
    if kind == "pchip":
        return CapacitySpline(points=pts)
    if kind == "linear":
        return LinearCapacityModel(points=pts)
    raise ValueError(f"unknown regression kind: {kind!r}")
