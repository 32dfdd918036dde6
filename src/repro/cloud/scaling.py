"""Capacity→performance scaling curves for cloud block storage.

Google Cloud's network-attached volumes (persSSD / persHDD) scale both
sequential throughput and IOPS with the provisioned volume capacity
(Table 1 of the paper).  Other providers expose the same knob via RAID-0
striping across multiple volumes; either way, the planner sees a
monotone *capacity → performance* curve with a provider-imposed ceiling.

The paper fits a third-degree-polynomial **cubic Hermite spline** through
measured points (§4.2.1, Fig. 2) and we do exactly that here with the
shape-preserving PCHIP interpolant of :mod:`repro.pchip` (bit-identical
to SciPy's ``PchipInterpolator``).  Outside the measured range
the curve is extended linearly at the boundary slope and clamped to the
documented performance cap, which keeps the curve monotone
non-decreasing — an invariant the solver relies on (more capacity can
never *hurt* estimated performance).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from ..pchip import Pchip

__all__ = ["ScalingCurve", "flat_curve"]


@dataclass(frozen=True)
class ScalingCurve:
    """A monotone capacity (GB) → performance curve.

    Parameters
    ----------
    points:
        ``(capacity_gb, value)`` anchor pairs, strictly increasing in
        capacity and non-decreasing in value.  A single point yields a
        constant curve.
    cap:
        Hard performance ceiling (provider documentation limit).  The
        interpolated / extrapolated value is clamped to this.
    """

    points: Tuple[Tuple[float, float], ...]
    cap: float
    _caps: Tuple[float, ...] = field(init=False, repr=False, compare=False)
    _vals: Tuple[float, ...] = field(init=False, repr=False, compare=False)
    _slope: float = field(init=False, repr=False, compare=False)
    _interp: Optional[Pchip] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        caps = tuple(float(p[0]) for p in self.points)
        vals = tuple(float(p[1]) for p in self.points)
        if not caps:
            raise ValueError("ScalingCurve needs at least one anchor point")
        if any(b <= a for a, b in zip(caps, caps[1:])):
            raise ValueError("capacities must be strictly increasing")
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise ValueError("values must be non-decreasing")
        if self.cap < vals[-1]:
            raise ValueError(
                f"cap {self.cap} below last anchor value {vals[-1]}"
            )
        # Anchors, terminal secant slope and spline built once: the
        # curve is evaluated on every volume the planner sizes.
        if len(caps) >= 2:
            slope = (vals[-1] - vals[-2]) / (caps[-1] - caps[-2])
            interp: Optional[Pchip] = Pchip(caps, vals)
        else:
            slope = 0.0
            interp = None
        object.__setattr__(self, "_caps", caps)
        object.__setattr__(self, "_vals", vals)
        object.__setattr__(self, "_slope", slope)
        object.__setattr__(self, "_interp", interp)

    # -- evaluation -----------------------------------------------------

    def __call__(self, capacity_gb: float) -> float:
        """Performance at ``capacity_gb``, clamped to ``[first, cap]``.

        Below the first anchor the curve scales linearly through the
        origin (a 50 GB volume gets half the 100 GB volume's MB/s, as
        GCE provisions); above the last anchor it continues at the
        terminal secant slope until hitting :attr:`cap`.
        """
        caps, vals = self._caps, self._vals
        c = float(capacity_gb)
        if c <= 0:
            raise ValueError(f"non-positive capacity: {capacity_gb} GB")
        if c < caps[0]:
            value = vals[0] * c / caps[0]
        elif c > caps[-1]:
            value = vals[-1] + self._slope * (c - caps[-1])
        elif self._interp is None:
            value = vals[0]
        else:
            value = self._interp(c)
        return min(value, self.cap)

    def evaluate(self, capacities_gb: Sequence[float]) -> np.ndarray:
        """Vectorized :meth:`__call__` over an array of capacities."""
        return np.asarray([self(c) for c in np.asarray(capacities_gb, dtype=float)])

    # -- introspection ---------------------------------------------------

    @property
    def saturation_capacity_gb(self) -> float:
        """Smallest capacity at which the curve reaches :attr:`cap`.

        Returns ``inf`` when the cap is unreachable (zero terminal
        slope below the cap).
        """
        caps, vals = self._caps, self._vals
        if vals[-1] >= self.cap:
            # Walk back to the first anchor at/above the cap.
            lo = caps[0]
            for c, v in zip(caps, vals):
                if v >= self.cap:
                    return c
            return lo
        if self._slope > 0:
            return caps[-1] + (self.cap - vals[-1]) / self._slope
        return float("inf")


def flat_curve(value: float) -> ScalingCurve:
    """A capacity-independent curve (ephSSD volumes, objStore)."""
    return ScalingCurve(points=((1.0, value),), cap=value)
