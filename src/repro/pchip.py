"""Shape-preserving piecewise cubic Hermite interpolation (PCHIP).

CAST's ``REG`` (§4.2.1) is a cubic Hermite spline with PCHIP slopes
(Fritsch & Butland 1984, with Moler's one-sided end slopes).  The
planner only ever *evaluates* it, inside the anchor range, so this
module carries just that: the slopes, the per-interval power-basis
coefficients and the evaluation.

Every number is bit-identical to ``scipy.interpolate.PchipInterpolator
(xs, ys, extrapolate=False)``: the slopes and coefficients use SciPy's
floating-point operations in SciPy's order, and evaluation follows
``PPoly``'s rules (the intervals are half-open except the last, which
is closed; the cubic is summed constant term first with the powers of
``s`` built by repeated multiplication).  ``tests/test_pchip.py`` holds
SciPy as the oracle for that claim.  Outside ``[xs[0], xs[-1]]`` both
paths return NaN, as SciPy does without extrapolation.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["Pchip"]

_NAN = float("nan")


def _sign(v: float) -> float:
    """``numpy.sign`` on a Python float (NaN stays NaN)."""
    if v > 0.0:
        return 1.0
    if v < 0.0:
        return -1.0
    return v if v != v else 0.0


def _edge_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided three-point end slope, kept shape-preserving."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if _sign(d) != _sign(m0):
        return 0.0
    if _sign(m0) != _sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _slopes(h: List[float], m: List[float]) -> List[float]:
    """PCHIP derivatives at the anchors from spacings ``h`` and secants ``m``."""
    if len(m) == 1:
        # Two anchors: the interpolant is the straight line.
        return [m[0], m[0]]
    d = [0.0] * (len(m) + 1)
    for k in range(1, len(m)):
        m0, m1 = m[k - 1], m[k]
        if _sign(m1) != _sign(m0) or m1 == 0 or m0 == 0:
            continue
        # Weighted harmonic mean of the neighbouring secants.
        w1 = 2 * h[k] + h[k - 1]
        w2 = h[k] + 2 * h[k - 1]
        d[k] = 1.0 / ((w1 / m0 + w2 / m1) / (w1 + w2))
    d[0] = _edge_slope(h[0], h[1], m[0], m[1])
    d[-1] = _edge_slope(h[-1], h[-2], m[-1], m[-2])
    return d


class Pchip:
    """PCHIP interpolant through ``(xs, ys)``, evaluated on ``[xs[0], xs[-1]]``.

    ``xs`` must be strictly increasing with at least two anchors.
    Monotone data gives a monotone interpolant, so capacity curves
    never overshoot between anchors.  Call it on a Python float, or use
    :meth:`evaluate` on an array; both give the same bits.
    """

    __slots__ = ("_xs", "_last", "_c0", "_c1", "_c2", "_c3", "_xa", "_ca")

    def __init__(self, xs: Sequence[float], ys: Sequence[float]) -> None:
        x = [float(v) for v in xs]
        y = [float(v) for v in ys]
        if len(x) < 2 or len(x) != len(y):
            raise ValueError("Pchip needs two or more (x, y) anchors of equal count")
        h = [b - a for a, b in zip(x, x[1:])]
        if not all(step > 0 for step in h):
            raise ValueError("Pchip anchors must be strictly increasing in x")
        m = [(b - a) / step for a, b, step in zip(y, y[1:], h)]
        d = _slopes(h, m)
        # Power-basis rows of each interval's cubic in s = x - xs[i],
        # highest degree first (CubicHermiteSpline's c[0..3]).
        c0, c1 = [], []
        for k, step in enumerate(h):
            t = (d[k] + d[k + 1] - 2 * m[k]) / step
            c0.append(t / step)
            c1.append((m[k] - d[k]) / step - t)
        self._xs: Tuple[float, ...] = tuple(x)
        self._last = len(h) - 1
        self._c0 = tuple(c0)
        self._c1 = tuple(c1)
        self._c2 = tuple(d[:-1])
        self._c3 = tuple(y[:-1])
        self._xa = np.asarray(x, dtype=float)
        self._ca = np.asarray([c0, c1, d[:-1], y[:-1]], dtype=float)

    def __call__(self, x: float) -> float:
        """The interpolant at one point (NaN outside the anchor range)."""
        x = float(x)
        xs = self._xs
        if not xs[0] <= x <= xs[-1]:
            return _NAN
        i = bisect_right(xs, x) - 1
        if i > self._last:
            i = self._last
        s = x - xs[i]
        res = 0.0 + self._c3[i]
        res = res + self._c2[i] * s
        z = s * s
        res = res + self._c1[i] * z
        z = z * s
        return res + self._c0[i] * z

    def evaluate(self, x) -> np.ndarray:
        """Vectorized :meth:`__call__`: the same bits, element by element."""
        x = np.asarray(x, dtype=float)
        xa = self._xa
        i = np.searchsorted(xa, x, side="right") - 1
        np.clip(i, 0, self._last, out=i)
        c0, c1, c2, c3 = self._ca
        s = x - xa[i]
        res = 0.0 + c3[i]
        res = res + c2[i] * s
        z = s * s
        res = res + c1[i] * z
        z = z * s
        res = res + c0[i] * z
        res[~((x >= xa[0]) & (x <= xa[-1]))] = np.nan
        return res
