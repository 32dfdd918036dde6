"""The in-tree PCHIP kernel against SciPy's ``PchipInterpolator``.

SciPy is a test-only dependency: it is the oracle here, never imported
by the package.  Every comparison is on the float64 bit patterns, for
both the scalar and the vectorized path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pchip import Pchip

interpolate = pytest.importorskip("scipy.interpolate")


def oracle(xs, ys):
    # Near-zero secants overflow SciPy's discarded harmonic-mean lanes.
    with np.errstate(over="ignore"):
        return interpolate.PchipInterpolator(
            np.asarray(xs, dtype=float), np.asarray(ys, dtype=float),
            extrapolate=False,
        )


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def assert_bit_identical(xs, ys, points):
    ref = oracle(xs, ys)(points)
    kernel = Pchip(xs, ys)
    assert bits(kernel.evaluate(points)) == bits(ref)
    assert bits([kernel(float(p)) for p in points]) == bits(ref)


@st.composite
def anchors(draw, min_size=2, max_size=8):
    """Strictly increasing xs with monotone, flat-run or sign-changing ys."""
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    start = draw(st.floats(min_value=-1e3, max_value=1e4))
    steps = draw(st.lists(
        st.floats(min_value=1e-3, max_value=1e3), min_size=n - 1, max_size=n - 1,
    ))
    xs = list(np.cumsum([start] + steps))
    shape = draw(st.sampled_from(["monotone", "flat", "signed"]))
    if shape == "monotone":
        rises = draw(st.lists(
            st.floats(min_value=0.0, max_value=1e3), min_size=n, max_size=n,
        ))
        ys = list(np.cumsum(rises))
    elif shape == "flat":
        # Few distinct levels, so neighbouring anchors often tie.
        ys = draw(st.lists(
            st.sampled_from([-2.0, 0.0, 0.0, 1.0, 3.5]), min_size=n, max_size=n,
        ))
    else:
        ys = draw(st.lists(
            st.floats(min_value=-1e4, max_value=1e4), min_size=n, max_size=n,
        ))
    return xs, ys


def probe_points(xs, fractions):
    """Every anchor (both ends included), plus points inside each interval."""
    pts = list(xs)
    for lo, hi in zip(xs, xs[1:]):
        pts.extend(lo + f * (hi - lo) for f in fractions)
    return np.asarray(pts, dtype=float)


class TestOracle:
    @given(
        data=anchors(),
        fractions=st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_scipy(self, data, fractions):
        xs, ys = data
        assert_bit_identical(xs, ys, probe_points(xs, fractions))

    @given(
        data=anchors(min_size=2, max_size=2),
        fractions=st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_two_anchors(self, data, fractions):
        xs, ys = data
        assert_bit_identical(xs, ys, probe_points(xs, fractions))

    def test_right_endpoint_uses_the_last_interval(self):
        xs, ys = [100.0, 250.0, 500.0, 1000.0], [40.0, 90.0, 160.0, 240.0]
        kernel = Pchip(xs, ys)
        assert kernel(1000.0) == oracle(xs, ys)(1000.0)
        assert_bit_identical(xs, ys, np.asarray(xs))

    def test_flat_runs_and_sign_changes(self):
        cases = [
            ([0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 1.0, 2.0, 2.0]),
            ([0.0, 1.0, 3.0, 4.0, 7.0], [0.0, 5.0, -2.0, 4.0, -1.0]),
            ([1.0, 2.0, 10.0], [3.0, -3.0, 3.0]),
            ([0.0, 0.5, 4.0, 4.1], [2.0, 2.0, -7.0, -7.0]),
        ]
        fractions = [0.0, 0.1, 1 / 3, 0.5, 0.9, 0.999]
        for xs, ys in cases:
            assert_bit_identical(xs, ys, probe_points(xs, fractions))

    def test_nan_outside_the_anchor_range(self):
        xs, ys = [1.0, 2.0, 4.0], [1.0, 3.0, 4.0]
        kernel = Pchip(xs, ys)
        assert np.isnan(kernel(0.5)) and np.isnan(kernel(4.5))
        out = kernel.evaluate([0.5, 1.0, 4.0, 4.5])
        assert np.isnan(out[[0, 3]]).all()
        assert bits(out[1:3]) == bits(oracle(xs, ys)([1.0, 4.0]))


class TestValidation:
    def test_needs_two_anchors(self):
        with pytest.raises(ValueError):
            Pchip([1.0], [1.0])

    def test_needs_strictly_increasing_x(self):
        with pytest.raises(ValueError):
            Pchip([1.0, 1.0, 2.0], [1.0, 2.0, 3.0])
