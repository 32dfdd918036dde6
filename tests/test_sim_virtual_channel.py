"""Virtual-time channel: properties and parity with the reference channel.

The product's virtual-time :class:`~repro.simulator.storage_backend.SharedChannel`
and the seed per-transfer channel of ``tests/reference/`` run side by
side on identical transfer schedules.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.events import EventQueue
from repro.simulator.storage_backend import SharedChannel

from reference.simulator import ReferenceSharedChannel

IMPLS = [
    pytest.param(ReferenceSharedChannel, id="ReferenceSharedChannel"),
    pytest.param(SharedChannel, id="VirtualTimeSharedChannel"),
]

#: (start offset, size) schedules: a few overlapping bursts of varied
#: sizes, including same-instant cohorts (offset 0 repeats).
schedules = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False,
                  allow_infinity=False),
        st.floats(min_value=0.001, max_value=2000.0, allow_nan=False,
                  allow_infinity=False),
    ),
    min_size=1,
    max_size=20,
)


def run_schedule(cls, transfers, bandwidth=100.0, overhead=0.0):
    """Run (start, size) transfers through ``cls``; completion times by index."""
    q = EventQueue()
    ch = cls(q, bandwidth, request_overhead_s=overhead)
    done = {}
    for i, (start, size) in enumerate(transfers):
        def submit(i=i, size=size):
            ch.start_transfer(size, lambda i=i: done.__setitem__(i, q.now))
        q.schedule_at(start, submit)
    q.run()
    return done, ch


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(schedules)
    @pytest.mark.parametrize("cls", IMPLS)
    def test_byte_conservation(self, cls, transfers):
        # The fluid model serves at aggregate rate B whenever anything
        # is active, so the busy-MB odometer must equal the bytes fed in.
        done, ch = run_schedule(cls, transfers)
        total = sum(size for _, size in transfers)
        assert ch.busy_mb == pytest.approx(total, rel=1e-9)
        assert ch.n_transfers == len(transfers)
        assert ch.active_transfers == 0
        assert len(done) == len(transfers)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=0.5, max_value=500.0, allow_nan=False,
                  allow_infinity=False),
        st.integers(min_value=2, max_value=12),
    )
    @pytest.mark.parametrize("cls", IMPLS)
    def test_equal_size_cohort_is_fifo_and_simultaneous(self, cls, size, k):
        # k equal transfers admitted together finish together, and
        # their callbacks fire in admission order.
        q = EventQueue()
        ch = cls(q, 100.0)
        order = []
        for i in range(k):
            ch.start_transfer(size, lambda i=i: order.append((i, q.now)))
        q.run()
        assert [i for i, _ in order] == list(range(k))
        times = {t for _, t in order}
        assert len(times) == 1
        assert times.pop() == pytest.approx(size * k / 100.0, rel=1e-9)

    @pytest.mark.parametrize("cls", IMPLS)
    def test_completion_monotone_in_size_within_batch(self, cls):
        done, _ = run_schedule(cls, [(0.0, 100.0), (0.0, 50.0), (0.0, 200.0)])
        assert done[1] < done[0] < done[2]


class TestParity:
    @settings(max_examples=80, deadline=None)
    @given(schedules)
    def test_completion_times_match_reference(self, transfers):
        ref, _ = run_schedule(ReferenceSharedChannel, transfers)
        virt, _ = run_schedule(SharedChannel, transfers)
        for i, t_ref in ref.items():
            t_virt = virt[i]
            denom = max(abs(t_ref), abs(t_virt), 1e-12)
            assert abs(t_ref - t_virt) / denom <= 1e-9, (
                f"transfer {i}: ref={t_ref!r} virt={t_virt!r}"
            )

    @settings(max_examples=20, deadline=None)
    @given(schedules)
    def test_parity_with_request_overhead(self, transfers):
        ref, _ = run_schedule(ReferenceSharedChannel, transfers, overhead=0.08)
        virt, _ = run_schedule(SharedChannel, transfers, overhead=0.08)
        for i in ref:
            assert virt[i] == pytest.approx(ref[i], rel=1e-9)

