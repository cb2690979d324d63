"""The open-slot ``LoadMonitor`` against the deque it replaced.

``repro.net.monitor.LoadMonitor`` keeps the current slot's bytes in an
accumulator and closes a ``(slot, bytes)`` bucket only when the slot
changes; the frozen copy in ``_reference_monitor.py`` rebuilt a bucket
on every packet.  The audio router's ``linkLoad`` decisions read these
answers, and an off-by-one bucket would move ``audio_adapt`` only on
some seeds, so "equal" is strict: every ``bytes_in_window``,
``rate_kbps`` and ``rate_bps`` answer compares with ``==``, over one
non-decreasing clock (the simulator's) that hits bucket boundaries
exactly, stalls within a slot, skips more than a window, and starts in
the warm-up (``now < window``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.monitor import BUCKET_S, WINDOW_S, LoadMonitor

from ._reference_monitor import LoadMonitor as ReferenceMonitor


@st.composite
def schedules(draw):
    """The product's shape and a time-ordered list of records and
    queries."""
    window, bucket = WINDOW_S, BUCKET_S
    instant = st.one_of(
        st.integers(0, 80).map(lambda k: k * bucket),      # on a boundary
        st.floats(0.0, 8.0, allow_nan=False),               # anywhere
        st.floats(0.0, window, allow_nan=False))            # warm-up
    # sorted, so repeated draws are stalls at one instant
    times = sorted(draw(st.lists(instant, min_size=1, max_size=60)))
    ops = draw(st.lists(
        st.one_of(st.integers(0, 1500).map(lambda n: ("record", n)),
                  st.just(("query", None))),
        min_size=len(times), max_size=len(times)))
    return window, bucket, [(t, kind, n) for t, (kind, n) in zip(times, ops)]


def answers(monitor, now):
    return (monitor.bytes_in_window(now), monitor.rate_kbps(now),
            monitor.rate_bps(now))


@settings(max_examples=300, deadline=None)
@given(schedules())
def test_every_answer_equals_the_reference(schedule):
    window, bucket, steps = schedule
    monitor = LoadMonitor()
    reference = ReferenceMonitor(window=window, bucket=bucket)
    for now, kind, nbytes in steps:
        if kind == "record":
            monitor.record(now, nbytes)
            reference.record(now, nbytes)
        else:
            assert answers(monitor, now) == answers(reference, now)
        assert (monitor.total_bytes, monitor.total_packets) == (
            reference.total_bytes, reference.total_packets)
    last = steps[-1][0]
    for later in (last, last + bucket, last + window, last + 2 * window):
        assert answers(monitor, later) == answers(reference, later)


def test_open_slot_leaves_the_window_on_a_query():
    """Bytes recorded in a slot nobody has closed yet still expire when
    a query's window has moved past that slot."""
    monitor = LoadMonitor()
    reference = ReferenceMonitor(window=WINDOW_S, bucket=BUCKET_S)
    for m in (monitor, reference):
        m.record(0.25, 700)
        m.record(0.27, 300)
    for now in (0.3, 1.2, 1.25, 1.3, 1.35, 5.0):
        assert answers(monitor, now) == answers(reference, now)
    assert monitor.bytes_in_window(1.25) == 1000
    assert monitor.bytes_in_window(1.35) == 0
