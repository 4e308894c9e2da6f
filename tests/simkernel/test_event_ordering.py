"""Event-list ordering invariants.

The kernel's reproducibility rests on the total order ``(time, priority,
seq)`` and on lazy cancellation never perturbing it.  These tests pin:
FIFO order for same-time/same-priority events, cancelled heap heads
being skipped without advancing the clock, ``EventHandle.cancel`` being a
harmless no-op after the event fired, the live/raw counts and tombstone
compaction, and -- against a sorted-list oracle -- that every dispatch is
the least pending key and that no cancelled event ever fires.
"""

import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.observability.tracer import Tracer
from repro.simkernel import Simulator
from repro.simkernel.event import PRIORITY_HIGH, PRIORITY_LOW, PRIORITY_NORMAL
from repro.simkernel.eventlist import COMPACT_MIN_TOMBSTONES


def test_same_time_same_priority_fifo_by_schedule_order():
    sim = Simulator()
    fired = []
    for tag in range(8):
        sim.schedule(5.0, lambda tag=tag: fired.append(tag))
    sim.run()
    assert fired == list(range(8))


def test_priority_breaks_time_ties():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, lambda: fired.append("normal"), priority=PRIORITY_NORMAL)
    sim.schedule(5.0, lambda: fired.append("low"), priority=PRIORITY_LOW)
    sim.schedule(5.0, lambda: fired.append("high"), priority=PRIORITY_HIGH)
    sim.schedule(1.0, lambda: fired.append("earlier"))
    sim.run()
    assert fired == ["earlier", "high", "normal", "low"]


def test_zero_delay_events_fifo_behind_same_time_peers():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule(0.0, lambda: fired.append("nested"))

    sim.schedule(1.0, first)
    sim.schedule(1.0, lambda: fired.append("second"))
    sim.run()
    # the nested zero-delay event was scheduled after "second", so FIFO
    # seq order runs it last
    assert fired == ["first", "second", "nested"]


def test_same_time_priority_ties_fifo():
    """Fifty ties at one (time, priority) dispatch in scheduling order."""
    sim = Simulator()
    order = []
    for i in range(50):
        sim.schedule_at(3.0, lambda i=i: order.append(i), priority=5)
    sim.run()
    assert order == list(range(50))


def test_zero_delay_chains():
    """A zero-delay event scheduled from a callback fires after the
    current event's same-time peers, including one scheduled absolutely."""
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.schedule(0.0, lambda: order.append("chained"))

    sim.schedule(1.0, first)
    sim.schedule_at(1.0, lambda: order.append("second"))
    sim.run()
    assert order == ["first", "second", "chained"]


def test_cancelled_head_skipped_without_advancing_clock():
    sim = Simulator()
    fired = []
    doomed = sim.schedule(1.0, lambda: fired.append("doomed"))
    sim.schedule(5.0, lambda: fired.append(sim.now))
    doomed.cancel()
    assert sim.step()  # skips the cancelled head, executes the live event
    assert fired == [5.0]
    assert sim.now == 5.0  # never dwelt at t=1
    assert sim.events_executed == 1


def test_step_on_all_cancelled_heap_is_exhaustion():
    sim = Simulator()
    for _ in range(3):
        sim.schedule(1.0, lambda: None).cancel()
    assert sim.step() is False
    assert sim.now == 0.0
    assert sim.pending == 0  # the skips drained the heap


def test_cancel_after_firing_is_a_noop():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(2.0, lambda: fired.append(2))
    sim.run()
    assert fired == [1, 2]
    handle.cancel()  # must not raise, must not un-run anything
    handle.cancel()  # idempotent too
    assert handle.cancelled
    assert sim.events_executed == 2


def test_cancel_before_firing_prevents_execution():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append(1))
    handle.cancel()
    handle.cancel()  # idempotent
    sim.run()
    assert fired == []
    assert sim.events_executed == 0


# ----------------------------------------------------------------------
# live count, raw count and tombstone compaction
# ----------------------------------------------------------------------
def test_pending_excludes_cancelled():
    """``pending`` is the live count; ``queued`` is the raw entry count
    (tombstones included until compaction)."""
    sim = Simulator()
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
    assert sim.pending == 10
    assert sim.queued == 10
    for h in handles[:4]:
        h.cancel()
    assert sim.pending == 6
    # below the compaction floor the tombstones are still resident
    assert sim.queued == 10
    sim.run()
    assert sim.pending == 0
    assert sim.events_executed == 6


def test_compaction_sweeps_tombstone_debt():
    """Cancelling most of a large list triggers compaction: queued drops
    back toward pending instead of holding every tombstone."""
    sim = Simulator()
    n = 6 * COMPACT_MIN_TOMBSTONES
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(n)]
    for h in handles[: n - COMPACT_MIN_TOMBSTONES // 2]:
        h.cancel()
    live = COMPACT_MIN_TOMBSTONES // 2
    assert sim.pending == live
    assert sim.queued < n  # compaction fired at least once
    assert sim.queued - sim.pending <= max(COMPACT_MIN_TOMBSTONES, live)
    fired = sim.events_executed
    sim.run()
    assert sim.events_executed - fired == live


def test_cancel_during_dispatch_of_same_event():
    """A callback cancelling its own already-dispatched handle must not
    corrupt the live count (the event is no longer queued)."""
    sim = Simulator()
    box = {}

    def cb():
        box["h"].cancel()

    box["h"] = sim.schedule(1.0, cb)
    sim.schedule(2.0, lambda: None)
    sim.run()
    assert sim.pending == 0
    assert sim.events_executed == 2


def test_double_cancel_counts_once():
    sim = Simulator()
    h = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    h.cancel()
    h.cancel()
    assert sim.pending == 1
    sim.run()
    assert sim.events_executed == 1


# ----------------------------------------------------------------------
# handles held past dispatch
# ----------------------------------------------------------------------
def test_stale_handle_after_dispatch_is_inert():
    """A handle held after its event fired cannot touch later events, and
    its metadata still reads correctly."""
    sim = Simulator()
    fired = []
    h1 = sim.schedule(1.0, lambda: fired.append("a"), label="first")
    sim.run()
    assert fired == ["a"]
    h2 = sim.schedule(1.0, lambda: fired.append("b"), label="second")
    h1.cancel()  # stale handle: must not cancel h2's event
    sim.run()
    assert fired == ["a", "b"]
    assert h1.label == "first"
    assert h1.time == 1.0
    assert not h2.cancelled
    assert sim.pending == 0


def test_three_thousand_reschedules():
    """A long self-rescheduling chain runs every link exactly once."""
    sim = Simulator()
    count = [0]

    def tick():
        count[0] += 1
        if count[0] < 3000:
            sim.schedule(0.5, tick)

    sim.schedule(0.5, tick)
    sim.run()
    assert count[0] == 3000
    assert sim.now == 1500.0
    assert sim.pending == 0


def test_held_handle_pins_neither_callback_nor_trace_context():
    """After dispatch (or cancel) a handle keeps only the event's schedule:
    the callback closure is collectable and the trace context is gone."""
    sim = Simulator()
    tracer = Tracer(sim)
    sim.tracer = tracer
    fired = []

    def make_callback(tag):
        def callback():
            fired.append(tag)

        return callback

    fire_cb, cancel_cb = make_callback("fire"), make_callback("cancel")
    refs = [weakref.ref(fire_cb), weakref.ref(cancel_cb)]
    with tracer.span("query.run"):
        fired_handle = sim.schedule(1.0, fire_cb, label="fire")
        cancelled_handle = sim.schedule(2.0, cancel_cb, label="cancel")
    assert fired_handle._event.trace_ctx is not None
    del fire_cb, cancel_cb
    cancelled_handle.cancel()
    sim.run()
    gc.collect()
    assert fired == ["fire"]
    assert [ref() for ref in refs] == [None, None]
    for handle in (fired_handle, cancelled_handle):
        assert handle._event.trace_ctx is None
    assert (fired_handle.time, fired_handle.label) == (1.0, "fire")
    assert not fired_handle.cancelled and cancelled_handle.cancelled


# ----------------------------------------------------------------------
# oracle tests: dispatch order against a sorted-list reference
# ----------------------------------------------------------------------
def run_against_oracle(seed: int, *, n_roots: int = 60) -> tuple[int, int]:
    """Drive a randomized self-scheduling workload through the simulator,
    checking every dispatch against a plain-list oracle.

    The oracle holds the key ``(time, priority, scheduling order)`` of
    every scheduled, not yet fired, not cancelled event.  Each dispatch
    must be the least key still held, so a cancelled event firing (its
    key is gone) fails at once.  The workload covers nested scheduling,
    priorities, zero delays, cancels from inside callbacks (own handle
    included) and heavy same-time ties.  Returns (fired, cancelled).
    """
    sim = Simulator()
    rng = np.random.default_rng(seed)
    order = itertools.count()
    pending: dict[int, tuple[float, int, int]] = {}
    handles: list = []
    fired: list[int] = []
    cancels = [0]

    def schedule_at(time: float, priority: int, depth: int) -> None:
        k = next(order)
        pending[k] = (time, priority, k)
        handle = sim.schedule_at(time, lambda: fire(k, depth), priority=priority)
        handles.append((k, handle))

    def fire(k: int, depth: int) -> None:
        assert k in pending, "a cancelled or already fired event ran"
        assert pending[k] == min(pending.values())
        assert sim.now == pending.pop(k)[0]
        fired.append(k)
        if depth > 0:
            for _ in range(int(rng.integers(0, 3))):
                delay = float(rng.choice([0.0, 0.25, rng.random() * 8.0]))
                schedule_at(sim.now + delay, int(rng.integers(0, 3)), depth - 1)
            if rng.random() < 0.3:
                victim, handle = handles[int(rng.integers(0, len(handles)))]
                handle.cancel()
                if pending.pop(victim, None) is not None:
                    cancels[0] += 1

    for _ in range(n_roots):
        t = float(rng.choice([0.0, 1.0, rng.random() * 50.0]))
        schedule_at(t, int(rng.integers(0, 2)), 2)
    sim.run()
    assert pending == {}
    assert sim.pending == 0
    assert sim.events_executed == len(fired)
    return len(fired), cancels[0]


@pytest.mark.parametrize("seed", range(8))
def test_fuzz_dispatch_matches_sorted_oracle(seed):
    n_fired, n_cancelled = run_against_oracle(seed)
    assert n_fired > 60
    assert n_cancelled > 0


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            st.integers(min_value=-3, max_value=3),
            st.booleans(),
        ),
        min_size=1,
        max_size=120,
    )
)
def test_property_dispatch_is_sorted_and_skips_cancelled(items):
    """Any (time, priority) multiset with any cancel subset dispatches in
    sorted (time, priority, scheduling order), cancelled events never."""
    sim = Simulator()
    trace = []
    handles = [
        sim.schedule_at(t, lambda j=j: trace.append(j), priority=pri)
        for j, (t, pri, _) in enumerate(items)
    ]
    for handle, (_, _, cancel) in zip(handles, items):
        if cancel:
            handle.cancel()
    sim.run()
    expected = sorted(
        (j for j, (_, _, cancel) in enumerate(items) if not cancel),
        key=lambda j: (items[j][0], items[j][1], j),
    )
    assert trace == expected
