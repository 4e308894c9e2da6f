"""Events and event handles for the DES kernel.

An :class:`Event` is a callback scheduled at a virtual time.  Events are
totally ordered by ``(time, priority, seq)``: ties in time are broken by an
explicit priority (lower runs first) and then by insertion order, which is
what makes simulation runs bit-for-bit reproducible.

Events are plain ``__slots__`` objects (not dataclasses) because they are
the single most-allocated object in a large simulation.  Each schedule
builds a fresh Event; once it fires (or is cancelled) the kernel drops its
callback and trace context, so an :class:`EventHandle` held past dispatch
keeps nothing else alive.
"""

from __future__ import annotations

import typing


#: Priority for events that must run before ordinary events at the same time
#: (e.g. topology updates that must precede message deliveries).
PRIORITY_HIGH = 0
#: Default priority for ordinary events.
PRIORITY_NORMAL = 10
#: Priority for bookkeeping that must observe all normal events at a time.
PRIORITY_LOW = 20


class Event:
    """A scheduled callback.

    Instances are created by :meth:`repro.simkernel.simulator.Simulator.schedule`
    rather than directly.  The ordering (``time``, ``priority``, ``seq``)
    defines the execution order inside the event list.

    Attributes
    ----------
    time:
        Virtual time at which the callback fires.
    priority:
        Tie-break among events at the same time; lower fires first.
    seq:
        Global insertion sequence number; final tie-break, guaranteeing
        FIFO order for equal (time, priority).
    callback:
        Zero-argument callable invoked when the event fires.
    cancelled:
        Set via :meth:`EventHandle.cancel`; cancelled events are skipped
        (lazy deletion -- cheaper than heap surgery) and swept out by the
        event list's compaction pass.
    label:
        Optional human-readable tag used by tracing.
    trace_ctx:
        Span captured from the scheduler's tracer at schedule time (None
        when tracing is disabled); restored as the current span around
        the callback, so causality follows work across scheduled hops.
    in_queue:
        True while the event sits in an event list (live or tombstoned);
        lets ``cancel`` bookkeeping distinguish queued events from ones
        already dispatched.
    """

    __slots__ = ("time", "priority", "seq", "callback", "cancelled",
                 "label", "trace_ctx", "in_queue")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: typing.Callable[[], None] | None,
        label: str = "",
        trace_ctx: typing.Any = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.label = label
        self.trace_ctx = trace_ctx
        self.in_queue = False

    def __lt__(self, other: "Event") -> bool:
        # hand-written lexicographic compare: called O(log n) times per
        # push/pop, so avoiding dataclass tuple construction matters
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "live"
        return (f"Event(t={self.time:.6g}, prio={self.priority}, "
                f"seq={self.seq}, {state}, label={self.label!r})")


class EventHandle:
    """Caller-facing handle to a scheduled event.

    Allows cancellation and introspection without exposing the event-list
    entry mutably.  Handles are cheap; the kernel returns one per
    ``schedule``.  A handle stays valid for ever: after the event fired,
    :meth:`cancel` has nothing left to suppress.
    """

    __slots__ = ("_event", "_owner")

    def __init__(self, event: Event, owner: typing.Any) -> None:
        self._event = event
        self._owner = owner

    @property
    def time(self) -> float:
        """Virtual time at which the event will fire (or would have)."""
        return self._event.time

    @property
    def label(self) -> str:
        """The label given at scheduling time."""
        return self._event.label

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called on this handle."""
        return self._event.cancelled

    def cancel(self) -> None:
        """Prevent the event from firing.

        Idempotent.  Cancelling an event that already fired has no effect
        beyond marking the handle cancelled (the event is out of the list,
        so the owner has nothing to count).
        """
        event = self._event
        if not event.cancelled:
            event.cancelled = True
            # a cancelled event never runs: drop what it would have pinned
            event.callback = None
            event.trace_ctx = None
            self._owner.note_cancel(event)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:.6g}, {state}, label={self.label!r})"
