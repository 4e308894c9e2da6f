"""The pending-event list of the DES kernel.

:class:`EventList` is a binary heap (``heapq``) ordered by the kernel's
total order ``(time, priority, seq)``, so pops come out in exactly the
order that makes runs reproducible.

Cancellation is lazy: ``EventHandle.cancel`` marks the event and tells the
list (:meth:`EventList.note_cancel`), so ``len(list)`` is always the number
of *live* events -- the count monitors and dashboards want -- while
:attr:`EventList.queued` keeps the raw entry count.  A cancelled event
still in the heap is a *tombstone*; pops skip tombstones, and when they
outnumber the live events (and exceed a floor) the list compacts, sweeping
them out instead of letting them linger until their virtual time arrives.
"""

from __future__ import annotations

import heapq

from repro.simkernel.event import Event

#: Compaction fires when tombstones exceed both this floor and the live count.
COMPACT_MIN_TOMBSTONES = 64


class EventList:
    """Binary heap of pending events with lazy cancellation."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._live = 0
        self._tombstones = 0

    def push(self, event: Event) -> None:
        event.in_queue = True
        heapq.heappush(self._heap, event)
        self._live += 1

    def peek(self) -> Event | None:
        """The next live event, pruning cancelled heads (no removal)."""
        heap = self._heap
        while heap:
            head = heap[0]
            if not head.cancelled:
                return head
            heapq.heappop(heap)
            self._tombstones -= 1
            head.in_queue = False
        return None

    def pop(self) -> Event | None:
        """Remove and return the next live event, or None when empty."""
        head = self.peek()
        if head is None:
            return None
        heapq.heappop(self._heap)
        head.in_queue = False
        self._live -= 1
        return head

    def note_cancel(self, event: Event) -> None:
        """Bookkeeping hook called by ``EventHandle.cancel``."""
        if not event.in_queue:
            return  # already dispatched (or swept); nothing queued to count
        self._live -= 1
        self._tombstones += 1
        if self._tombstones > COMPACT_MIN_TOMBSTONES and self._tombstones > self._live:
            self._compact()

    def _compact(self) -> None:
        live = []
        for event in self._heap:
            if event.cancelled:
                event.in_queue = False
            else:
                live.append(event)
        heapq.heapify(live)  # heap layout is irrelevant to pop order: the
        self._heap = live    # (time, priority, seq) total order is strict
        self._tombstones = 0

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) queued events."""
        return self._live

    @property
    def queued(self) -> int:
        """Raw entry count including cancelled tombstones."""
        return len(self._heap)
