"""Queueing primitive built on the event kernel.

:class:`Store` is an unbounded FIFO of items with blocking ``get`` (e.g.
the unified scheduler's run queue of tasks and communication units).
"""

from __future__ import annotations

import collections
import typing as _t

from repro.des.event import Event

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.des.simulator import Simulator


class Store:
    """Unbounded FIFO of items with blocking ``get``.

    ``put`` never blocks; ``get`` returns an event that fires with the
    oldest item, immediately if one is available.
    """

    def __init__(self, sim: "Simulator", name: str = "store"):
        self.sim = sim
        self.name = name
        self._items: collections.deque = collections.deque()
        self._getters: collections.deque[Event] = collections.deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: object) -> None:
        """Deposit ``item``; wakes the oldest waiting getter, if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event firing with the oldest item (possibly already available)."""
        ev = Event(self.sim, name=f"get:{self.name}")
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> object | None:
        """Non-blocking get: the oldest item or ``None`` if empty."""
        return self._items.popleft() if self._items else None
