"""Reference Store for the differential test: every operation ends in
``_reconcile``.

:class:`ReconcileStore` is :class:`~repro.sim.store.Store` with the
operations that now hand off directly (``put``, ``get``, ``put_nowait``,
``force_put``) as they were before: each changes the queues or the buffer
and lets ``_reconcile`` decide what moves.  The real ``Store`` must
schedule the same events, in the same order, with the same values.
"""

from __future__ import annotations

from typing import Any

from repro.sim.store import Store, StoreFullError, StoreGet, StorePut


class ReconcileStore(Store):
    __slots__ = ()

    def put(self, item: Any) -> StorePut:
        ev = StorePut(self, item)
        self._put_waiters.append(ev)
        self._reconcile()
        return ev

    def get(self) -> StoreGet:
        ev = StoreGet(self)
        self._get_waiters.append(ev)
        self._reconcile()
        return ev

    def put_nowait(self, item: Any) -> None:
        if self._put_waiters or self.full:
            raise StoreFullError(f"store {self.name!r} full (capacity={self.capacity})")
        self.items.append(item)
        self._reconcile()

    def force_put(self, item: Any, front: bool = False) -> None:
        if front:
            self.items.appendleft(item)
        else:
            self.items.append(item)
        self._reconcile()
