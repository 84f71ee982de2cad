"""Shared-memory membership segment and client library (Section 4.2).

The membership daemon publishes the current group to a shared-memory
segment; applications either attach the segment directly (PRESS polls
:class:`SharedView` from its control thread — same semantics as the
paper's library thread) or use :class:`MembershipClient`, which spawns a
thread that polls the segment and invokes the ``NodeIn``/``NodeOut``
callbacks, and offers ``NodeDown`` for the application to report a dead
node to the service.
"""

from __future__ import annotations

from typing import Callable, Iterable, Set

from repro.sim.kernel import Environment


class SharedView:
    """The published membership view (one per node).

    Survives application crashes (it belongs to the daemon); is lost with
    the node.
    """

    __slots__ = ("version", "members")

    def __init__(self) -> None:
        self.version = 0
        self.members: Set[int] = set()

    def publish(self, members: Iterable[int]) -> None:
        new = set(members)
        if new != self.members:
            self.members = new
            self.version += 1

    def snapshot(self) -> Set[int]:
        return set(self.members)


class MembershipClient:
    """The callback-based client library.

    ``node_in(nid)`` and ``node_out(nid)`` are invoked from a polling
    thread whenever the published view gains/loses members relative to
    the last delivered state.  ``node_down(nid)`` forwards an
    application-detected failure to the local daemon.
    """

    __slots__ = ("env", "view", "node_in", "node_out", "daemon",
                 "poll_interval", "_delivered", "_proc")

    def __init__(
        self,
        env: Environment,
        view: SharedView,
        node_in: Callable[[int], None],
        node_out: Callable[[int], None],
        daemon=None,
        poll_interval: float = 1.0,
        owner=None,
    ):
        self.env = env
        self.view = view
        self.node_in = node_in
        self.node_out = node_out
        self.daemon = daemon
        self.poll_interval = poll_interval
        self._delivered: Set[int] = set()
        self._proc = env.process(self._poll(), owner=owner, name="memclient")

    def _poll(self):
        while True:
            yield self.env.timeout(self.poll_interval)
            current = self.view.snapshot()
            # joins, then leaves, are delivered in nid order: set
            # iteration order must not reach the application
            for nid in sorted(current - self._delivered):
                self._delivered.add(nid)
                self.node_in(nid)
            for nid in sorted(self._delivered - current):
                self._delivered.discard(nid)
                self.node_out(nid)

    def node_down(self, nid: int) -> None:
        """Application-side report that ``nid`` looks dead (NodeDown())."""
        if self.daemon is not None:
            self.daemon.report_down(nid)

    def stop(self) -> None:
        self._proc.kill()
