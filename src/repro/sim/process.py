"""Generator-coroutine processes with ownership semantics.

A :class:`Process` drives a generator that yields :class:`~repro.sim.kernel.Event`
objects; the process resumes when the yielded event fires.  A process is
itself an event, triggered with the generator's return value, so processes
can wait on each other.

Ownership (:class:`ProcessOwner`) models what the paper's fault types do to
running software:

* **freeze** — event deliveries to the owner's processes are parked and
  replayed in order on :meth:`ProcessOwner.thaw`.  The process "resumes
  where it left off", exactly like a frozen OS or a hung application
  whose state survives.
* **crash** — all of the owner's processes are killed and parked
  deliveries are dropped; state is lost and must be rebuilt by whatever
  restart logic the owner's host implements.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.kernel import Environment, Event, SimulationError, URGENT


class _Killed:
    """Sentinel value a killed process's completion event carries."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<KILLED>"


#: Value of a process event whose process was killed (by a crash fault or
#: explicitly).  Waiters should treat it as "the peer died", not a result.
KILLED = _Killed()


class Interrupt(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`."""

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class ProcessOwner:
    """Mixin giving an entity (node, app process-group) fault semantics.

    Subclasses (e.g. :class:`repro.hardware.host.ProcGroup`) call
    :meth:`freeze`/:meth:`thaw`/:meth:`crash`/:meth:`revive` when faults
    are injected and repaired.
    """

    __slots__ = ("_procs", "_parked", "_frozen", "_owner_alive")

    def __init__(self) -> None:
        # Insertion-ordered set: crash() kills processes in spawn order.
        # A plain set would iterate in id()-hash order, which varies from
        # run to run and would leak into the kill/event sequence.
        self._procs: dict = {}
        self._parked: list = []
        self._frozen = False
        self._owner_alive = True

    # -- state queried by the kernel -------------------------------------
    @property
    def frozen(self) -> bool:
        return self._frozen

    @property
    def alive(self) -> bool:
        return self._owner_alive

    def is_runnable(self) -> bool:
        return self._owner_alive and not self._frozen

    # -- registration -----------------------------------------------------
    def attach(self, proc: "Process") -> None:
        self._procs[proc] = None

    def detach(self, proc: "Process") -> None:
        self._procs.pop(proc, None)

    @property
    def processes(self) -> frozenset:
        return frozenset(self._procs)

    # -- fault transitions -------------------------------------------------
    def park(self, deliver: Callable[[], None]) -> None:
        """Hold a pending event delivery until the owner is runnable again."""
        self._parked.append(deliver)

    def freeze(self) -> None:
        if not self._owner_alive:
            raise SimulationError("cannot freeze a crashed owner")
        self._frozen = True

    def thaw(self, env: Environment) -> None:
        """Resume execution, replaying parked deliveries in arrival order."""
        if not self._frozen:
            return
        self._frozen = False
        if not self._parked:
            return
        parked, self._parked = self._parked, []

        replay = Event(env)

        def _replay(_evt: Event) -> None:
            for deliver in parked:
                deliver()

        replay.add_callback(_replay)
        replay.succeed(priority=URGENT)

    def crash(self) -> None:
        """Kill every owned process and drop parked deliveries."""
        self._owner_alive = False
        self._frozen = False
        self._parked.clear()
        for proc in list(self._procs):
            proc.kill()
        self._procs.clear()

    def revive(self) -> None:
        """Mark the owner runnable again (fresh boot; no processes yet)."""
        self._owner_alive = True
        self._frozen = False
        self._parked.clear()


class Process(Event):
    """A running generator coroutine.

    The process event triggers when the generator returns (value = return
    value), raises (the process event *fails* with that exception), or is
    killed (value = :data:`KILLED`).
    """

    __slots__ = ("_generator", "owner", "name", "_target", "ctx")

    def __init__(
        self,
        env: Environment,
        generator,
        owner: Optional[ProcessOwner] = None,
        name: Optional[str] = None,
        ctx=None,
    ):
        if not hasattr(generator, "send"):
            raise TypeError(f"process body must be a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        self.owner = owner
        self.name = name or getattr(generator, "__name__", "process")
        #: trace context (repro.obs.spans.Span) this process runs under;
        #: published to env._spawn_ctx on every resume while a span
        #: recorder is bound, so child spawns inherit it (see
        #: Environment.process).  Always None when request tracing is off.
        self.ctx = ctx
        self._target: Optional[Event] = None
        if owner is not None:
            owner.attach(self)
        bootstrap = Event(env)
        bootstrap.add_callback(self._resume)
        bootstrap.succeed(priority=URGENT)

    # -- introspection ----------------------------------------------------
    @property
    def is_alive(self) -> bool:
        return self._ok is None

    def code_ref(self) -> tuple:
        """``(filename, qualname, firstlineno)`` of the generator body.

        A stable, instance-independent identity for *which code* this
        process runs — the join key the race detector uses to map a
        running process onto its static effect set in the call graph
        (``repro.analysis.racecheck``).  Survives kill(): the closed
        generator keeps its code object.
        """
        code = getattr(self._generator, "gi_code", None)
        if code is None:  # non-generator coroutine-like object
            return ("", self.name, 0)
        qualname = getattr(code, "co_qualname", code.co_name)
        return (code.co_filename, qualname, code.co_firstlineno)

    # -- event delivery ---------------------------------------------------
    def _resume(self, event: Event) -> None:
        # The process trampoline: runs once per delivery, so it reads the
        # slots behind is_alive/is_runnable() directly.
        if self._ok is not None:
            # Late delivery to a finished/killed process: consume failures
            # so the kernel does not raise them as unhandled.
            if event._ok is False:
                event._defused = True
            return
        owner = self.owner
        if owner is not None and (owner._frozen or not owner._owner_alive):
            if event._ok is False:
                event._defused = True
            if owner._owner_alive:  # frozen: hold for thaw
                owner.park(lambda: self._resume(event))
            # crashed: drop silently (kill() will fire shortly/has fired)
            return
        self._target = None
        env = self.env
        if env._spans is not None:
            # Publish this process's trace context for the duration of the
            # resume: spawns inside the generator body capture it.  A plain
            # store (no save/restore) suffices — the next resume overwrites
            # it, and it is read only synchronously inside spawn calls.
            env._spawn_ctx = self.ctx
        try:
            if event._ok:
                nxt = self._generator.send(event._value)
            else:
                event._defused = True
                nxt = self._generator.throw(event._value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except BaseException as exc:
            if self.owner is not None:
                self.owner.detach(self)
            self.fail(exc)
            return
        if not isinstance(nxt, Event):
            raise SimulationError(f"process {self.name!r} yielded non-event {nxt!r}")
        if nxt.env is not env:
            raise SimulationError("yielded event belongs to a different Environment")
        self._target = nxt
        nxt.add_callback(self._resume)

    def _finish(self, value: Any) -> None:
        if self.owner is not None:
            self.owner.detach(self)
        self.succeed(value)

    # -- external control ---------------------------------------------------
    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the generator (urgent priority)."""
        if not self.is_alive:
            return
        ev = Event(self.env)

        def _deliver(evt: Event) -> None:
            if not self.is_alive:
                evt._defused = True
                return
            if self._target is not None:
                self._target.remove_callback(self._resume)
                self._detach_from_target()
            self._resume(evt)

        ev.add_callback(_deliver)
        ev.fail(Interrupt(cause), priority=URGENT)

    def kill(self) -> None:
        """Terminate immediately; the process event triggers with KILLED."""
        if not self.is_alive:
            return
        if self._target is not None:
            self._target.remove_callback(self._resume)
            self._detach_from_target()
            self._target = None
        self._generator.close()
        if self.owner is not None:
            self.owner.detach(self)
        self.succeed(KILLED)

    def _detach_from_target(self) -> None:
        """Withdraw from a cancellable target (e.g. a queued Store get/put)."""
        target = self._target
        cancel = getattr(target, "cancel", None)
        if cancel is not None and not target.triggered:
            cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.is_alive else "done"
        return f"<Process {self.name} {state}>"
