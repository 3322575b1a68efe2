"""Real Python threads as one kind of engine thread.

CalFuzzer's point was instrumenting real programs.  This module runs
ordinary ``threading``-style code under the one
:class:`~repro.runtime.interpreter.Execution`: each thread of a native
program is a real OS thread wrapped in a :class:`TokenThread`, an adapter
with the generator protocol (``send``/``throw``/``__next__``/``close``).
``send(v)`` hands the token to the OS thread and blocks until that thread
publishes its next :class:`~repro.runtime.ops.Op` or finishes.  Only the
token holder ever runs, so the real threads carry real stacks, closures
and exception flow, not parallelism.

Programs route shared-state effects through the :class:`NativeRuntime`
handle they receive::

    def bank(rt):
        balance = rt.var("balance", 100)

        def teller(amount):
            current = rt.read(balance)          # a scheduling point
            rt.write(balance, current + amount)

        workers = [rt.spawn(teller, 10), rt.spawn(teller, -10)]
        for worker in workers:
            rt.join(worker)
        rt.check(rt.read(balance) == 100, "lost update")

    program = native_program(bank)

Each ``rt.*`` call yields the matching ``ops.*`` op, so monitors, wait
sets, join, events, detectors, RaceFuzzer, the pipeline and telemetry are
the engine's own.  An op's statement is the ``rt.*`` caller's source line
(the adapter's ``gi_frame``), mirroring bytecode instrumentation.
"""

from __future__ import annotations

import sys
import threading
from typing import Any, Callable

from repro.runtime import ops
from repro.runtime.errors import EngineError
from repro.runtime.location import LockId, fresh_uid
from repro.runtime.ops import Op
from repro.runtime.program import Program
from repro.runtime.sugar import SharedVar
from repro.runtime.thread import ThreadHandle

#: ``_local.thread`` is the token thread the calling OS thread runs.
_local = threading.local()


class TokenThread:
    """One real OS thread, driven by the engine like a generator body."""

    #: never delegates, so the engine reads the site from ``gi_frame``.
    gi_yieldfrom = None

    def __init__(self, fn: Callable[..., Any], args: tuple) -> None:
        self._fn = fn
        self._args = args
        #: frame of the ``rt.*`` caller whose op is pending.
        self.gi_frame = None
        self._thread: threading.Thread | None = None
        self._done = False
        self._closing = False
        self._resume = threading.Semaphore(0)  # engine -> OS thread
        self._parked = threading.Semaphore(0)  # OS thread -> engine
        self._inbox: tuple[Any, BaseException | None] = (None, None)
        self._outbox: tuple[str, Any] = ("return", None)

    # --- engine side: the generator protocol ---------------------------- #

    def __iter__(self) -> "TokenThread":
        return self

    def __next__(self) -> Op:
        return self._switch(None, None)

    def send(self, value: Any) -> Op:
        return self._switch(value, None)

    def throw(self, exc: BaseException) -> Op:
        return self._switch(None, exc)

    def close(self) -> None:
        """Unwind a started OS thread with ``GeneratorExit`` and wait for
        it; like ``generator.close()``, any other exception propagates."""
        if self._thread is not None and not self._done:
            self._closing = True
            try:
                self._switch(None, GeneratorExit())
            except (GeneratorExit, StopIteration):
                pass
        self._done = True

    def _switch(self, value: Any, exc: BaseException | None) -> Op:
        """Hand the token over; take it back at the next op or the end.
        The engine primes every body with ``next()`` before anything else."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name=getattr(self._fn, "__name__", None),
                daemon=True,
            )
            self._thread.start()
        else:
            self._inbox = (value, exc)
            self._resume.release()
        self._parked.acquire()
        kind, payload = self._outbox
        if kind == "op":
            return payload
        self._done = True
        self.gi_frame = None
        self._thread.join()
        if kind == "raise":
            raise payload
        raise StopIteration

    # --- OS-thread side --------------------------------------------------- #

    def _run(self) -> None:
        _local.thread = self
        try:
            self._fn(*self._args)
            self._outbox = ("return", None)
        except BaseException as error:  # the thread's crash domain
            self._outbox = ("raise", error)
        self._parked.release()

    def _yield(self, op: Op, frame) -> Any:
        """Publish ``op`` (called from ``frame``), park, return its result."""
        if self._closing:
            raise GeneratorExit
        self.gi_frame = frame
        self._outbox = ("op", op)
        self._parked.release()
        self._resume.acquire()
        value, exc = self._inbox
        if exc is not None:
            raise exc
        return value


def _yield(op: Op) -> Any:
    """Run ``op`` as the calling ``rt.*`` method's scheduling point."""
    thread = getattr(_local, "thread", None)
    if thread is None:
        raise EngineError("rt.* called outside a native program's threads")
    return thread._yield(op, sys._getframe(2))  # the rt.* method's caller


class NativeRuntime:
    """The handle a native program receives: each call is one engine op."""

    def var(self, name: str = "", init: Any = None) -> SharedVar:
        """A shared variable (world construction; not a scheduling point)."""
        return SharedVar(name, init)

    def lock(self, name: str = "") -> LockId:
        """A reentrant monitor (world construction; not a scheduling point)."""
        return LockId(fresh_uid(), name)

    def read(self, var: SharedVar, label: str | None = None) -> Any:
        return _yield(var.read(label))

    def write(self, var: SharedVar, value: Any, label: str | None = None) -> None:
        _yield(var.write(value, label))

    def acquire(self, lock: LockId, label: str | None = None) -> None:
        _yield(ops.lock(lock, label))

    def release(self, lock: LockId, label: str | None = None) -> None:
        _yield(ops.unlock(lock, label))

    def wait(self, lock: LockId, label: str | None = None) -> None:
        _yield(ops.wait(lock, label=label))

    def notify(self, lock: LockId, label: str | None = None) -> None:
        _yield(ops.notify(lock, label))

    def notify_all(self, lock: LockId, label: str | None = None) -> None:
        _yield(ops.notify_all(lock, label))

    def yield_point(self, label: str | None = None) -> None:
        _yield(ops.yield_point(label))

    def check(self, condition: bool, message: str = "") -> None:
        _yield(ops.check(condition, message))

    def spawn(self, fn: Callable, *args: Any, name: str | None = None) -> ThreadHandle:
        """Start a real thread running ``fn(*args)``."""
        name = name or getattr(fn, "__name__", "thread")
        return _yield(ops.spawn(TokenThread, fn, args, name=name))

    def join(self, handle: ThreadHandle, label: str | None = None) -> None:
        _yield(ops.join(handle, label))


def native_program(fn: Callable[[NativeRuntime], None], name: str | None = None) -> Program:
    """An engine :class:`Program` whose main thread runs ``fn(rt)`` for real."""
    return Program(
        lambda: TokenThread(fn, (NativeRuntime(),)),
        name=name or getattr(fn, "__name__", "native-program"),
    )
