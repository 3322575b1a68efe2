"""Ergonomic shared-memory and synchronization primitives.

These wrap raw ops so benchmark programs read naturally::

    x = SharedVar("x", 0)
    lock = Lock("L")

    def thread1():
        yield x.write(1)
        yield lock.acquire()
        ...
        yield lock.release()

Locations and unlabelled read ops are built once per location and reused:
``SharedCells.loc(i)`` and ``SharedObject.loc(f)`` return the same object
on every call (equality, uids and the heap key are unchanged), and
``read``/``get`` without a label return the same :class:`Op`, as do
``Lock.acquire``/``release``.  That is safe because nothing mutates an op
once built.  A structure's ``init`` or ``defaults`` therefore describe its
initial state: set them before the first read of the location they cover.

All of these are *libraries over the instruction set*, not engine features:
``Barrier``, ``CountDownLatch`` and ``BlockingQueue`` are built from locks
and wait/notify exactly as their ``java.util.concurrent`` counterparts are
built over monitors, so the happens-before edges the detectors see are the
real ones.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable

from . import ops
from .location import ElemLoc, FieldLoc, LockId, VarLoc, fresh_uid
from .ops import Op


class SharedVar:
    """A shared scalar with a declared initial value."""

    def __init__(self, name: str = "", init: Any = None):
        self.name = name
        self.init = init
        self.loc = VarLoc(fresh_uid(), name)
        self._read_op: Op | None = None

    def read(self, label: str | None = None) -> Op:
        if label is not None:
            return ops.read(self.loc, self.init, label)
        op = self._read_op
        if op is None:
            op = self._read_op = ops.read(self.loc, self.init)
        return op

    def write(self, value: Any, label: str | None = None) -> Op:
        return ops.write(self.loc, value, label)

    def __repr__(self) -> str:
        return f"SharedVar({self.name or self.loc.uid})"


class SharedCells:
    """An unbounded indexed store (backing storage for lists/vectors).

    There is no bounds checking here — container classes implement their own
    range checks, the same way ``ArrayList.rangeCheck`` does, so that racy
    size/storage mismatches surface as simulated Java exceptions rather than
    engine errors.
    """

    def __init__(self, name: str = "", init: Any = None):
        self.name = name
        self.init = init
        self.uid = fresh_uid()
        self._locs: dict[int, ElemLoc] = {}
        self._reads: dict[int, Op] = {}

    def loc(self, index: int) -> ElemLoc:
        loc = self._locs.get(index)
        if loc is None:
            loc = self._locs[index] = ElemLoc(self.uid, self.name, index)
        return loc

    def read(self, index: int, label: str | None = None) -> Op:
        if label is not None:
            return ops.read(self.loc(index), self.init, label)
        op = self._reads.get(index)
        if op is None:
            op = self._reads[index] = ops.read(self.loc(index), self.init)
        return op

    def write(self, index: int, value: Any, label: str | None = None) -> Op:
        return ops.write(self._locs.get(index) or self.loc(index), value, label)

    def __repr__(self) -> str:
        return f"SharedCells({self.name or self.uid})"


class SharedArray(SharedCells):
    """A fixed-length shared array with Java-style bounds checking."""

    def __init__(self, length: int, name: str = "", init: Any = None):
        super().__init__(name=name, init=init)
        self.length = length

    def _check(self, index: int) -> None:
        if not 0 <= index < self.length:
            from .errors import IndexOutOfBoundsError

            raise IndexOutOfBoundsError(
                f"index {index} out of bounds for {self.name or 'array'}"
                f"[{self.length}]"
            )

    def read(self, index: int, label: str | None = None) -> Op:
        self._check(index)
        return SharedCells.read(self, index, label)

    def write(self, index: int, value: Any, label: str | None = None) -> Op:
        self._check(index)
        return SharedCells.write(self, index, value, label)


class SharedObject:
    """A shared record with named fields and per-field default values."""

    def __init__(self, name: str = "", **defaults: Any):
        self.name = name
        self.uid = fresh_uid()
        self.defaults = defaults
        self._locs: dict[str, FieldLoc] = {}
        self._gets: dict[str, Op] = {}

    def loc(self, field: str) -> FieldLoc:
        loc = self._locs.get(field)
        if loc is None:
            loc = self._locs[field] = FieldLoc(self.uid, self.name, field)
        return loc

    def get(self, field: str, label: str | None = None) -> Op:
        if label is not None:
            return ops.read(
                self.loc(field), self.defaults.get(field), label
            )
        op = self._gets.get(field)
        if op is None:
            op = self._gets[field] = ops.read(
                self.loc(field), self.defaults.get(field)
            )
        return op

    def set(self, field: str, value: Any, label: str | None = None) -> Op:
        return ops.write(self._locs.get(field) or self.loc(field), value, label)

    def __repr__(self) -> str:
        return f"SharedObject({self.name or self.uid})"


class Lock:
    """A reentrant monitor with Java ``wait``/``notify`` semantics."""

    def __init__(self, name: str = ""):
        self.id = LockId(fresh_uid(), name)
        self.name = name
        self._acquire_op = ops.lock(self.id)
        self._release_op = ops.unlock(self.id)

    def acquire(self, label: str | None = None) -> Op:
        if label is None:
            return self._acquire_op
        return ops.lock(self.id, label)

    def release(self, label: str | None = None) -> Op:
        if label is None:
            return self._release_op
        return ops.unlock(self.id, label)

    def wait(self, timeout: int | None = None, label: str | None = None) -> Op:
        return ops.wait(self.id, timeout, label)

    def notify(self, label: str | None = None) -> Op:
        return ops.notify(self.id, label)

    def notify_all(self, label: str | None = None) -> Op:
        return ops.notify_all(self.id, label)

    def __repr__(self) -> str:
        return f"Lock({self.name or self.id.uid})"


def synchronized(lock: Lock, body: Generator) -> Generator:
    """Run a generator body holding ``lock`` — Java's ``synchronized`` block.

    Exception-safe: the lock is released even if the body (or an interrupt
    delivered into it) raises.  Use as ``result = yield from
    synchronized(lock, self._body())``.

    ``GeneratorExit`` is the one exception we must not shield: it means the
    execution itself is being torn down (a suspended thread is being
    garbage-collected), and yielding a release op at that point has no
    engine left to run it.
    """
    yield lock.acquire()
    try:
        result = yield from body
    except GeneratorExit:
        raise
    except BaseException:
        yield lock.release()
        raise
    yield lock.release()
    return result


class Barrier:
    """A cyclic barrier for ``parties`` threads, built on one monitor."""

    def __init__(self, parties: int, name: str = "barrier"):
        if parties < 1:
            raise ValueError("a barrier needs at least one party")
        self.parties = parties
        self.lock = Lock(f"{name}.lock")
        self._count = SharedVar(f"{name}.count", 0)
        self._generation = SharedVar(f"{name}.generation", 0)

    def wait_for_all(self) -> Generator:
        """Block until all parties arrive; reusable across phases."""
        yield self.lock.acquire()
        generation = yield self._generation.read()
        arrived = (yield self._count.read()) + 1
        yield self._count.write(arrived)
        if arrived == self.parties:
            yield self._count.write(0)
            yield self._generation.write(generation + 1)
            yield self.lock.notify_all()
        else:
            while True:
                yield self.lock.wait()
                now = yield self._generation.read()
                if now != generation:
                    break
        yield self.lock.release()


class CountDownLatch:
    """One-shot latch: ``await_zero`` blocks until ``count_down`` hits zero."""

    def __init__(self, count: int, name: str = "latch"):
        self.lock = Lock(f"{name}.lock")
        self._count = SharedVar(f"{name}.count", count)

    def count_down(self) -> Generator:
        yield self.lock.acquire()
        remaining = (yield self._count.read()) - 1
        yield self._count.write(remaining)
        if remaining <= 0:
            yield self.lock.notify_all()
        yield self.lock.release()

    def await_zero(self) -> Generator:
        yield self.lock.acquire()
        while (yield self._count.read()) > 0:
            yield self.lock.wait()
        yield self.lock.release()


class BlockingQueue:
    """A bounded (or unbounded) FIFO queue over one monitor.

    The queue contents live in shared cells, with head/tail indices as
    shared variables, so detectors see every access.
    """

    def __init__(self, capacity: int | None = None, name: str = "queue"):
        self.capacity = capacity
        self.lock = Lock(f"{name}.lock")
        self._cells = SharedCells(f"{name}.cells")
        self._head = SharedVar(f"{name}.head", 0)
        self._tail = SharedVar(f"{name}.tail", 0)

    def put(self, item: Any) -> Generator:
        yield self.lock.acquire()
        while True:
            head = yield self._head.read()
            tail = yield self._tail.read()
            if self.capacity is None or tail - head < self.capacity:
                break
            yield self.lock.wait()
        yield self._cells.write(tail, item)
        yield self._tail.write(tail + 1)
        yield self.lock.notify_all()
        yield self.lock.release()

    def take(self) -> Generator:
        yield self.lock.acquire()
        while True:
            head = yield self._head.read()
            tail = yield self._tail.read()
            if head < tail:
                break
            yield self.lock.wait()
        item = yield self._cells.read(head)
        yield self._head.write(head + 1)
        yield self.lock.notify_all()
        yield self.lock.release()
        return item

    def size(self) -> Generator:
        yield self.lock.acquire()
        head = yield self._head.read()
        tail = yield self._tail.read()
        yield self.lock.release()
        return tail - head


class AtomicCounter:
    """A lock-protected integer counter (a correctly synchronized cell)."""

    def __init__(self, name: str = "counter", init: int = 0):
        self.lock = Lock(f"{name}.lock")
        self._value = SharedVar(f"{name}.value", init)

    def add(self, delta: int = 1) -> Generator:
        yield self.lock.acquire()
        value = (yield self._value.read()) + delta
        yield self._value.write(value)
        yield self.lock.release()
        return value

    def get(self) -> Generator:
        yield self.lock.acquire()
        value = yield self._value.read()
        yield self.lock.release()
        return value

    def read_unlocked(self) -> Op:
        """A deliberately unsynchronized read (for seeding benign races)."""
        return self._value.read()


def spawn_all(bodies: Iterable, prefix: str = "worker") -> Generator:
    """Spawn one thread per generator-producing callable; returns handles."""
    handles = []
    for i, body in enumerate(bodies):
        handle = yield ops.spawn(body, name=f"{prefix}-{i}")
        handles.append(handle)
    return handles


def join_all(handles: Iterable) -> Generator:
    """Join every handle in order."""
    for handle in handles:
        yield ops.join(handle)
