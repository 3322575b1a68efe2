"""Per-thread state of the abstract machine.

A simulated thread wraps a Python generator.  Its *pending op* is the op it
has yielded but the engine has not yet executed — the paper's
``NextStmt(s, t)``.  Whether the thread is *enabled* is derived from its
status plus the executability of the pending op (e.g. a pending ``LOCK`` on
a monitor owned by another thread disables it), which matches the paper's
definition: "a thread is disabled if it is waiting to acquire a lock already
held by some other thread (or waiting on a join or a wait)".  The engine
keeps each thread's current answer in ``enabled`` and re-derives it only
after a transition that can change it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Generator

from .ops import Op
from .statement import Statement


class ThreadStatus(enum.Enum):
    """Coarse lifecycle status; lock/join blocking is derived, not stored."""

    RUNNABLE = "runnable"  # has a pending op (which may itself be blocked)
    WAITING = "waiting"  # parked in a monitor wait set
    SLEEPING = "sleeping"  # in ops.sleep until wake_at
    TERMINATED = "terminated"


@dataclass(frozen=True, slots=True)
class ThreadHandle:
    """User-facing reference to a simulated thread (sent back by ``spawn``)."""

    tid: int
    name: str = field(default="", compare=False)

    def __str__(self) -> str:
        return self.name or f"thread-{self.tid}"


@dataclass(slots=True)
class ThreadState:
    """Engine-internal state of one simulated thread."""

    tid: int
    name: str
    gen: Generator[Op, Any, Any]
    status: ThreadStatus = ThreadStatus.RUNNABLE
    pending: Op | None = None
    #: the engine's maintained answer to "is this thread enabled?"; see
    #: ``Execution._note``.
    enabled: bool = False
    #: statement identity of the pending op when ``stmt_code`` is None
    #: (labelled ops, ended threads).  Otherwise it is not kept: the engine
    #: records the raw yield site in ``stmt_code``/``stmt_line`` at resume
    #: time (frame state is only readable while the generator is
    #: suspended) and interns the Statement on demand.
    pending_stmt: Statement | None = None
    #: raw site of the pending op: the yielding frame's code object, and
    #: the line ``lines`` gives for the frame's ``f_lasti``; None, with
    #: line 0, when ``pending_stmt`` holds the statement or the thread has
    #: no pending op.
    stmt_code: Any = None
    stmt_line: int = 0
    #: ``{f_lasti: line}`` table of ``stmt_code`` (see
    #: :func:`~repro.runtime.statement.line_table`), kept while the
    #: thread's sites stay in that code object.
    lines: dict[int, int] | None = None
    #: innermost generator of the body's ``yield from`` chain at the last
    #: unlabelled yield; the next site is read from it while it is alive.
    inner: Any = None
    #: set while parked: the lock whose wait set holds us, and the monitor
    #: recursion depth to restore on re-acquisition.
    waiting_on: Any = None
    wait_depth: int = 0
    #: state of the thread a pending JOIN waits for, resolved on the first
    #: enabledness check of that JOIN and cleared when it executes.
    join_target: ThreadState | None = None
    #: absolute step at which a SLEEPING thread wakes.
    wake_at: int = 0
    #: Java-style interrupt status flag.
    interrupt_flag: bool = False
    #: deliver InterruptedException into the generator at the next step
    #: (set when an interrupt lands while waiting/sleeping).
    deliver_interrupt: bool = False

    @property
    def handle(self) -> ThreadHandle:
        return ThreadHandle(self.tid, self.name)

    @property
    def alive(self) -> bool:
        """The paper's ``Alive(s)`` membership test."""
        return self.status is not ThreadStatus.TERMINATED

    def __str__(self) -> str:
        return f"{self.name}#{self.tid}[{self.status.value}]"
