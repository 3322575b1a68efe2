"""Program abstraction: a factory for fresh executions.

A :class:`Program` wraps a *factory*: a zero-argument callable that builds
the program's shared world (SharedVars, Locks, collections, ...) and returns
the generator for the main thread.  Every execution calls the factory once,
so state never leaks between runs — seed-only replay (Section 2.2 of the
paper) depends on this.

Example::

    def make():
        x = SharedVar("x", 0)

        def worker():
            yield x.write(1)

        def main():
            t = yield ops.spawn(worker, name="worker")
            yield ops.join(t)

        return main()

    program = Program(make, name="demo")
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any, Callable

from .errors import EngineError


class Program:
    """A runnable concurrent program under test."""

    def __init__(self, factory: Callable[[], Generator], name: str | None = None):
        if not callable(factory):
            raise EngineError("Program factory must be callable")
        self.factory = factory
        self.name = name or getattr(factory, "__name__", "program")

    def instantiate(self) -> Generator:
        """Build a fresh main-thread generator (fresh shared world)."""
        gen = self.factory()
        if not isinstance(gen, Generator):
            raise EngineError(
                f"Program factory for {self.name!r} must return a generator "
                f"(the main thread body), got {type(gen).__name__}"
            )
        return gen

    def __repr__(self) -> str:
        return f"Program({self.name!r})"


def program(factory: Callable[[], Generator]) -> Program:
    """Decorator form: ``@program`` above a factory function."""
    return Program(factory)


def resolve_tid(target: Any) -> int:
    """Accept a ThreadHandle or a raw tid wherever a thread is referenced."""
    tid = getattr(target, "tid", target)
    if not isinstance(tid, int):
        raise EngineError(f"not a thread reference: {target!r}")
    return tid
