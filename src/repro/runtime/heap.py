"""The shared heap of one execution.

Values are keyed by :class:`~repro.runtime.location.Location`.  The heap is
lazily initialized: a read of a never-written location returns the
``default`` carried by the read op (the initial value declared by the
owning :class:`~repro.runtime.sugar.SharedVar` / array / object).  This
keeps shared structures reusable across executions — each
:class:`~repro.runtime.interpreter.Execution` owns a fresh heap, so replay
with the same seed starts from identical state.
"""

from __future__ import annotations

from typing import Any, Iterator

from .location import Location


class Heap:
    """Mutable store mapping locations to values for one execution.

    Cells are keyed by :attr:`Location.key`, a plain tuple hashed in C, and
    ``_locations`` remembers the location each key was written through, so
    every method still takes and returns locations.  The interpreter reads
    and writes both dicts directly.
    """

    def __init__(self) -> None:
        self._cells: dict[tuple, Any] = {}
        self._locations: dict[tuple, Location] = {}

    def read(self, location: Location, default: Any = None) -> Any:
        """Return the current value, or ``default`` if never written."""
        return self._cells.get(location.key, default)

    def write(self, location: Location, value: Any) -> None:
        """Store ``value`` at ``location``."""
        key = location.key
        self._cells[key] = value
        self._locations[key] = location

    def written(self, location: Location) -> bool:
        """True if the location has been written during this execution."""
        return location.key in self._cells

    def snapshot(self) -> dict[Location, Any]:
        """A shallow copy of all written cells (for tests and debugging),
        in first-write order."""
        return dict(zip(self._locations.values(), self._cells.values()))

    def __len__(self) -> int:
        return len(self._cells)

    def __iter__(self) -> Iterator[Location]:
        return iter(self._locations.values())
