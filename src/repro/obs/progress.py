"""Live campaign progress: the ``on_progress`` hook's value type and printer.

Long parallel campaigns were silent until the final report; the
supervisor now fires an ``on_settle`` callback every time a task reaches
a terminal state (success, cache hit, quarantine), which the engine
translates into :class:`ProgressUpdate` values for the caller's
``on_progress`` hook.  :class:`ProgressPrinter` is the stock consumer:
throttled one-line updates on stderr, always printing the final one.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class ProgressUpdate:
    """One point-in-time view of a campaign phase."""

    phase: str
    done: int
    total: int
    #: pairs confirmed real so far (fuzz phases only; None elsewhere).
    confirms: int | None = None
    elapsed_s: float = 0.0
    #: work units still *scheduled* to run, when the producer knows better
    #: than ``total - done`` — under an adaptive schedule ``total`` keeps
    #: growing round by round, so the naive extrapolation is nonsense.
    #: ``None`` falls back to ``total - done``.
    remaining: int | None = None

    @property
    def eta_s(self) -> float | None:
        """Remaining-time estimate from the mean settled-task rate.

        Extrapolates over remaining *scheduled* work — :attr:`remaining`
        when the producer supplied it, else ``total - done``.
        """
        if self.done <= 0:
            return None
        if self.remaining is not None:
            return self.elapsed_s / self.done * self.remaining
        if self.total <= 0:
            return None
        return self.elapsed_s / self.done * (self.total - self.done)

    @property
    def final(self) -> bool:
        """Nothing left to run — trust :attr:`remaining` when supplied."""
        if self.remaining is not None:
            return self.remaining <= 0
        return self.done >= self.total

    def render(self) -> str:
        pct = 100.0 * self.done / self.total if self.total else 100.0
        bits = [f"[{self.phase}] {self.done}/{self.total} ({pct:.0f}%)"]
        if self.confirms is not None:
            bits.append(f"{self.confirms} confirmed")
        bits.append(f"{self.elapsed_s:.1f}s elapsed")
        eta = self.eta_s
        if eta is not None and not self.final:
            bits.append(f"eta {eta:.1f}s")
        return ", ".join(bits)


class ProgressPrinter:
    """Throttled line-per-update progress consumer (stderr by default)."""

    def __init__(
        self,
        stream=None,
        *,
        interval: float = 1.0,
        clock=time.monotonic,
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.interval = interval
        self._clock = clock
        self._last = float("-inf")

    def __call__(self, update: ProgressUpdate) -> None:
        now = self._clock()
        if not update.final and now - self._last < self.interval:
            return
        self._last = now
        print(update.render(), file=self.stream, flush=True)


__all__ = ["ProgressUpdate", "ProgressPrinter"]
