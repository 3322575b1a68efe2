"""Atomicity-violation-directed active random testing.

The second Section-1 generalization: instead of a racing pair, the target
is an *atomic region* — two program points ``(first, second)`` that one
thread intends to execute atomically with respect to some rival statement
in another thread (the classic check-then-act pattern: a lock-protected
read, the lock released, then a lock-protected write based on the stale
read).

The scheduler postpones a thread that reaches ``second`` (having executed
``first`` already, by program order) and postpones rivals that reach
``rival``; when both sides are present the violation is *forced* by
serializing the rival's access between ``first`` and ``second`` — unlike
RaceFuzzer's fair coin, the resolution is deterministic, because only one
order is non-serializable.

Two practical notes, both consequences of the target pattern usually being
lock-protected (these violations are **not** data races — the JDK
``containsAll`` bugs are exactly such check-then-act violations):

* ``second`` — and the rival point too — is typically the *lock
  acquisition* guarding the access, not the access itself: a thread
  postponed inside a critical section would block the other side out of
  its own critical section and the rendezvous could never form.  Pass the
  acquire statements (label them).
* conflict detection is role-based (one side at ``second``, the other at
  ``rival``) rather than location-based, since a pending lock acquisition
  has no memory location to compare.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.interpreter import Execution
from repro.runtime.statement import Statement

from .postponing import PostponingDriver, TargetProbe, TargetSites


@dataclass(frozen=True)
class AtomicRegion:
    """Two same-thread program points intended to execute atomically."""

    first: Statement
    second: Statement

    def __str__(self) -> str:
        return f"[{self.first.site} .. {self.second.site}]"


class AtomicityFuzzer(PostponingDriver):
    """Forces a rival access between the two halves of an atomic region.

    A hit (``outcome.created``) means the non-serializable interleaving
    ``first ... rival ... second`` was actually produced; whether it is a
    *violation* shows up as crashes/assertion failures exactly as with
    RaceFuzzer.
    """

    def __init__(self, region: AtomicRegion, rival: Statement, **kwargs):
        super().__init__(**kwargs)
        self.region = region
        self.rival = rival
        self._sites = TargetSites((region.second, rival))

    def target_probe(self, execution: Execution) -> TargetProbe:
        """Any op kind can be a region half or the rival: a lock
        acquisition, a memory access, a ``check``."""
        return self._sites.probe()

    def conflicting(self, execution: Execution, tid: int, postponed):
        """Role-based conflict: a region half meets a postponed rival (or
        vice versa).  No location comparison — see the module docstring."""
        my_stmt = execution.next_stmt(tid)
        wanted = self.rival if my_stmt == self.region.second else self.region.second
        return [
            other for other in postponed if execution.next_stmt(other) == wanted
        ]

    def resolve_arrival_first(self, execution, tid, rivals) -> bool:
        """Always serialize the rival access *inside* the region."""
        return execution.next_stmt(tid) == self.rival
