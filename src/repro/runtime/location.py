"""Dynamic memory locations and lock identities.

The paper assumes 3-address code: every statement touches at most one shared
memory location.  A *location* here is the dynamic entity two accesses must
share for ``Racing()`` (Algorithm 2) to fire: a global variable, an object
field, or an array element.

Locations are value objects keyed by a unique id (``uid``) that the owning
shared structure allocates at construction time, at build or in a thread
body.  Uids count up from 1 in allocation order inside the running
execution, which installs its counter (:func:`use_uids`) in a module slot
that native OS threads see too, so one seed gives the same uids in any
process.  Allocations outside any execution count down from -1.

Every location kind has a stable token encoding (:meth:`Location.to_token`
/ :func:`location_from_token`) that preserves the concrete subclass, so a
serialized event stream replays with location identity — and therefore
per-location access histories — intact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import ClassVar, Iterator

#: uids allocated outside any execution: negative, so never an execution's.
_outside = itertools.count(-1, -1)
#: the counter :func:`fresh_uid` draws from: the running execution's.
_uids: Iterator[int] = _outside


def fresh_uid() -> int:
    """Allocate the next uid of the running execution (or an outside one)."""
    return next(_uids)


def use_uids(counter: Iterator[int] | None) -> None:
    """Make :func:`fresh_uid` draw from ``counter`` (``None``: outside)."""
    global _uids
    _uids = _outside if counter is None else counter


@dataclass(frozen=True, slots=True, init=False)
class Location:
    """Base class for dynamic memory locations.

    ``key`` is the location's identity as one plain tuple, built at
    construction: the class's token tag, the uid, and the field name or
    element index if any.  Two locations are equal exactly when their keys
    are, so the heap and the history detectors key their dicts by it and
    hash it in C; ``hash(location)`` is ``hash(location.key)``.
    """

    uid: int
    name: str = field(default="", compare=False)
    key: tuple = field(default=(), init=False, repr=False, compare=False)

    #: token tag identifying the concrete subclass across processes.
    kind: ClassVar[str] = "loc"

    # Frozen, so fields are set through their slot descriptors (bound
    # below), not one ``object.__setattr__`` call each.
    def __init__(self, uid: int, name: str = "") -> None:
        _set_uid(self, uid)
        _set_name(self, name)
        _set_key(self, (self.kind, uid))

    def __hash__(self) -> int:
        return hash(self.key)

    def describe(self) -> str:
        return self.name or f"loc#{self.uid}"

    def __str__(self) -> str:
        return self.describe()

    def to_token(self) -> dict:
        """Stable JSON-safe encoding preserving the concrete subclass."""
        token: dict = {"k": self.kind, "u": self.uid}
        if self.name:
            token["n"] = self.name
        return token


_set_uid = Location.__dict__["uid"].__set__
_set_name = Location.__dict__["name"].__set__
_set_key = Location.__dict__["key"].__set__


@dataclass(frozen=True, slots=True, init=False)
class VarLoc(Location):
    """A shared scalar variable."""

    kind: ClassVar[str] = "var"

    __hash__ = Location.__hash__

    def describe(self) -> str:
        return self.name or f"var#{self.uid}"


@dataclass(frozen=True, slots=True, init=False)
class FieldLoc(Location):
    """A named field of a shared object."""

    fieldname: str = ""
    kind: ClassVar[str] = "field"

    __hash__ = Location.__hash__

    def __init__(self, uid: int, name: str = "", fieldname: str = "") -> None:
        _set_uid(self, uid)
        _set_name(self, name)
        _set_fieldname(self, fieldname)
        _set_key(self, ("field", uid, fieldname))

    def describe(self) -> str:
        base = self.name or f"obj#{self.uid}"
        return f"{base}.{self.fieldname}"

    def to_token(self) -> dict:
        token = Location.to_token(self)
        token["fld"] = self.fieldname
        return token


_set_fieldname = FieldLoc.__dict__["fieldname"].__set__


@dataclass(frozen=True, slots=True, init=False)
class ElemLoc(Location):
    """An element of a shared array."""

    index: int = 0
    kind: ClassVar[str] = "elem"

    __hash__ = Location.__hash__

    def __init__(self, uid: int, name: str = "", index: int = 0) -> None:
        _set_uid(self, uid)
        _set_name(self, name)
        _set_index(self, index)
        _set_key(self, ("elem", uid, index))

    def describe(self) -> str:
        base = self.name or f"arr#{self.uid}"
        return f"{base}[{self.index}]"

    def to_token(self) -> dict:
        token = Location.to_token(self)
        token["i"] = self.index
        return token


_set_index = ElemLoc.__dict__["index"].__set__


def location_from_token(token: dict) -> Location:
    """Rebuild the concrete :class:`Location` a token was taken from."""
    kind = token.get("k", "loc")
    uid = token["u"]
    name = token.get("n", "")
    if kind == "var":
        return VarLoc(uid=uid, name=name)
    if kind == "field":
        return FieldLoc(uid=uid, name=name, fieldname=token.get("fld", ""))
    if kind == "elem":
        return ElemLoc(uid=uid, name=name, index=token.get("i", 0))
    return Location(uid=uid, name=name)


@dataclass(frozen=True, slots=True)
class LockId:
    """Identity of a lock/monitor (Java: the object whose monitor is taken)."""

    uid: int
    name: str = field(default="", compare=False)
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.uid,))
            object.__setattr__(self, "_hash", h)
        return h

    def describe(self) -> str:
        return self.name or f"lock#{self.uid}"

    def __str__(self) -> str:
        return self.describe()

    def to_token(self) -> dict:
        token: dict = {"u": self.uid}
        if self.name:
            token["n"] = self.name
        return token

    @classmethod
    def from_token(cls, token: dict) -> "LockId":
        return cls(uid=token["u"], name=token.get("n", ""))
