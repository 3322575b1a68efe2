"""Wire-schema round-trips: every event type survives JSON and pickle.

The trace layer's contract is that a stream of events encoded by one
:class:`EventEncoder`, sent through JSON and decoded by one
:class:`EventDecoder` comes back equal, event for event, for every event
the runtime can emit — including error-carrying events, which is what the
:class:`~repro.runtime.events.ErrorInfo` refactor bought (live
``BaseException`` payloads neither pickle nor JSON-serialize) — and with
every display field intact, although ``==`` ignores those.
"""

import json
import pickle

import pytest

from repro.runtime.events import (
    Access,
    AcquireEvent,
    DeadlockEvent,
    ErrorEvent,
    ErrorInfo,
    Event,
    MemEvent,
    RcvEvent,
    ReleaseEvent,
    SndEvent,
    ThreadEndEvent,
    ThreadStartEvent,
)
from repro.runtime.location import (
    ElemLoc,
    FieldLoc,
    Location,
    LockId,
    VarLoc,
    location_from_token,
)
from repro.runtime.statement import Statement
from repro.trace import (
    SCHEMA_VERSION,
    TraceFooter,
    TraceHeader,
    EventDecoder,
    EventEncoder,
    TraceSchemaError,
)

STMT = Statement(file="prog.py", line=12, func="worker")
LABELLED = Statement(label="thread1:5")
LOCKS = frozenset({LockId(uid=3, name="L"), LockId(uid=9)})

EVENTS = [
    MemEvent(
        step=1,
        tid=0,
        stmt=STMT,
        location=VarLoc(uid=4, name="x"),
        access=Access.READ,
        locks_held=LOCKS,
    ),
    MemEvent(
        step=2,
        tid=1,
        stmt=LABELLED,
        location=FieldLoc(uid=5, name="obj", fieldname="next"),
        access=Access.WRITE,
        locks_held=frozenset(),
    ),
    MemEvent(
        step=3,
        tid=2,
        stmt=STMT,
        location=ElemLoc(uid=6, name="arr", index=7),
        access=Access.WRITE,
        locks_held=frozenset(),
    ),
    SndEvent(step=4, tid=0, msg_id=11),
    RcvEvent(step=5, tid=1, msg_id=11),
    AcquireEvent(step=6, tid=0, lock=LockId(uid=3, name="L"), stmt=STMT),
    ReleaseEvent(step=7, tid=0, lock=LockId(uid=3), stmt=None),
    ThreadStartEvent(step=8, tid=0, child=1, name="worker-1"),
    ThreadEndEvent(step=9, tid=1, error=None),
    ThreadEndEvent(
        step=10,
        tid=2,
        error=ErrorInfo(type="ValueError", message="boom", module="builtins"),
    ),
    ErrorEvent(
        step=11,
        tid=2,
        stmt=STMT,
        error=ErrorInfo.from_exception(ZeroDivisionError("1/0")),
    ),
    DeadlockEvent(step=12, tid=-1, blocked=(1, 2)),
]

_ids = [f"{i}-{type(e).__name__}" for i, e in enumerate(EVENTS)]


def _round_trip(events):
    """Encode ``events`` with one encoder, JSON each row, decode with one decoder."""
    encode, decode = EventEncoder().encode, EventDecoder().decode
    return [decode(json.loads(json.dumps(encode(event)))) for event in events]


@pytest.mark.parametrize("event", EVENTS, ids=_ids)
def test_json_round_trip(event):
    assert _round_trip([event]) == [event]


def test_json_round_trip_of_one_stream():
    # One encoder/decoder pair: later rows name earlier definitions by id.
    assert _round_trip(EVENTS) == EVENTS


def test_display_fields_survive_redefinition():
    # ``==`` ignores func/name, so each decoded event's display fields are
    # checked one by one: an equal value with other display fields must
    # come back with its own, not the first occurrence's.
    events = [
        MemEvent(1, 0, STMT, VarLoc(4, "x"), Access.READ, frozenset({LockId(3, "L")})),
        MemEvent(
            2,
            0,
            Statement(file="prog.py", line=12, func="other"),
            VarLoc(4, "y"),
            Access.READ,
            frozenset({LockId(3)}),
        ),
        AcquireEvent(3, 0, LockId(3, "L"), STMT),
        ReleaseEvent(4, 0, LockId(3), Statement(file="prog.py", line=12)),
        MemEvent(5, 0, STMT, VarLoc(4, "x"), Access.WRITE, frozenset({LockId(3, "L")})),
    ]
    decoded = _round_trip(events)
    assert decoded == events
    assert [e.stmt.func for e in decoded] == ["worker", "other", "worker", "", "worker"]
    assert [decoded[i].location.name for i in (0, 1, 4)] == ["x", "y", "x"]
    assert [decoded[i].lock.name for i in (2, 3)] == ["L", ""]
    held = [[lock.name for lock in decoded[i].locks_held] for i in (0, 1, 4)]
    assert held == [["L"], [""], ["L"]]


def test_decoded_events_share_table_objects():
    events = [EVENTS[0], EVENTS[2], EVENTS[0]]
    first, _, again = _round_trip(events)
    assert first.stmt is again.stmt
    assert first.location is again.location
    assert first.locks_held is again.locks_held


def test_rows_name_known_values_by_id():
    encode = EventEncoder().encode
    first, again = encode(EVENTS[0]), encode(EVENTS[0])
    assert first[0] == 0 and isinstance(first[3], list)  # MEM, defined in full
    assert again[3:] == [0, 0, 0, 0]  # stmt, loc, is_write, lockset: all ids


@pytest.mark.parametrize("event", EVENTS, ids=_ids)
def test_pickle_round_trip(event):
    assert pickle.loads(pickle.dumps(event)) == event


def test_every_event_type_is_exercised():
    """Adding a new Event subclass must extend this suite (and the schema)."""
    import repro.runtime.events as events_mod

    all_types = {
        obj
        for obj in vars(events_mod).values()
        if isinstance(obj, type) and issubclass(obj, Event) and obj is not Event
    }
    assert all_types == {type(event) for event in EVENTS}


def test_unknown_event_kind_rejected():
    with pytest.raises(TraceSchemaError, match="unknown event kind"):
        EventDecoder().decode([99, 0, 0])

    class Mystery(Event):
        pass

    with pytest.raises(TraceSchemaError, match="unknown event type"):
        EventEncoder().encode(Mystery(step=0, tid=0))


@pytest.mark.parametrize(
    "row",
    [
        [0, 1, 0, 5, [0, {"k": "var", "u": 4}], 0, [0, []]],
        [0, 1, 0, [0, {"lb": "s"}], 5, 0, [0, []]],
        [0, 1, 0, [0, {"lb": "s"}], [0, {"k": "var", "u": 4}], 0, 5],
        [0, 1, 0, [0, {"lb": "s"}], [0, {"k": "var", "u": 4}], 0, [0, [5]]],
        [3, 1, 0, 5, None],
        [4, 1, 0, [0, {"u": 3}], 5],
    ],
    ids=["statement", "location", "lockset", "lockset-member", "lock", "rel-statement"],
)
def test_undefined_id_rejected(row):
    with pytest.raises(TraceSchemaError, match="undefined|malformed"):
        EventDecoder().decode(row)


def test_definition_out_of_sequence_rejected():
    with pytest.raises(TraceSchemaError, match="out of sequence"):
        EventDecoder().decode([3, 1, 0, [1, {"u": 3}], None])


class TestTokens:
    def test_statement_token_round_trip(self):
        for stmt in (STMT, LABELLED, Statement()):
            assert Statement.from_token(stmt.to_token()) == stmt

    def test_labelled_statement_token_is_label_only(self):
        token = Statement(file="x.py", line=3, label="t1:5").to_token()
        assert token == {"lb": "t1:5"}

    def test_location_token_preserves_subclass(self):
        locations = [
            Location(uid=1, name="raw"),
            VarLoc(uid=2, name="x"),
            FieldLoc(uid=3, name="obj", fieldname="head"),
            ElemLoc(uid=4, name="arr", index=9),
        ]
        for location in locations:
            rebuilt = location_from_token(location.to_token())
            assert type(rebuilt) is type(location)
            assert rebuilt == location
            assert rebuilt.describe() == location.describe()

    def test_lock_token_round_trip(self):
        for lock in (LockId(uid=7, name="L"), LockId(uid=8)):
            rebuilt = LockId.from_token(lock.to_token())
            assert rebuilt == lock
            assert rebuilt.describe() == lock.describe()

    def test_error_info_from_exception(self):
        info = ErrorInfo.from_exception(KeyError("missing"))
        assert info.type == "KeyError"
        assert info.message == "'missing'"
        assert info.module == "builtins"
        assert "KeyError" in info.describe()


class TestHeaderFooter:
    def test_header_round_trip(self):
        header = TraceHeader(
            program="figure1", seed=3, scheduler="random:every", max_steps=500
        )
        wire = json.loads(json.dumps(header.to_jsonable()))
        assert TraceHeader.from_jsonable(wire) == header
        assert header.schema == SCHEMA_VERSION

    def test_header_rejects_other_schema_versions(self):
        wire = TraceHeader(program="p", seed=0, scheduler="", max_steps=1).to_jsonable()
        wire["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(TraceSchemaError):
            TraceHeader.from_jsonable(wire)

    def test_header_rejects_non_header_line(self):
        with pytest.raises(TraceSchemaError):
            TraceHeader.from_jsonable({"kind": "footer"})

    def test_footer_round_trip(self):
        footer = TraceFooter(
            steps=13,
            events=25,
            crashes=({"tid": 2, "name": "t", "e": {"t": "E"}, "st": None, "step": 9},),
            deadlock=True,
            deadlocked_tids=(1, 2),
            truncated=False,
        )
        wire = json.loads(json.dumps(footer.to_jsonable()))
        assert TraceFooter.from_jsonable(wire) == footer
