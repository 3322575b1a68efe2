"""Heap semantics: lazy defaults, snapshots."""

from repro.runtime.heap import Heap
from repro.runtime.location import (
    ElemLoc,
    FieldLoc,
    Location,
    VarLoc,
    fresh_uid,
    location_from_token,
)


class TestHeap:
    def test_read_unwritten_returns_default(self):
        heap = Heap()
        loc = VarLoc(fresh_uid(), "x")
        assert heap.read(loc, default=5) == 5
        assert heap.read(loc) is None
        assert not heap.written(loc)

    def test_write_then_read(self):
        heap = Heap()
        loc = VarLoc(fresh_uid(), "x")
        heap.write(loc, 10)
        assert heap.read(loc, default=5) == 10
        assert heap.written(loc)

    def test_write_none_shadows_default(self):
        heap = Heap()
        loc = VarLoc(fresh_uid(), "x")
        heap.write(loc, None)
        assert heap.read(loc, default=5) is None

    def test_distinct_locations_independent(self):
        heap = Heap()
        a, b = VarLoc(fresh_uid(), "a"), VarLoc(fresh_uid(), "b")
        heap.write(a, 1)
        assert heap.read(b, default=0) == 0

    def test_snapshot_and_len_and_iter(self):
        heap = Heap()
        a, b = VarLoc(fresh_uid(), "a"), VarLoc(fresh_uid(), "b")
        heap.write(a, 1)
        heap.write(b, 2)
        snap = heap.snapshot()
        assert snap == {a: 1, b: 2}
        assert len(heap) == 2
        assert set(heap) == {a, b}
        # snapshot is a copy
        snap[a] = 99
        assert heap.read(a) == 1


class TestHeapKey:
    """Cells are keyed by ``Location.key``; the API keeps locations."""

    def test_kinds_sharing_a_uid_get_distinct_cells(self):
        heap = Heap()
        uid = fresh_uid()
        var = VarLoc(uid, "v")
        field = FieldLoc(uid, "o", "f")
        elem = ElemLoc(uid, "a", 0)
        assert len({var.key, field.key, elem.key}) == 3
        for value, loc in enumerate((var, field, elem)):
            heap.write(loc, value)
        assert [heap.read(loc) for loc in (var, field, elem)] == [0, 1, 2]
        assert len(heap) == 3

    def test_equal_locations_built_apart_share_a_cell(self):
        heap = Heap()
        uid = fresh_uid()

        def build():
            return (VarLoc(uid, "v"), FieldLoc(uid, "o", "f"), ElemLoc(uid, "a", 3))

        written = build()
        for value, loc in enumerate(written):
            heap.write(loc, value)
        for value, (loc, again) in enumerate(zip(written, build())):
            decoded = location_from_token(loc.to_token())
            for other in (again, decoded):
                assert other is not loc and other == loc and other.key == loc.key
                assert hash(other) == hash(loc)
                assert heap.read(other, default="unset") == value
                assert heap.written(other)
        # A differently named but equal location reads the same cell too.
        assert heap.read(VarLoc(uid, "renamed")) == 0

    def test_snapshot_keys_are_locations_in_first_write_order(self):
        heap = Heap()
        uid = fresh_uid()
        var, elem = VarLoc(uid, "v"), ElemLoc(uid, "a", 1)
        heap.write(elem, "e")
        heap.write(var, "v1")
        heap.write(VarLoc(uid, "v"), "v2")  # an equal location, rewritten
        snap = heap.snapshot()
        assert list(snap) == [elem, var]
        assert all(isinstance(loc, Location) for loc in snap)
        assert snap == {elem: "e", var: "v2"}
        assert list(heap) == [elem, var]

    def test_base_location_is_not_a_var(self):
        heap = Heap()
        uid = fresh_uid()
        heap.write(VarLoc(uid), 1)
        assert not heap.written(Location(uid))
