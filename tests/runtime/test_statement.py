"""Statement identity and pair normalization."""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.runtime import EventTrace, MemEvent, ops
from repro.runtime.statement import Statement, StatementPair, statement_at

from tests.conftest import run_single
from repro.runtime.sugar import SharedVar


class TestStatement:
    def test_source_site_identity(self):
        a = Statement(file="f.py", line=10, func="g")
        b = Statement(file="f.py", line=10, func="h")  # func not compared
        c = Statement(file="f.py", line=11, func="g")
        assert a == b
        assert a != c
        assert hash(a) == hash(b)

    def test_label_overrides_source_identity(self):
        a = Statement(file="f.py", line=10, label="s1")
        b = Statement(file="other.py", line=99, label="s1")
        assert a == b
        assert a.site == "s1"

    def test_labelled_and_unlabelled_differ(self):
        assert Statement(file="f.py", line=10) != Statement(label="f.py:10")

    def test_site_rendering(self):
        assert Statement(file="/a/b/mod.py", line=3, func="f").site == "mod.py:3(f)"
        assert Statement(label="7").site == "7"
        assert str(Statement(label="7")) == "7"

    def test_repr(self):
        assert repr(Statement(label="x")) == "Statement('x')"


class TestStatementPair:
    def test_unordered_equality(self):
        s1, s2 = Statement(label="a"), Statement(label="b")
        assert StatementPair(s1, s2) == StatementPair(s2, s1)
        assert hash(StatementPair(s1, s2)) == hash(StatementPair(s2, s1))

    def test_contains_and_other(self):
        s1, s2 = Statement(label="a"), Statement(label="b")
        pair = StatementPair(s1, s2)
        assert s1 in pair and s2 in pair
        assert Statement(label="c") not in pair
        assert pair.other(s1) == s2
        assert pair.other(s2) == s1

    def test_other_rejects_nonmember(self):
        pair = StatementPair(Statement(label="a"), Statement(label="b"))
        import pytest

        with pytest.raises(ValueError):
            pair.other(Statement(label="zzz"))

    def test_self_pair(self):
        s = Statement(label="a")
        pair = StatementPair(s, s)
        assert pair.first == pair.second == s
        assert pair.other(s) == s

    def test_str(self):
        pair = StatementPair(Statement(label="b"), Statement(label="a"))
        assert str(pair) == "(a, b)"  # normalized order


class TestStatementDerivation:
    def test_mem_events_carry_yield_site(self):
        trace = EventTrace()
        x = {}

        def body():
            x["var"] = SharedVar("x", 0)
            yield x["var"].write(1)  # line A
            yield x["var"].read()  # line B

        run_single(body, observers=[trace])
        events = trace.of_type(MemEvent)
        assert len(events) == 2
        write_stmt, read_stmt = events[0].stmt, events[1].stmt
        assert write_stmt != read_stmt
        assert write_stmt.file.endswith("test_statement.py")
        assert read_stmt.line == write_stmt.line + 1

    def test_yield_from_attributes_to_innermost_frame(self):
        trace = EventTrace()

        def helper(var):
            yield var.write(41)  # the innermost yield

        def body():
            var = SharedVar("y", 0)
            yield from helper(var)

        run_single(body, observers=[trace])
        (event,) = trace.of_type(MemEvent)
        assert event.stmt.func.endswith("helper")

    def test_label_wins_over_site(self):
        trace = EventTrace()

        def body():
            var = SharedVar("z", 0)
            yield var.write(1, label="L1")

        run_single(body, observers=[trace])
        (event,) = trace.of_type(MemEvent)
        assert event.stmt == Statement(label="L1")

    def test_same_line_in_loop_is_one_statement(self):
        trace = EventTrace()

        def body():
            var = SharedVar("w", 0)
            for i in range(3):
                yield var.write(i)

        run_single(body, observers=[trace])
        stmts = {event.stmt for event in trace.of_type(MemEvent)}
        assert len(stmts) == 1


#: run under one hash seed: pickle a statement and a pair whose hashes
#: were computed (and cached) first.
_WRITE = """
import pickle, sys
from repro.runtime.statement import Statement, StatementPair
stmt = Statement(file="prog.py", line=7, func="worker")
pair = StatementPair(stmt, Statement(label="t2:9"))
hash(stmt), hash(pair)
sys.stdout.buffer.write(pickle.dumps((stmt, pair)))
"""

#: run under another: the unpickled values must behave as fresh ones.
_READ = """
import pickle, sys
from repro.runtime.statement import Statement, StatementPair
stmt, pair = pickle.loads(sys.stdin.buffer.read())
fresh = Statement(file="prog.py", line=7, func="worker")
fresh_pair = StatementPair(fresh, Statement(label="t2:9"))
for old, new in ((stmt, fresh), (pair, fresh_pair)):
    assert old == new and hash(old) == hash(new), (old, new)
    assert old in {new} and len({old: 1, new: 2}) == 1
print("ok")
"""


def _python(code: str, hash_seed: str, stdin: bytes = b"") -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).parent.parent), env.get("PYTHONPATH", "")]
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        input=stdin, env=env, capture_output=True, check=True,
    ).stdout


class TestPickling:
    def test_pickles_carry_no_cached_hash(self):
        """A spawn or forkserver worker has its own hash seed: a hash
        cached under the parent's must not travel with the value."""
        pickled = _python(_WRITE, "1")
        assert _python(_READ, "2", stdin=pickled).strip() == b"ok"

    def test_round_trip_recomputes_the_hash(self):
        import pickle

        pair = StatementPair(Statement(file="a.py", line=1), Statement(label="b"))
        hash(pair)
        clone = pickle.loads(pickle.dumps(pair))
        assert clone._hash is None and clone.first._hash is None
        assert clone == pair and hash(clone) == hash(pair)


class TestStatementAt:
    def test_one_statement_per_site(self):
        code = TestStatementAt.test_one_statement_per_site.__code__
        first = statement_at(code, 3)
        assert statement_at(code, 3) is first
        assert statement_at(code, 4) is not first
        assert first.func == code.co_qualname
        assert first.file == code.co_filename and first.line == 3
