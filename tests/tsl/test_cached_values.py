"""The hash and the body paths that terms and AST nodes keep.

Each immutable term and AST node fills a hash slot on its first
``hash()``; conditions and queries also keep the paths
:mod:`repro.tsl.normalize` walks out of them.  The cached hash must be
the one the dataclass would compute (the hash of the compare-field
tuple), so set and dict order are unchanged; nodes that differ only in
``span`` or ``name`` must hash alike; the cached paths must not leak to
callers; and no cached value may travel through a pickle, since a
``str`` hash is only valid in the process that computed it.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from dataclasses import fields

import pytest

from repro.logic.terms import Constant, FunctionTerm, Variable
from repro.span import Span
from repro.tsl import parse_query
from repro.tsl.ast import (Condition, ObjectPattern, Query, SetPattern,
                           SetPatternTerm)
from repro.tsl.normalize import Path, condition_paths, query_paths

HERE = Span(1, 1, 1, 2)
THERE = Span(3, 4, 3, 9)


def specimens(span):
    """One instance of every class with a cached hash, built with *span*
    on every node that takes one."""
    x = Variable("X", span=span)
    a = Constant("a", span=span)
    f = FunctionTerm("f", (x, a), span=span)
    inner = ObjectPattern(Variable("Y", span=span), a, Constant(1),
                          span=span)
    members = SetPattern((inner,), span=span)
    outer = ObjectPattern(x, Constant("p", span=span), members, span=span)
    condition = Condition(outer, "db", span=span)
    query = Query(ObjectPattern(f, a, x, span=span), (condition,),
                  name="Q" if span is HERE else "R", span=span)
    path = Path(((x, a), (f, a)), Constant(2, span=span), "db")
    return [a, x, f, SetPatternTerm(members), members, inner, condition,
            query, path]


def compare_fields(node) -> tuple:
    return tuple(getattr(node, f.name) for f in fields(node) if f.compare)


@pytest.mark.parametrize("index", range(len(specimens(HERE))))
def test_hash_is_the_compare_field_tuple_hash(index):
    node = specimens(HERE)[index]
    assert hash(node) == hash(compare_fields(node))
    # The second call reads the slot and agrees with the first.
    assert hash(node) == hash(compare_fields(node))


@pytest.mark.parametrize("index", range(len(specimens(HERE))))
def test_span_and_name_do_not_change_the_hash(index):
    here, there = specimens(HERE)[index], specimens(THERE)[index]
    assert here == there
    assert hash(here) == hash(there)
    assert len({here, there}) == 1


def test_query_paths_returns_a_fresh_list_each_call():
    query = parse_query("<f(P) r V> :- <P a {<X b V>}>@db AND "
                        "<P a {<Y c W>}>@db AND <P a {<X b V>}>@db")
    first = query_paths(query)
    assert len(first) == 2
    first.append(first[0])
    first.reverse()
    assert query_paths(query) == list(reversed(first[1:]))
    condition = query.body[0]
    walked = condition_paths(condition)
    walked.clear()
    assert len(condition_paths(condition)) == 1


def test_unpickled_nodes_carry_no_cached_hash():
    query = parse_query("<f(P) r V> :- <P a {<X b V>}>@db")
    hash(query)
    query_paths(query)
    clone = pickle.loads(pickle.dumps(query))
    assert clone == query and clone.name == query.name
    assert clone._hash is None
    assert getattr(clone, "_paths", None) is None


_DUMP = """
import pickle, sys
from repro.tsl import parse_query
from repro.tsl.normalize import query_paths
query = parse_query("<f(P) r V> :- <P person {<X name V>}>@db", name="Q")
hash(query)
for path in query_paths(query):
    hash(path)
sys.stdout.buffer.write(pickle.dumps((query, query_paths(query))))
"""

_LOAD = """
import pickle, sys
from repro.tsl import parse_query
from repro.tsl.normalize import query_paths
loaded, paths = pickle.loads(sys.stdin.buffer.read())
query = parse_query("<f(P) r V> :- <P person {<X name V>}>@db")
assert loaded in {query}, "a pickled query is lost in a set"
assert set(paths) == set(query_paths(query)), "pickled paths are lost"
assert loaded.name == "Q"
print("found")
"""


def _run(code: str, seed: str, data: bytes = b"") -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=seed)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(src), env.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, "-c", code], input=data,
                          env=env, capture_output=True, check=True).stdout


def test_a_query_pickled_in_one_process_is_found_in_another():
    pickled = _run(_DUMP, "1")
    assert _run(_LOAD, "2", pickled).strip() == b"found"
