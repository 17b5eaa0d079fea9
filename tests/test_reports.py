import enum
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deckindex.reports import canonical_json


def stdlib(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def outcome(write, doc):
    """The text ``write`` gives, or the type and message of its error."""
    try:
        return write(doc)
    except (TypeError, ValueError) as e:
        return type(e), str(e)


# every code point but the surrogates, control characters among them
TEXT = st.text(st.characters(min_codepoint=0, max_codepoint=0x10FFFF,
                             blacklist_categories=("Cs",)), max_size=8)
SCALARS = (st.none() | st.booleans() | st.integers()
           | st.integers(min_value=-10 ** 40, max_value=10 ** 40)
           | st.floats() | st.sampled_from([-0.0, float("nan"), float("inf"),
                                            float("-inf")]) | TEXT)
# one key type per dict: the stdlib sorts keys before coercing them
KEYS = st.sampled_from([TEXT, st.integers(), st.floats(), st.booleans(), st.none()])
DOCS = st.recursive(
    SCALARS,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | KEYS.flatmap(lambda keys: st.dictionaries(keys, children,
                                                                  max_size=4))),
    max_leaves=24)


@settings(max_examples=400, deadline=None, database=None)
@given(DOCS)
def test_writer_matches_the_stdlib(doc):
    assert canonical_json(doc) == stdlib(doc)


class Small(enum.IntEnum):
    ONE = 1


class Name(str):
    pass


@pytest.mark.parametrize("doc", [
    {}, [], (), [[], {}, ()], {"a": [{}]}, "é\x00\x1f \"\\", Small.ONE,
    {Small.ONE: Small.ONE, 2: [Small.ONE]}, {Name("k"): Name("v")},
    {1.5: None, float("nan"): 0, float("-inf"): 1}, {True: 1, False: 2},
    {None: -0.0}, [10 ** 100, -(10 ** 100)], [np.float64(0.1), {np.float64(2.5): 1}],
], ids=repr)
def test_writer_matches_the_stdlib_on_corner_cases(doc):
    assert canonical_json(doc) == stdlib(doc)


@pytest.mark.parametrize("doc", [
    Fraction(1, 2), {1, 2}, b"bytes", [Fraction(1, 3)], {"a": [{"b": {3}}]},
    {"a": b""}, {"a": 1, 2: 3}, {(1, 2): 0}, {"x": {None: 1, "y": 2}},
    [1, {frozenset(): 0}], [np.int64(3)],
], ids=repr)
def test_writer_refuses_what_the_stdlib_refuses(doc):
    expected = outcome(stdlib, doc)
    assert expected[0] is TypeError
    assert outcome(canonical_json, doc) == expected
