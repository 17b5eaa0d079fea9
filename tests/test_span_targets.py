"""The bench harness's span targets name real functions of the package.

``perfbench/spans.py`` wraps each (module, path) it lists by looking the
name up in the module or in the class dict, so a renamed or deleted target
breaks ``--trace 1`` with a KeyError, and two targets bound to one object
get their spans counted twice.
"""

import importlib
import importlib.util
import os

import pytest

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


_spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
_spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_spans)
TARGETS = _spans.SPANNED + _spans.COUNTED


def _resolve(module, path):
    owner = importlib.import_module(f"deckindex.{module}")
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner.__dict__[attr]


@pytest.mark.parametrize("module,path", TARGETS,
                         ids=[f"{m}.{p}" for m, p in TARGETS])
def test_span_target_resolves(module, path):
    assert callable(_resolve(module, path))


def test_span_targets_are_distinct_objects():
    objects = [_resolve(module, path) for module, path in TARGETS]
    assert len({id(o) for o in objects}) == len(objects)
