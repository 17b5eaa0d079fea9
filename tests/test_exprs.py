"""The expression tree against sympy, and the documents it refuses.

sympy is a test dependency only: here it is the reference for values at
rational points, derivatives, exact zeros and the certified index signs
at the fixture zeros.  Expressions are drawn by hypothesis over the
grammar, derandomized.  Refused component strings must exit 1 with an
error that names the offending token, and must never be evaluated.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from deckindex import exprs
from deckindex.cli import main
from deckindex.errors import InputError
from deckindex.fixpoint import map_model_from_document
from deckindex.fixtures import fixture_document
from deckindex.vectorfield import field_model_from_document

X, Y = sympy.symbols("x y")
EXAMPLES = settings(max_examples=60, derandomize=True, database=None, deadline=None)


def _sympy(text):
    return sympy.sympify(text, locals={"x": X, "y": Y, "pi": sympy.pi})


def _at(expr, point):
    """A sympy expression's value at a rational point, to 60 digits."""
    return expr.subs({v: sympy.Rational(c.numerator, c.denominator)
                      for v, c in zip((X, Y), point)}).evalf(60)


def _reference(text, point):
    return _at(_sympy(text), point)


def _vanishes(reference) -> bool:
    return bool(abs(reference) < 1e-40)


def _close(value, reference):
    return abs(value - float(reference)) <= 1e-9 * (1 + abs(float(reference)))


# -- generated expressions -----------------------------------------------------

COORDINATES = st.builds(Fraction, st.integers(-24, 24), st.integers(1, 12))
POINTS = st.tuples(COORDINATES, COORDINATES)
RATIONALS = st.sampled_from(["1", "2", "3", "1/2", "3/7", "5/4", "0.25"])


def _linear():
    """a*x + b*y + c with small rationals: pi times it is a trig argument
    that is a rational multiple of pi at every rational point."""
    return st.tuples(RATIONALS, RATIONALS, st.sampled_from(["0", "1/3", "1/4"])).map(
        lambda t: f"({t[0]}*x - {t[1]}*y + {t[2]})")


def _grammar(leaves, trig_argument):
    def extend(children):
        return st.one_of(
            st.tuples(children, st.sampled_from(["+", "-", "*"]), children)
            .map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(children, st.sampled_from(["2", "3", "7/2"]))
            .map(lambda t: f"{t[0]}/{t[1]}"),
            children.map(lambda c: f"-{c}"),
            st.tuples(children, st.integers(0, 3)).map(lambda t: f"({t[0]})**{t[1]}"),
            st.tuples(st.sampled_from(["sin", "cos"]), trig_argument)
            .map(lambda t: f"{t[0]}({t[1]})"))
    return st.recursive(leaves, extend, max_leaves=6)


LEAVES = st.sampled_from(["x", "y", "pi", "2", "3/7", "0.5"])
# any argument: the tree beyond the exact-zero fragment
EXPRESSIONS = st.deferred(lambda: _grammar(
    st.one_of(LEAVES, EXPRESSIONS.map(lambda e: f"1/(2 + sin({e})**2)")), EXPRESSIONS))
# trig arguments pi*(a*x - b*y + c): the exact-zero fragment
FRAGMENT = _grammar(LEAVES, _linear().map(lambda a: f"pi*{a}"))


@EXAMPLES
@given(EXPRESSIONS)
def test_printed_tree_parses_back_to_itself(text):
    e = exprs.parse_expression(text, 2)
    assert exprs.parse_expression(str(e), 2) == e


@EXAMPLES
@given(EXPRESSIONS, POINTS)
def test_values_and_derivatives_match_sympy(text, point):
    e = exprs.parse_expression(text, 2)
    cols = [float(c) for c in point]
    assert _close(exprs.numpy_function(e)(cols), _reference(text, point))
    for i, v in enumerate((X, Y)):
        reference = _at(sympy.diff(_sympy(text), v), point)
        assert _close(exprs.numpy_function(exprs.derivative(e, i))(cols), reference)


@EXAMPLES
@given(FRAGMENT, POINTS)
def test_exact_zero_is_decided_on_the_fragment(text, point):
    e = exprs.parse_expression(text, 2)
    value = _reference(text, point)
    assert exprs.exact_zero(e, point) is _vanishes(value)
    assert exprs.certified_sign(e, point) == \
        (0 if _vanishes(value) else 1 if value > 0 else -1)


IDENTITIES = [
    "sin(2*U) - 2*sin(U)*cos(U)",
    "cos(2*U) - cos(U)**2 + sin(U)**2",
    "sin(U + V) - sin(U)*cos(V) - cos(U)*sin(V)",
    "cos(U - V) - (cos(U)*cos(V) + sin(U)*sin(V))",
    "sin(U)**2 + cos(U)**2 - 1",
    "cos(3*U) - 4*cos(U)**3 + 3*cos(U)",
]


@EXAMPLES
@given(st.sampled_from(IDENTITIES), _linear(), _linear(), FRAGMENT, POINTS)
def test_trig_identities_vanish_and_perturbations_do_not(identity, u, v, other, point):
    zero = identity.replace("U", f"pi*{u}").replace("V", f"pi*{v}")
    # pi outside a trig argument is an indeterminate: pi times a zero is 0,
    # and a zero plus pi times a nonzero value is not
    for text in (zero, f"({other})*({zero})", f"pi*({zero}) + {zero}"):
        assert exprs.exact_zero(exprs.parse_expression(text, 2), point) is True
    shifted = f"{zero} + pi*{other}"
    assert exprs.exact_zero(exprs.parse_expression(shifted, 2), point) is \
        _vanishes(_reference(other, point))


@pytest.mark.parametrize("text,point", [
    ("sin(2*pi*x) - cos(2*pi*x)", (Fraction(1, 8), Fraction(0))),
    ("sin(2*pi*y)*(1 - 2*sin(2*pi*x))", (Fraction(5, 12), Fraction(1, 3))),
    ("4*cos(2*pi*x)**2 + 2*cos(2*pi*x) - 1", (Fraction(1, 5), Fraction(0))),
    ("cos(2*pi*x) + cos(4*pi*x) + cos(6*pi*x) + 1/2", (Fraction(1, 7), Fraction(0))),
    ("sin(pi*x)*sin(pi*y) - (cos(pi*(x - y)) - cos(pi*(x + y)))/2",
     (Fraction(3, 61), Fraction(2, 59))),
])
def test_cyclotomic_zeros_match_sympy(text, point):
    # sympy's simplify leaves the heptagon sum unsettled; its 60-digit value
    # is the reference
    assert _vanishes(_reference(text, point))
    e = exprs.parse_expression(text, 2)
    assert exprs.exact_zero(e, point) is True
    assert exprs.certified_sign(e, point) == 0
    assert exprs.exact_zero(exprs.parse_expression(f"{text} + 1/10**30", 2), point) is False


@pytest.mark.parametrize("text,point", [
    ("sin(1)", (Fraction(0),)),                 # not a rational multiple of pi
    ("x/(pi - 3)", (Fraction(1),)),             # a division by a non-rational
    ("sin(pi*x)", (Fraction(1, 4099),)),        # Q(zeta_16396) has degree 8196
])
def test_outside_the_fragment_is_undecided(text, point):
    e = exprs.parse_expression(text, 1)
    assert exprs.exact_zero(e, point) is None
    assert not exprs.is_exact_zero_vector([e], point)
    assert exprs.certified_sign(e, point) == 1


ANALYTIC = {"sin-map": map_model_from_document, "sin-map-scaled": map_model_from_document,
            "sin-field": field_model_from_document,
            "sin-field-override": field_model_from_document}


@pytest.mark.parametrize("name", sorted(ANALYTIC))
def test_certified_index_signs_match_sympy(name):
    doc = fixture_document(name)
    model = ANALYTIC[name](doc)
    sets = [(None, doc["components"])] + [
        (ov["translate"], ov["components"]) for ov in doc.get("overrides", [])]
    checked = 0
    for translate, components in sets:
        window = (0, 0) if translate is None else model.group.parse_word(translate)
        jac = sympy.Matrix([[sympy.diff(_sympy(c), v) for v in (X, Y)]
                            for c in components])
        det = (model.index_matrix_sign * jac).det()
        for position, exact in model.zeros_in_window(window):
            assert exact
            value = _at(det, position)
            assert model.local_index_at(position, True, window) == (1 if value > 0 else -1)
            checked += 1
    assert checked >= 4


# -- refused documents ---------------------------------------------------------

def _refused(tmp_path, capsys, component):
    doc = fixture_document("sin-map")
    doc["components"] = [component, doc["components"][1]]
    path = tmp_path / "map.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["map-analyze", str(path), "--out", str(tmp_path / "out")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("component,token", [
    ("1/0", "'/'"),
    ("lambda: 1", "'lambda'"),
    ("I/10", "'I'"),
    ("x if x else y", "'if'"),
    ("sqrt(x)", "'sqrt'"),
    ("E", "'E'"),
    ("x**0.5", "'0.5'"),
    ("x**(1/2)", "'/'"),
    ("z", "'z'"),
])
def test_component_outside_the_grammar_exits_one(component, token, tmp_path, capsys):
    code, err = _refused(tmp_path, capsys, component)
    assert code == 1
    assert err.startswith("error: cannot parse expression") and token in err


def test_component_undefined_on_the_grid_exits_one(tmp_path, capsys):
    # x/(y - y) parses, but is NaN or infinite at every validation point
    code, err = _refused(tmp_path, capsys, "x/(y - y)")
    assert code == 1 and "declared bound 2/5 violated" in err


def test_undefined_component_prints_only_its_error(tmp_path):
    # numpy's floating-point warnings stay off stderr: the bound check
    # already refuses the NaN and infinite values behind them
    doc = fixture_document("sin-map")
    doc["components"] = ["x/(y - y)", doc["components"][1]]
    path = tmp_path / "map.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-m", "deckindex.cli", "map-analyze", str(path)],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 1
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: declared bound 2/5 violated")


def test_component_is_never_evaluated(tmp_path, capsys):
    target = tmp_path / "created"
    component = f'(__import__("pathlib").Path({str(target)!r}).touch() or 0)'
    code, err = _refused(tmp_path, capsys, component)
    assert code == 1 and "'__import__'" in err
    assert not target.exists()


def test_parse_errors_name_the_first_token_out_of_the_grammar():
    with pytest.raises(InputError, match=r"unknown name 'lambda' at position 0"):
        exprs.parse_expression("lambda: 1", 2)
    with pytest.raises(InputError, match=r"exponent above 100: '101'"):
        exprs.parse_expression("x**101", 2)
    with pytest.raises(InputError, match=r"nests too deeply"):
        exprs.parse_expression("(" * 5000 + "x" + ")" * 5000, 2)
