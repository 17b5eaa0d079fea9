"""The expression tree against sympy, the slot program against the
evaluator it replaced, and the documents it refuses.

sympy is a test dependency only: here it is the reference for values at
rational points, derivatives, exact zeros and the certified index signs
at the fixture zeros.  ``_fold`` is the closure fold the slot program
replaced, one closure per node, run on numpy floats, on ``mpmath.iv``
intervals and on exact values: the programs must give the same floats bit
for bit, the same enclosure endpoints, the same exact values and the same
certified signs.  Expressions are drawn by hypothesis over the grammar,
derandomized.  Refused component strings must exit 1 with an error that
names the offending token, and must never be evaluated.
"""

import json
import operator
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
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


def _grammar(leaves, trig_argument, exponents=st.integers(0, 3)):
    def extend(children):
        return st.one_of(
            st.tuples(children, st.sampled_from(["+", "-", "*"]), children)
            .map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(children, st.sampled_from(["2", "3", "7/2"]))
            .map(lambda t: f"{t[0]}/{t[1]}"),
            children.map(lambda c: f"-{c}"),
            st.tuples(children, exponents).map(lambda t: f"({t[0]})**{t[1]}"),
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
    [value] = exprs._compile([e], exprs._floats())(cols)
    assert _close(value, _reference(text, point))
    for i, v in enumerate((X, Y)):
        reference = _at(sympy.diff(_sympy(text), v), point)
        [value] = exprs._compile([exprs.derivative(e, i)], exprs._floats())(cols)
        assert _close(value, reference)


@EXAMPLES
@given(FRAGMENT, POINTS)
def test_exact_zero_is_decided_on_the_fragment(text, point):
    e = exprs.parse_expression(text, 2)
    value = _reference(text, point)
    assert exprs.Programs([e]).vanishes(point) is _vanishes(value)
    assert exprs.certified_sign(exprs.Programs([e]), point) == \
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
        assert exprs.Programs([exprs.parse_expression(text, 2)]).vanishes(point) is True
    shifted = f"{zero} + pi*{other}"
    assert exprs.Programs([exprs.parse_expression(shifted, 2)]).vanishes(point) is \
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
    assert exprs.Programs([e]).vanishes(point) is True
    assert exprs.certified_sign(exprs.Programs([e]), point) == 0
    shifted = exprs.parse_expression(f"{text} + 1/10**30", 2)
    assert exprs.Programs([shifted]).vanishes(point) is False


@pytest.mark.parametrize("offset,sign", [("+ 1/10**30", 1), ("- 1/10**60", -1)])
def test_wider_enclosures_settle_tiny_values(offset, sign):
    # 10**-30 is about 2**-100 and 10**-60 about 2**-199: a 60-bit enclosure
    # of the cyclotomic zero plus either holds 0, the 120- or 240-bit one not
    e = exprs.parse_expression(f"sin(2*pi*x) - cos(2*pi*x) {offset}", 1)
    assert exprs.certified_sign(exprs.Programs([e]), (Fraction(1, 8),)) == sign


@pytest.mark.parametrize("text,point", [
    ("sin(1)", (Fraction(0),)),                 # not a rational multiple of pi
    ("x/(pi - 3)", (Fraction(1),)),             # a division by a non-rational
    ("sin(pi*x)", (Fraction(1, 4099),)),        # Q(zeta_16396) has degree 8196
])
def test_outside_the_fragment_is_undecided(text, point):
    e = exprs.parse_expression(text, 1)
    assert exprs.Programs([e]).vanishes(point) is None
    assert exprs.certified_sign(exprs.Programs([e]), point) == 1


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
            assert model.local_index_at(position, window) == (1 if value > 0 else -1)
            checked += 1
    assert checked >= 4


# -- the slot program against the closure fold ----------------------------------

def _fold(e, arithmetic):
    """The evaluator the slot program replaced: one closure per node, so a
    shared subtree is evaluated once per occurrence, and a subtree without
    variables once per call."""
    op, args = e
    if op == "var":
        return operator.itemgetter(args[0])
    if op in ("const", "pi"):
        v = arithmetic["const"](args[0]) if op == "const" else arithmetic["pi"]
        return lambda point: v
    fn = arithmetic[op]
    if op == "pow":
        f, n = _fold(args[0], arithmetic), args[1]
        return lambda point: fn(f(point), n)
    if len(args) == 2:
        f, g = _fold(args[0], arithmetic), _fold(args[1], arithmetic)
        return lambda point: fn(f(point), g(point))
    f = _fold(args[0], arithmetic)
    return lambda point: fn(f(point))


_FIELD = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
          "div": operator.truediv, "neg": operator.neg, "pow": operator.pow}
_FLOAT_FOLD = {**_FIELD, "sin": np.sin, "cos": np.cos,
               "const": lambda r: np.float64(float(r)), "pi": np.float64(np.pi)}


def _iv_enclosure(e, point, prec):
    """The ``mpmath.iv`` enclosure of ``e`` at a rational point as its pair
    of mpf endpoints, with ``iv.prec`` set for the evaluation only."""
    from mpmath import iv

    def const(r):
        return iv.mpf(r.numerator) / iv.mpf(r.denominator)

    saved, iv.prec = iv.prec, prec
    try:
        table = {**_FIELD, "sin": iv.sin, "cos": iv.cos, "const": const, "pi": iv.pi}
        return _fold(e, table)([const(c) for c in point])._mpi_
    finally:
        iv.prec = saved


def _exact_fold(e, point):
    """The reduced exact value of ``e`` at a rational point, or None when
    it is undecided."""
    try:
        return exprs._reduce(_fold(e, exprs._EXACT)([exprs._rational(c) for c in point]))
    except exprs._Undecided:
        return None


def _fold_sign(e, point):
    """The certified sign as the fold computed it, read by ``mpmath.iv``'s
    comparisons, or the refusal's text."""
    from mpmath import iv
    for prec in (60, 120, 240):
        interval = iv.make_mpf(_iv_enclosure(e, point, prec))
        if interval.a > 0:
            return 1
        if interval.b < 0:
            return -1
        if prec == 60 and _exact_fold(e, point) == {}:
            return 0
    return f"sign of {e} at {tuple(map(str, point))} is ambiguous"


# leaves with constant subtrees (2*pi, sin(2), an undecided pi - 3),
# constants whose integers need more than 60 bits, and divisions by values
# that vanish at some points (x = y) or everywhere
REFERENCE_LEAVES = st.sampled_from(
    ["x", "y", "pi", "2*pi", "3/7", "0.5", "sin(2)", "cos(pi/3)", "x/(pi - 3)",
     "1/10**25", "3**41/7", "1/(x - y)", "(x - x)/(y - y)"])
REFERENCE_EXPRESSIONS = st.deferred(lambda: _grammar(
    st.one_of(REFERENCE_LEAVES, FRAGMENT), REFERENCE_EXPRESSIONS, st.integers(-2, 3)))


def _pipeline_list(texts):
    """Two components, their Jacobian and its determinant: the expression
    lists the analytic pipeline compiles, full of shared subtrees."""
    components = [exprs.parse_expression(t, 2) for t in texts]
    jac = exprs.jacobian(components, 2)
    return components + [e for row in jac for e in row] + [exprs.determinant(jac)]


@EXAMPLES
@given(st.tuples(REFERENCE_EXPRESSIONS, REFERENCE_EXPRESSIONS),
       st.lists(POINTS, min_size=1, max_size=6))
def test_float_program_equals_the_fold_bit_for_bit(texts, points):
    expressions = _pipeline_list(texts)
    pts = np.array([[float(c) for c in p] for p in points])
    cols = [pts[:, i] for i in range(2)]
    with np.errstate(all="ignore"):
        reference = np.stack([np.broadcast_to(_fold(e, _FLOAT_FOLD)(cols), len(pts))
                              for e in expressions], axis=1).astype(float)
    values = exprs.lambdify_vector(expressions, 2)(pts)
    # NaN and infinite entries in the same places, with the same bits
    assert values.tobytes() == reference.tobytes()


@EXAMPLES
@given(st.tuples(REFERENCE_EXPRESSIONS, REFERENCE_EXPRESSIONS), POINTS)
def test_interval_and_exact_programs_equal_the_fold(texts, point):
    expressions = _pipeline_list(texts)
    programs = exprs.Programs(expressions)
    for prec in (60, 120, 240):
        assert programs.intervals(point, prec) == \
            [_iv_enclosure(e, point, prec) for e in expressions]
    folded = [_exact_fold(e, point) for e in expressions]
    run = exprs._compile(expressions, exprs._EXACT)
    try:
        values = [exprs._reduce(v) for v in run([exprs._rational(c) for c in point])]
    except exprs._Undecided:
        assert None in folded
    else:
        assert values == folded
    assert programs.vanishes(point) is (
        None if None in folded else all(v == {} for v in folded))


@EXAMPLES
@given(st.tuples(REFERENCE_EXPRESSIONS, REFERENCE_EXPRESSIONS), POINTS)
def test_certified_sign_equals_the_fold(texts, point):
    for e in _pipeline_list(texts):
        try:
            sign = exprs.certified_sign(exprs.Programs([e]), point)
        except InputError as error:
            sign = str(error).split(" at 240 bits")[0]
        assert sign == _fold_sign(e, point)


@pytest.mark.parametrize("text,sign,bits", [
    ("x - 1/3 + 1/10**5", 1, 60),
    ("x - 1/3 + 0.0000000000000000000000001", 1, 120),   # 10**-25, about 2**-83
    ("1/3 - x - 1/10**60", -1, 240),                      # about 2**-199
    ("x - 1/3", 0, 60),
])
def test_sign_escalation_branches(text, sign, bits):
    # the enclosures below ``bits`` hold 0 and the one at ``bits`` does not;
    # a value that is exactly zero is settled by the exact test at 60 bits
    from mpmath.libmp import mpf_sign
    programs = exprs.Programs([exprs.parse_expression(text, 1)])
    point = (Fraction(1, 3),)
    for prec in (60, 120, 240):
        [(low, high)] = programs.intervals(point, prec)
        assert (mpf_sign(low) <= 0 <= mpf_sign(high)) is (prec < bits or sign == 0)
    assert programs.vanishes(point) is (sign == 0)
    assert exprs.certified_sign(programs, point) == sign


def test_certified_sign_leaves_mpmath_precisions_alone():
    # the interval programs take their precision as an argument; neither
    # mpmath.iv's nor mpmath.mp's global precision is read or written
    from mpmath import iv, mp
    saved = iv.prec, mp.prec
    iv.prec, mp.prec = 77, 91
    try:
        for text, sign in [("x - 1/3 + 1/10**5", 1), ("x - 1/3 + 1/10**25", 1),
                           ("1/3 - x - 1/10**60", -1), ("x - 1/3", 0)]:
            programs = exprs.Programs([exprs.parse_expression(text, 1)])
            assert exprs.certified_sign(programs, (Fraction(1, 3),)) == sign
            assert (iv.prec, mp.prec) == (77, 91)
        # about 2**-266: no enclosure up to 240 bits excludes 0
        programs = exprs.Programs([exprs.parse_expression("x - 1/3 + 1/10**80", 1)])
        with pytest.raises(InputError, match="ambiguous at 240 bits"):
            exprs.certified_sign(programs, (Fraction(1, 3),))
        assert (iv.prec, mp.prec) == (77, 91)
    finally:
        iv.prec, mp.prec = saved


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
