"""Periodic vector fields: zeros with their indices, the index class and
the Euler-characteristic consistency check.

The index class of a field v is the Lefschetz class of ``x + v`` with the
index sign flipped, so fields run the shared stages of
:mod:`deckindex.fixpoint` with ``index_matrix_sign = +1``: a zero's index
is ``sign det Dv``, attached to its record by the model's zero table.
Analytic fields are analytic models with that sign.  PL fields on
realized finite complexes are given by one vector per vertex; inside each
top simplex the vertex vectors are projected into the simplex plane and
interpolated affinely, and these projected vectors are the vertex vectors
the shared affine-cell path works with, so zeros and indices are exact
rational computations per chart.  The functions below are the field
pipeline's entry points into those stages.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .classes import ClassFunction
from .complexes import QuotientComplex, euler_characteristic
from .errors import InputError
from .fixpoint import (
    TAMENESS_GRID,
    AffineCellModel,
    AnalyticModel,
    TamenessReport,
    analytic_model_from_document,
    assemble_class,
    check_tameness,
    document_value,
    resolve_complex_reference,
    solve_zeros,
    vertex_id_reader,
)
from .geometry import numerators
from .groups import FiniteGroup


class AnalyticFieldModel(AnalyticModel):
    """Closed-form Z^n-periodic vector field on a flat-torus cover."""

    index_matrix_sign = +1  # index of a zero is sign det Dv


class PLFieldModel(AffineCellModel):
    """PL tangent field on a realized finite complex, one vector per vertex.

    The field value inside a top simplex is the affine interpolation of
    the vertex vectors projected into the simplex plane (per-chart affine
    identification of the tangent space).
    """

    variant = "pl"
    index_matrix_sign = +1  # index of a zero is sign det Dv
    equivariant = True

    def __init__(self, complex: QuotientComplex, vertex_vectors: dict, bound):
        super().__init__()
        if complex.coordinates is None:
            raise InputError("PL fields need a realized complex")
        if not (isinstance(complex.group, FiniteGroup) and complex.group.order == 1):
            raise InputError("PL fields are supported on trivial-deck covers; "
                             "periodic fields use the analytic model")
        self.complex = self.source = complex
        self.group = complex.group
        self.vertex_vectors = {int(v): tuple(Fraction(str(c)) for c in vec)
                               for v, vec in vertex_vectors.items()}
        if set(self.vertex_vectors) != set(range(complex.count(0))):
            raise InputError("vertex vectors must cover exactly the vertices")
        d = len(complex.coordinates[0])
        for v, vec in self.vertex_vectors.items():
            if len(vec) != d:
                raise InputError(f"the vertex vector of {complex.vertices[v]!r} has "
                                 f"{len(vec)} components; the complex has {d} coordinates")
        self.bound = Fraction(str(bound))
        if self.bound < 0:
            raise InputError(f"'bound' must be nonnegative, not {self.bound}")
        # each top cell is projected once; only its numerators over the one
        # least common denominator are kept
        planar = [self._project(idx) for idx in complex.cells(complex.dimension)]
        self.den = math.lcm(*(c.denominator for _, *rows in planar
                              for row in itertools.chain(*rows) for c in row))
        self.cells = [(s, numerators(positions, self.den), numerators(vectors, self.den))
                      for s, positions, vectors in planar]
        self.validate_bound()

    def _project(self, idx: int):
        """Vertex ids, exact positions and the vertex vectors projected into
        the plane of the top cell ``idx`` lifted at the identity."""
        q = self.complex
        n = q.dimension
        s = q.simplex(n, idx)
        verts = q.realize(n, idx)
        d = len(verts[0])
        vectors = [self.vertex_vectors[v] for v in s]
        if n == d:
            return s, verts, vectors
        if not (n == 2 and d == 3):
            raise InputError("PL fields support surfaces in R^3 or full-"
                             "dimensional complexes")
        u = [verts[1][i] - verts[0][i] for i in range(3)]
        v = [verts[2][i] - verts[0][i] for i in range(3)]
        normal = (u[1] * v[2] - u[2] * v[1],
                  u[2] * v[0] - u[0] * v[2],
                  u[0] * v[1] - u[1] * v[0])
        nn = sum(x * x for x in normal)
        out = []
        for w in vectors:
            coeff = sum(a * b for a, b in zip(w, normal)) / nn
            out.append(tuple(a - coeff * b for a, b in zip(w, normal)))
        return s, verts, out

    def validate_bound(self):
        limit = (self.bound * self.den) ** 2
        for idx, (_, _, vectors) in enumerate(self.cells):
            for w in vectors:
                if sum(c * c for c in w) > limit:
                    raise InputError(f"declared bound {self.bound} violated by a "
                                     f"projected vertex vector on cell {idx}")


def find_zeros(model, radius: int = 0):
    """Zeros of the field over translates in ball(radius), each zero
    carrying its index, the degree of the field direction map on a small
    sphere around it; see :func:`deckindex.fixpoint.solve_zeros`."""
    return solve_zeros(model, radius)


def field_tameness_check(model, grid: int = TAMENESS_GRID) -> TamenessReport:
    """Tameness of the field: isolation and norm gap; see
    :func:`deckindex.fixpoint.check_tameness`."""
    return check_tameness(model, grid)


def index_class(model, fd=None, report: TamenessReport | None = None) -> ClassFunction:
    """Per-coset signed zero counts as a bounded class function; see
    :func:`deckindex.fixpoint.assemble_class`."""
    return assemble_class(model, fd, report)


def poincare_hopf_check(model, report: TamenessReport | None = None) -> dict:
    """Compare the index class with chi(quotient) times the constant one.

    Forms ind(v) - chi * 1 as a class function and submits it to the class
    decision procedure.  With exact arithmetic a nonzero verdict can only
    mean the input model violates the theorem's hypotheses, and the report
    flags it as an input-model error.  ``report`` is the tameness verdict
    that gates the index class (checked afresh when omitted); the class
    itself is returned under ``class_function``.
    """
    from .ufh import decide_class
    cls = index_class(model, report=report)
    chi = euler_characteristic(model.complex)
    difference = cls - ClassFunction(model.group, chi, {})
    cert = decide_class(model.group, difference)
    consistent = cert.verdict in ("zero-by-boundary", "zero-by-truncated-flow")
    return {
        "euler_characteristic": chi,
        "index_class": cls.to_document(),
        "class_function": cls,
        "difference": difference.to_document(),
        "certificate": cert,
        "consistent": consistent,
        "interpretation": (
            "index class equals chi times the constant function, as the "
            "index theorem requires" if consistent else
            "difference does not vanish: with exact arithmetic this flags "
            "an input-model error (hypotheses violated), not a counterexample"),
    }


# ---------------------------------------------------------------------------
# Documents


def field_model_from_document(doc: dict, complex_resolver=None):
    q = resolve_complex_reference(doc, complex_resolver)
    variant = doc.get("variant")
    if variant == "analytic":
        return analytic_model_from_document(AnalyticFieldModel, q, doc)
    if variant == "pl":
        as_vid = vertex_id_reader(q)
        vectors = document_value(doc, "vertex_vectors", lambda vv: {
            as_vid(k): [Fraction(str(c)) for c in vec] for k, vec in vv.items()})
        bound = document_value(doc, "bound", lambda b: Fraction(str(b)))
        return PLFieldModel(q, vectors, bound)
    raise InputError(f"unknown field variant {variant!r}")
