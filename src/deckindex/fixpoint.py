"""Bounded-displacement self-maps of a periodic cover: fixed points,
local indices, tameness verification and the bounded index class, in
stages shared with vector fields.

A fixed point of ``x + d(x)`` is a zero of the displacement d, and the
index class of a field v is the Lefschetz class of ``x + v`` with the index
sign flipped.  So maps and fields run one pipeline: the shared stages
:func:`solve_zeros`, :func:`check_tameness` and :func:`assemble_class` take
any model that carries ``index_matrix_sign``, -1 for a map and +1 for a
field.  The public names of the map pipeline (``find_fixed_points``,
``tameness_check``, ``lefschetz_class``) and of the field pipeline (in
``vectorfield``) call these stages.

Every model is a :class:`ZeroTable`: it keeps one list of zero records
per (component set, window) pair, and each simplex-interior record carries
its index from the moment it is built.  A window that uses the
unoverridden data copies the identity's records, moved by the window;
any other window is solved once.  The tameness check, the zero listing,
the index class and the oracle all read the same records.  What differs
between kinds of model is the model's own: ``sample_norms`` (the float
grid tameness samples), ``subdivided`` (the model over a subdivided
complex) and ``classical_lefschetz_number`` (the oracle's trace).

Two kinds of model are supported.

* Analytic (Euclidean covers of flat tori over Z^n): the map is
  ``f(x) = x + d(x)`` with a Z^n-periodic closed-form displacement given by
  exact expressions.  Fixed points are located by damped Newton iteration
  from a deterministic grid, all starts in lockstep, snapped to
  small-denominator rationals and verified symbolically; completeness at
  grid resolution is a documented heuristic, exact afterwards.  An override
  replaces the displacement on a single period cell ``w + [0,1)^n`` of the
  cover (finitely many translates); authors must keep the seam continuous.

* Affine-cell (complexes realized with exact rational coordinates): a
  simplicial map sends a barycentric subdivision of the quotient
  simplicially into the quotient; a PL field (``vectorfield``) interpolates
  one vector per vertex.  Both expose, through ``affine_cell``, each source
  top cell's vertex positions and vertex vectors: the displacements
  ``T_j - S_j`` of a map, the projected vertex vectors of a field.  One
  code path solves the affine zero equation exactly in rationals per cell,
  rejects zeros on simplex faces, takes each index from the exact chart
  determinant of the cell the zero was solved in and samples norms on a
  barycentric grid.  Non-equivariant perturbations of simplicial maps are
  supported on trivial-deck covers, where they amount to replacing vertex
  images.

Host cells are found from a per-complex table holding, per top cell, one
exact reduction of its barycentric system and its bounding box; a zero's
isolation radius is capped by its exact depth in the host cell.

The index of an isolated zero is the degree of ``sign * d`` around it,
``sign det(sign * Dd)`` at nondegenerate points, with ``sign`` the model's
``index_matrix_sign``.  For a map this is the classical convention, the
degree of ``x - f(x)``, i.e. ``sign det(I - Df)``; for a field it is
``sign det Dv``.  The sign is certified by interval arithmetic for analytic
models and computed in exact rationals for affine pieces.  An affine
piece yields a zero only when that zero is unique, so its chart is never
degenerate.

numpy is imported inside the float kernels (Newton search, bound and
tameness sampling), so importing this module, or reading index data, does
not load it.
"""

from __future__ import annotations

import copy
import itertools
import math
import operator
import weakref
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .chains import lefschetz_number_quotient
from .classes import ClassFunction, ingest_index_data  # noqa: F401 - read by callers
from .complexes import (PeriodicComplex, QuotientComplex, barycentric_subdivide,
                        check_subdivision_count, euler_characteristic, permutation_sign)
from .errors import InputError, InternalError, TamenessError
from .geometry import (
    det,
    eliminate,
    simplex_boundary_squared_distance,
    solve_linear,
    sqrt_lower_bound,
    squared_distance_point_point,
)
from .groups import FiniteGroup, FreeAbelianGroup

NEWTON_GRID = 32
TAMENESS_GRID = 64
BOUND_SAMPLES = 33  # float grid points per axis on which a declared bound is checked

# How messages name a model and its zeros, by index_matrix_sign: the model,
# one zero, and the witness of an affine cell whose zero set is not isolated.
_WORDING = {
    -1: ("map", "fixed point", "fixed-point set is not isolated: the affine "
         "equation on source cell {} is singular (identity-like map)"),
    1: ("field", "field zero", "zero set is not isolated on cell {}"),
}


@dataclass
class FixedPointRecord:
    """An isolated fixed point (or field zero) with its certificates."""

    position: tuple            # exact rationals when `exact`, floats otherwise
    exact: bool
    host: tuple | None         # (deck element, top simplex index)
    on_face: bool
    index: int | None = None
    coset: object = None
    isolation: Fraction | None = None

    def to_document(self, group):
        return {
            "position": [str(c) for c in self.position],
            "exact": self.exact,
            "host": None if self.host is None else
            {"deck": group.format_element(self.host[0]), "cell": self.host[1]},
            "on_face": self.on_face,
            "index": self.index,
            "coset": None if self.coset is None else group.format_element(self.coset),
            "isolation": None if self.isolation is None else str(self.isolation),
        }


@dataclass
class TamenessReport:
    delta: Fraction | None
    epsilon: Fraction | None
    verdict: str               # "strongly tame" | "tame" | "not tame"
    strongly_fixed_point_free: bool = False
    witnesses: list = field(default_factory=list)

    @property
    def strongly_tame(self) -> bool:
        return self.verdict == "strongly tame"

    def to_document(self):
        return {
            "delta": None if self.delta is None else str(self.delta),
            "epsilon": None if self.epsilon is None else str(self.epsilon),
            "verdict": self.verdict,
            "strongly_fixed_point_free": self.strongly_fixed_point_free,
            "witnesses": self.witnesses,
        }


# ---------------------------------------------------------------------------
# The zero table shared by every model


class ZeroTable:
    """Zero records of a model, built once per (component set, window).

    A window is a deck element.  A window that uses the unoverridden data
    gets the identity's records moved by the window; any other window is
    solved by the model's ``_solve_window``, which attaches the index of
    every simplex-interior record.  Other records keep ``index = None``.
    Lookups hand out copies.  Component sets are keyed by ``None`` (the
    unoverridden data) or by the position of an override.
    """

    def __init__(self):
        self._records: dict = {}       # (component key, window) -> records

    def override_translates(self):
        return []

    def component_key(self, window, plain: bool = False):
        """Which component set applies in ``window``: None or an override position."""
        return None

    def window_records(self, window, plain: bool = False):
        """Records of the zeros in ``window``; with ``plain=True`` the
        unoverridden data is used whatever the window."""
        key = (self.component_key(window, plain), window)
        if key not in self._records:
            ident = self.group.identity()
            if key[0] is None and window != ident:
                self._records[key] = [
                    _translate_record(self.complex, r, window)
                    for r in self.window_records(ident, plain=True)]
            else:
                self._records[key] = self._solve_window(window, plain)
        return [replace(r) for r in self._records[key]]

    def subdivided(self, times: int):
        """The model over the ``times``-fold subdivided complex (analysis
        refinement); a model that cannot be carried over refuses."""
        raise InputError("subdivision refinement is unsupported for this model")


# ---------------------------------------------------------------------------
# Analytic models on flat-torus covers


class AnalyticModel(ZeroTable):
    """Z^n-periodic closed-form displacement or field on a Euclidean cover.

    ``index_matrix_sign`` distinguishes the two uses: a fixed point of
    ``x + d(x)`` has index sign det(-Dd), a field zero has index
    sign det(Dv).
    """

    variant = "analytic"
    index_matrix_sign = -1

    def __init__(self, complex: QuotientComplex, components, bound,
                 overrides=None, grid: int = NEWTON_GRID):
        super().__init__()
        if not isinstance(complex.group, FreeAbelianGroup):
            raise InputError("analytic models need a free-abelian deck group")
        if complex.coordinates is None:
            raise InputError("analytic models need a realized complex")
        self.complex = complex
        self.group = complex.group
        self.dim = complex.dimension
        if self.group.rank != self.dim:
            raise InputError("deck rank must match the complex dimension")
        from . import exprs
        self.components = [exprs.parse_expression(c, self.dim) for c in components]
        if len(self.components) != self.dim:
            raise InputError("component count must match the dimension")
        self.bound = Fraction(bound)
        self.jac = exprs.jacobian(self.components, self.dim)
        self.grid = int(grid)
        if self.grid < 1:
            raise InputError(f"'grid' (Newton starts per axis) must be at least 1, "
                             f"not {self.grid}")
        self.overrides = []
        for ov in overrides or []:   # {"translate": deck element, "components": [...]}
            comps = [exprs.parse_expression(c, self.dim) for c in ov["components"]]
            self.overrides.append({"translate": ov["translate"], "components": comps,
                                   "jacobian": exprs.jacobian(comps, self.dim)})
        self._numerics: dict = {}      # (kind, component key) -> callable
        self._index_dets: dict = {}    # component key -> determinant expression
        self.validate_bound()

    @property
    def equivariant(self) -> bool:
        return not self.overrides

    def override_translates(self):
        return [ov["translate"] for ov in self.overrides]

    def component_key(self, window, plain: bool = False):
        if not plain:
            for i, ov in enumerate(self.overrides):
                if ov["translate"] == window:
                    return i
        return None

    def _component_set(self, key):
        if key is None:
            return self.components, self.jac
        ov = self.overrides[key]
        return ov["components"], ov["jacobian"]

    def components_for_window(self, window):
        return self._component_set(self.component_key(window))

    # -- numeric plumbing ----------------------------------------------------

    def _numeric(self, key):
        """Vectorized float evaluation of a component set, lambdified once."""
        if ("f", key) not in self._numerics:
            from . import exprs
            self._numerics["f", key] = exprs.lambdify_vector(
                self._component_set(key)[0], self.dim)
        return self._numerics["f", key]

    def _numeric_jac(self, key):
        """Stacked float Jacobians of a component set, lambdified once."""
        if ("j", key) not in self._numerics:
            from . import exprs
            self._numerics["j", key] = exprs.lambdify_matrix(
                self._component_set(key)[1], self.dim)
        return self._numerics["j", key]

    def validate_bound(self) -> None:
        import numpy as np
        axes = [np.linspace(0.0, 1.0, BOUND_SAMPLES, endpoint=False)] * self.dim
        pts = np.array(list(itertools.product(*axes)))
        for key in [None] + list(range(len(self.overrides))):
            f = self._numeric(key)
            worst = float(np.sqrt((f(pts) ** 2).sum(axis=1)).max())
            if not worst <= float(self.bound) * (1 + 1e-9):   # NaN fails too
                raise InputError(f"declared bound {self.bound} violated on the "
                                 f"validation grid (observed {worst:.6f})")

    # -- zero localization -----------------------------------------------------

    def zeros_in_window(self, window=None, plain: bool = False):
        """Zeros inside one period cell ``window + [0,1)^n``.

        Damped Newton runs from a 32^n grid of starts in lockstep: every
        iteration solves all open starts' Newton systems in one stacked
        ``np.linalg.solve``, and each start halves its own step (at most
        20 times) until its residual max-norm drops.  A start stops after
        60 iterations, below residual 1e-13, or when its step finds no
        descent.  Converged points are deduplicated on the torus in start
        order, snapped to small-denominator rationals and verified exactly
        when possible, and listed by position: exact zeros by their
        rational value, so the order does not rest on the last bits of a
        Newton iterate.  With ``plain=True`` the unoverridden expressions
        are used regardless of the window.

        Every call searches afresh; the pipeline reads zeros through the
        zero table, which solves each (component set, window) once.
        """
        if window is None:
            window = self.group.identity()
        return self._search_zeros(self.component_key(window, plain), window)

    def _search_zeros(self, key, window):
        import numpy as np

        from . import exprs
        components, _ = self._component_set(key)
        base = np.array([float(x) for x in window])
        axes = [np.linspace(0.0, 1.0, self.grid, endpoint=False)
                + 0.5 / self.grid] * self.dim
        starts = np.array(list(itertools.product(*axes))) + base
        x = _lockstep_newton(self._numeric(key), self._numeric_jac(key), starts)
        local = np.mod(x - base, 1.0)
        local = np.where(local > 1.0 - 1e-9, 0.0, local)
        unique = _dedup_on_torus(local, limit=4 * self.grid)
        if unique is None:
            raise TamenessError("zero set is not isolated at grid resolution "
                                "(Newton converges on a cluster)")
        out = []
        for z in unique:
            snapped = [exprs.snap_to_rational(c) for c in z]
            if all(s is not None for s in snapped):
                point = tuple(s + Fraction(w) for s, w in zip(snapped, window))
                if exprs.is_exact_zero_vector(components, point):
                    out.append((point, True))
                    continue
            out.append((tuple(float(c) + float(w) for c, w in zip(z, window)),
                        False))
        return sorted(out)

    def _solve_window(self, window, plain):
        """Host records of the searched zeros, each interior one indexed."""
        records = [resolve_record(self.complex, pos, exact)
                   for pos, exact in self.zeros_in_window(window, plain)]
        for r in records:
            if not r.on_face and r.host is not None:
                r.index = self.local_index_at(r.position, r.exact, window, plain)
        return records

    def local_index_at(self, position, exact: bool, window=None,
                       plain: bool = False) -> int:
        """Index at an exact zero via the certified Jacobian determinant sign."""
        if not exact:
            raise InputError("a local index needs an exact zero")
        if window is None:
            window = tuple(math.floor(float(c)) for c in position)
        from . import exprs
        sign = exprs.certified_sign(self._index_det(self.component_key(window, plain)),
                                    tuple(map(Fraction, position)))
        if sign == 0:
            raise InputError("degenerate analytic zero: the Jacobian "
                             "determinant vanishes; demand a smaller "
                             "isolation radius or simplify the model")
        return sign

    def _index_det(self, key):
        """det(index_matrix_sign * Jacobian) of a component set, built once."""
        if key not in self._index_dets:
            from . import exprs
            d = exprs.determinant(self._component_set(key)[1])
            # det(-J) = (-1)^n det(J)
            if self.index_matrix_sign < 0 and self.dim % 2:
                d = exprs.neg(d)
            self._index_dets[key] = d
        return self._index_dets[key]

    def norms_at(self, points: np.ndarray) -> np.ndarray:
        """Displacement/field norms at float samples, override-aware."""
        import numpy as np
        windows = np.floor(points).astype(int)
        keys = np.full(len(points), -1)
        # the first override of a window wins, as in components_for_window
        for i in reversed(range(len(self.overrides))):
            inside = (windows == self.overrides[i]["translate"]).all(axis=1)
            keys[inside] = i
        out = np.empty(len(points))
        for k in np.unique(keys):
            sel = keys == k
            f = self._numeric(None if k < 0 else int(k))
            out[sel] = np.sqrt((f(points[sel]) ** 2).sum(axis=1))
        return out

    def sample_norms(self, grid: int):
        """Float positions and norms at the cell centres of a ``grid``^n grid
        on the identity window and on every override window."""
        import numpy as np
        axes = [np.linspace(0.0, 1.0, grid, endpoint=False) + 0.5 / grid] * self.dim
        pts = np.array(list(itertools.product(*axes)))
        windows = [self.group.identity()] + self.override_translates()
        all_pts = np.concatenate([pts + np.array([float(c) for c in w])
                                  for w in windows])
        return all_pts, self.norms_at(all_pts)

    def subdivided(self, times: int):
        """The same model over the ``times``-fold subdivided complex.

        The parsed expressions, Jacobians, index determinants and compiled
        evaluators depend only on the components, so the copy shares them;
        only the zero records, which name host cells, start afresh.
        """
        out = copy.copy(self)
        ZeroTable.__init__(out)
        out.complex = barycentric_subdivide(self.complex, times).complex
        out.group = out.complex.group
        return out

    def classical_lefschetz_number(self):
        """``(Lefschetz number on the quotient, how it was found)``: the
        Euler characteristic of the quotient."""
        return euler_characteristic(self.complex), (
            "displacement form is homotopic to the identity on the quotient; "
            "its Lefschetz number is the Euler characteristic")


def _lockstep_newton(f, jf, starts):
    """Damped Newton from every start at once; returns, in start order, the
    final iterates of the starts that converged below residual 1e-13."""
    import numpy as np
    x = starts.copy()
    fx = f(x)
    norm = np.abs(fx).max(axis=1)
    open_ = ~(norm < 1e-13)
    for _ in range(60):
        active = np.flatnonzero(open_)
        if not len(active):
            break
        step, solved = _stacked_solve(jf(x[active]), fx[active])
        open_[active[~solved]] = False
        active, step = active[solved], step[solved]
        lam = np.ones(len(active))
        searching = np.ones(len(active), dtype=bool)
        for _ in range(20):
            s = np.flatnonzero(searching)
            if not len(s):
                break
            xn = x[active[s]] - lam[s, None] * step[s]
            fn = f(xn)
            nn = np.abs(fn).max(axis=1)
            better = nn < norm[active[s]]
            won = active[s[better]]
            x[won], fx[won], norm[won] = xn[better], fn[better], nn[better]
            searching[s[better]] = False
            lam[s[~better]] /= 2
        open_[active[searching]] = False          # no descent: give up
        open_[active] &= ~(norm[active] < 1e-13)   # converged: stop
    return x[~(norm >= 1e-13)]


def _stacked_solve(matrices, rhs):
    """Solve each system; singular systems are reported, not raised."""
    import numpy as np
    try:
        return np.linalg.solve(matrices, rhs[..., None])[..., 0], \
            np.ones(len(rhs), dtype=bool)
    except np.linalg.LinAlgError:
        out = np.zeros_like(rhs)
        ok = np.ones(len(rhs), dtype=bool)
        for i, (m, b) in enumerate(zip(matrices, rhs)):
            try:
                out[i] = np.linalg.solve(m, b)
            except np.linalg.LinAlgError:
                ok[i] = False
        return out, ok


def _dedup_on_torus(points, limit: int, tol: float = 1e-7):
    """First representatives, in order, of points within ``tol`` on the torus.

    Returns None once more than ``limit`` representatives appear.
    """
    import numpy as np
    unique = []
    rest = points
    while len(rest):
        z = rest[0]
        unique.append(tuple(z))
        if len(unique) > limit:
            return None
        d = np.abs(rest - z)
        rest = rest[np.minimum(d, 1 - d).max(axis=1) >= tol]
    return unique


# ---------------------------------------------------------------------------
# Affine-cell models


class AffineCellModel(ZeroTable):
    """A model given on each source top cell by exact vertex positions and
    vertex vectors, through ``affine_cell``; its zeros are exact."""

    def _solve_window(self, window, plain):
        """Exact zeros of the affine pieces on the source cells, in cell order.

        Only the identity window is solved here: an affine-cell model has no
        overrides, so :meth:`ZeroTable.window_records` moves the identity's
        records to every other window.  On each source top cell the zero is
        the point with barycentric coordinates l solving sum(l_j W_j) = 0,
        sum(l) = 1, for the cell's vertex vectors W_j.  Its index is read
        from that cell's chart.
        """
        src = self.source
        n = src.dimension
        _, zero, not_isolated = _WORDING[self.index_matrix_sign]
        records = []
        for idx in src.cells(n):
            s, positions, vectors = self.affine_cell(idx)
            d = len(positions[0])
            matrix = [[w[i] for w in vectors] for i in range(d)] + [[Fraction(1)] * (n + 1)]
            status, lam = solve_linear(matrix, [Fraction(0)] * d + [Fraction(1)])
            if status == "none":
                continue
            if status == "infinite":
                raise TamenessError(not_isolated.format(s))
            if any(c < 0 for c in lam):
                continue
            if any(c == 0 for c in lam):
                # a subdivision's (n-1)-skeleton contains the old one, so a
                # fixed barycentre of a subdivided automorphism stays a vertex
                raise InputError(
                    f"{zero} lies on a simplex face: strong tameness is violated; "
                    f"perturb the vertex data to move it into a cell interior "
                    f"(subdividing keeps a point of a face on a face)")
            record = resolve_record(self.complex, tuple(
                sum(l * p[i] for l, p in zip(lam, positions)) for i in range(d)), True)
            if not record.on_face and record.host is not None:
                record.index = _chart_index(self.index_matrix_sign, positions, vectors)
            records.append(record)
        return records

    def sample_norms(self, grid: int):
        """Float positions and norms at the interior points of a barycentric
        grid on each source top cell.

        Each norm is taken from the exact vector converted to float once.
        The grid point with integer weights ``(N - sum(c), c...)`` over
        ``N`` is computed on integer numerators: a cell's positions and
        vectors are put over one denominator ``D``, so a coordinate is
        ``int / (D*N)`` and a squared norm ``int / (D*N)**2``.  Integer true
        division is correctly rounded, as ``float(Fraction)`` is, so every
        float equals the one of the exact rational.
        """
        import numpy as np
        src = self.source
        n = src.dimension
        pts, norms = [], []
        per_cell = max(3, int(round(grid / max(1.0, src.count(n) ** 0.5))))
        weights = [(per_cell - sum(combo),) + combo
                   for combo in itertools.product(range(1, per_cell), repeat=n)
                   if sum(combo) < per_cell]
        for idx in src.cells(n):
            _, positions, vectors = self.affine_cell(idx)
            den = math.lcm(*(c.denominator for row in (*positions, *vectors) for c in row))
            # one column of numerators over den per axis
            pos_cols, vec_cols = ([[c.numerator * (den // c.denominator) for c in col]
                                   for col in zip(*rows)] for rows in (positions, vectors))
            scale = den * per_cell
            for w in weights:
                pts.append([sum(map(operator.mul, w, col)) / scale for col in pos_cols])
                norms.append(math.sqrt(sum(sum(map(operator.mul, w, col)) ** 2
                                           for col in vec_cols) / scale ** 2))
        return np.array(pts), np.array(norms)


def _chart_index(sign, positions, vectors) -> int:
    """Index of the unique zero of one affine piece, from its cell's chart:
    with ``c_j`` the chart coordinates of the vertex vectors, the sign of
    det(sign * M) for the columns ``M_j = c_j - c_0``.  One reduction of
    ``[edge vectors | vertex vectors]`` gives every ``c_j``."""
    n = len(positions) - 1
    rows = [[p[i] - positions[0][i] for p in positions[1:]] + [w[i] for w in vectors]
            for i in range(len(positions[0]))]
    reduced, pivots, _ = eliminate(rows, n)
    if len(pivots) < n or any(any(row[n:]) for row in reduced[n:]):
        raise InternalError("a vertex vector of the host cell leaves its "
                            "plane at an interior zero")
    d_val = det([[sign * (reduced[i][n + j + 1] - reduced[i][n]) for j in range(n)]
                 for i in range(n)])
    if d_val == 0:
        raise InternalError("degenerate chart at a unique interior zero")
    return 1 if d_val > 0 else -1


class SimplicialMapModel(AffineCellModel):
    """Simplicial map from an iterated subdivision of the quotient into it.

    The keys of ``vertex_images`` and ``overrides`` are source vertices,
    those of the subdivision: names, ids, or ids as decimal strings.
    """

    variant = "simplicial"
    index_matrix_sign = -1

    def __init__(self, complex: QuotientComplex, subdivision: int,
                 vertex_images: dict, overrides=None):
        super().__init__()
        if complex.coordinates is None:
            raise InputError("simplicial models need a realized complex")
        if isinstance(complex.group, FiniteGroup):
            if complex.group.order != 1:
                raise InputError("finite covers are realized for the trivial "
                                 "deck only")
        elif not isinstance(complex.group, FreeAbelianGroup):
            raise InputError("simplicial models need a Euclidean or trivial cover")
        self.complex = complex
        self.group = complex.group
        self.subdivision = int(subdivision)
        if self.subdivision == 0:
            self.source = complex
            self.chain_maps = None
        else:
            sub = barycentric_subdivide(complex, self.subdivision)
            self.source = sub.complex
            self.chain_maps = sub.chain_map
        ident = self.group.identity()
        source_id = vertex_id_reader(self.source)

        def source_vertex(v):
            try:
                return source_id(v)
            except (KeyError, ValueError, TypeError):
                raise InputError(f"{v!r} names no vertex of the source "
                                 f"(subdivision {self.subdivision})") from None

        self.vertex_images = {}
        for v, img in vertex_images.items():
            # images are either a bare target vertex id or an explicit
            # (deck element, target vertex id) pair
            if isinstance(img, tuple):
                deck, w = img
            else:
                deck, w = ident, img
            self.vertex_images[source_vertex(v)] = (deck, int(w))
        if set(self.vertex_images) != set(range(self.source.count(0))):
            raise InputError("vertex images must cover exactly the source vertices")
        self.perturbed = bool(overrides)
        if overrides:
            if not (isinstance(self.group, FiniteGroup) and self.group.order == 1):
                raise InputError("simplicial overrides are supported on "
                                 "trivial-deck covers; use analytic overrides "
                                 "for periodic perturbations")
            for v, img in overrides.items():
                self.vertex_images[source_vertex(v)] = (ident, int(img))
        self._check_simplicial()

    # overrides are refused unless the deck is trivial, and every map of a
    # trivial-deck cover commutes with the (trivial) deck
    equivariant = True

    def _check_simplicial(self):
        q = self.complex
        for k in range(self.source.dimension + 1):
            for idx in self.source.cells(k):
                image = sorted({self.vertex_images[v][1]
                                for v in self.source.simplex(k, idx)})
                try:
                    q.index_of(len(image) - 1, tuple(image))
                except InputError:
                    raise InputError(
                        f"map is not simplicial: image of source cell "
                        f"{self.source.simplex(k, idx)} spans no simplex")

    def affine_cell(self, idx: int):
        """Vertex ids, exact positions S_j and displacements T_j - S_j of
        the source top cell ``idx`` lifted at the identity.

        Each image T_j is lifted along the cell's edge labels, so the
        images of one cell lie in one lift of the target cell.
        """
        src = self.source
        s = src.simplex(src.dimension, idx)
        positions = src.realize(src.dimension, idx)
        vectors = []
        for v, p in zip(s, positions):
            shift = src.group.identity() if v == s[0] else src.edge_label(s[0], v)
            deck_shift, w = self.vertex_images[v]
            g = self.group.multiply(shift, deck_shift)
            image = (Fraction(c) + t for c, t in
                     zip(self.complex.coordinates[w], self.complex.translation_vector(g)))
            vectors.append(tuple(t - c for t, c in zip(image, p)))
        return s, positions, vectors

    def quotient_chain_map(self):
        """Chain-image callable on the quotient for the classical trace."""
        model = self

        class _Composite:
            def chain_image(self, k, idx):
                src = model.source
                terms = model.chain_maps[k][idx] if model.chain_maps else [(idx, 1)]
                out: dict = {}
                for sidx, c in terms:
                    s = src.simplex(k, sidx)
                    image = [model.vertex_images[v][1] for v in s]
                    if len(set(image)) != len(image):
                        continue  # degenerate image carries no chain
                    tgt = model.complex.index_of(k, tuple(sorted(image)))
                    out[tgt] = out.get(tgt, 0) + c * permutation_sign(image)
                return [(t, c) for t, c in sorted(out.items()) if c]

        return _Composite()

    def classical_lefschetz_number(self):
        """``(Lefschetz number on the quotient, how it was found)``: the
        Hopf trace of the chain map."""
        return lefschetz_number_quotient(self.complex, self.quotient_chain_map()), (
            "Hopf trace: alternating trace of the chain map via the "
            "subdivision chain equivalence")

    def subdivided(self, times: int):
        """The induced automorphism on the ``times``-fold subdivided complex.

        The barycenter of a cell maps to the barycenter of the image cell,
        one subdivision at a time; only level-0 automorphisms push forward
        this way.
        """
        model = self
        for _ in range(times):
            if model.subdivision != 0 or model.perturbed:
                raise InputError("only level-0 automorphisms push to the subdivision")
            sub = barycentric_subdivide(model.complex, 1)
            q = model.complex
            images = {}
            for k in range(q.dimension + 1):
                for idx in q.cells(k):
                    s = q.simplex(k, idx)
                    image = tuple(sorted(model.vertex_images[v][1] for v in s))
                    if len(set(image)) != len(s):
                        raise InputError("not an automorphism: a cell image degenerates")
                    images[sub.cell_vertex[k][idx]] = sub.cell_vertex[k][q.index_of(k, image)]
            model = SimplicialMapModel(sub.complex, 0, images)
        return model


# ---------------------------------------------------------------------------
# Host cells


def locate_host_cells(q: QuotientComplex, position, exact: bool):
    """Cover top cells containing an exact Euclidean point.

    Returns ``(deck, top index, 'interior'|'boundary', barycentric
    coordinates)`` tuples.  Each top cell is tried at its candidate
    translates, and each candidate is one exact matrix-vector product with
    the cell's rows of :func:`_host_table`.
    """
    if not exact:
        return []
    pos = [Fraction(c) for c in position]
    group = q.group
    n = q.dimension
    out = []
    for idx, rows, lo, hi in _host_table(q):
        # a finite deck leaves every cell in place; over Z^n the candidates
        # are the translates g whose box lo + g .. hi + g holds the point
        if isinstance(group, FiniteGroup):
            candidates = [(group.identity(), pos + [1])]
        else:
            candidates = ((g, [p - t for p, t in zip(pos, g)] + [1])
                          for g in itertools.product(*(
                              range(math.ceil(p - h), math.floor(p - l) + 1)
                              for p, l, h in zip(pos, lo, hi))))
        for g, shifted in candidates:
            lam = [sum(a * b for a, b in zip(row, shifted)) for row in rows]
            if any(lam[n + 1:]) or any(c < 0 for c in lam[:n + 1]):
                continue
            lam = lam[:n + 1]
            out.append((g, idx, "boundary" if 0 in lam else "interior", lam))
    return out


_HOST_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _host_table(q: QuotientComplex):
    """Per top cell: (index, rows, box low corner, box high corner), built
    once per complex.  ``rows`` is E from reducing ``[A | I]``, with A the
    cell's vertices as columns over a row of ones: for a point p,
    ``E [p; 1]`` holds the n + 1 barycentric coordinates, then residuals
    that all vanish exactly when p lies in the cell's affine hull.  A
    degenerate top cell is refused."""
    if q not in _HOST_TABLES:
        n = q.dimension
        table = []
        for idx in q.cells(n):
            verts = q.realize(n, idx)
            d = len(verts[0])
            a = [[v[i] for v in verts] for i in range(d)] + [[1] * (n + 1)]
            reduced, pivots, _ = eliminate(
                [row + [int(i == j) for j in range(d + 1)] for i, row in enumerate(a)],
                n + 1)
            if len(pivots) <= n:
                raise InputError(
                    f"top cell ({', '.join(q.vertices[v] for v in q.simplex(n, idx))}) "
                    f"is degenerate: its realized vertices are affinely dependent")
            table.append((idx, [row[n + 1:] for row in reduced],
                          [min(v[i] for v in verts) for i in range(d)],
                          [max(v[i] for v in verts) for i in range(d)]))
        _HOST_TABLES[q] = table
    return _HOST_TABLES[q]


def resolve_record(q: QuotientComplex, position, exact: bool) -> FixedPointRecord:
    hosts = locate_host_cells(q, position, exact)
    interior = [h for h in hosts if h[2] == "interior"]
    if len(interior) == 1:
        g, idx, _, lam = interior[0]
        depth2 = simplex_boundary_squared_distance(
            position, q.realize(q.dimension, idx, g), lam)
        return FixedPointRecord(position=position, exact=exact, host=(g, idx),
                                on_face=False, isolation=sqrt_lower_bound(depth2))
    if hosts:
        g, idx, *_ = min(hosts, key=lambda h: (q.group.sort_key(h[0]), h[1]))
        return FixedPointRecord(position=position, exact=exact, host=(g, idx),
                                on_face=True, isolation=None)
    return FixedPointRecord(position=position, exact=exact, host=None,
                            on_face=True, isolation=None)


def _translate_record(q: QuotientComplex, record: FixedPointRecord, g):
    """The record of a zero moved by the lattice translation g.

    An interior host moves with the point and keeps its isolation radius
    and index; other records are resolved afresh (the tie-break of an
    on-face host is not translation-invariant).
    """
    kind = Fraction if record.exact else float
    position = tuple(kind(c) + kind(t) for c, t in zip(record.position, g))
    if record.on_face or record.host is None:
        return resolve_record(q, position, record.exact)
    h, idx = record.host
    return replace(record, position=position, host=(q.group.multiply(h, g), idx))


# ---------------------------------------------------------------------------
# Zeros: the shared stage and the map pipeline's entry point


def solve_zeros(model, radius: int = 0):
    """Zero records of a map's displacement or of a field, indices attached,
    over all translates with deck coordinate in ball(radius); see
    :class:`ZeroTable`."""
    group = model.group
    return [r for g in sorted(group.ball(radius), key=group.sort_key)
            for r in model.window_records(g)]


def find_fixed_points(model, radius: int = 0):
    """Fixed points over all translates with deck coordinate in ball(radius),
    indices attached; see :func:`solve_zeros`."""
    return solve_zeros(model, radius)


# ---------------------------------------------------------------------------
# Tameness


def _cover(model):
    """The zeros a tameness check certifies, and the zeros around them.

    Returns ``(records, cover)``: the records of the identity and override
    windows, and ``cover``, which lists those records first and then the
    records of every neighbouring window, one generator step of -1, 0 or 1
    each away (the unit box over Z^n; a trivial deck has no neighbours).
    Every window is read through :meth:`ZeroTable.window_records`: an
    unoverridden window moves the identity's records, and an override
    window is solved with its own data, so its zeros are never paired with
    the unoverridden zeros it replaces.
    """
    group = model.group
    owned = {group.identity()} | set(model.override_translates())
    box = [group.identity()]
    for g in group.generators():
        box = [group.multiply(b, s) for b in box
               for s in (group.inverse(g), group.identity(), g)]
    records, others = [], []
    for w in sorted({group.multiply(o, b) for o in owned for b in box}):
        (records if w in owned else others).extend(model.window_records(w))
    return records, records + others


def _round_down(x: float) -> Fraction:
    scale = 1 << 40
    return Fraction(max(0, math.floor(x * scale)), scale)


def check_tameness(model, grid: int = TAMENESS_GRID) -> TamenessReport:
    """Verify isolation, displacement or field norm gap and host containment.

    delta is the largest certified radius: half the minimum distance from
    a zero to any other zero of the cover (see :func:`_cover`), capped by
    every point's exact distance to its host-simplex boundary.  epsilon is
    the minimum norm the model samples (its ``sample_norms``) outside the
    delta-balls of every zero of the cover, rounded down to a rational;
    the grid refines once when the minimum is suspiciously small.
    Sampling is a documented heuristic; the zero set itself is exact
    wherever the model permits.
    """
    import numpy as np
    try:
        # solves the unoverridden windows around an overridden identity
        # too, so a failed search shows up here
        records, cover = _cover(model)
    except TamenessError as e:
        return TamenessReport(delta=None, epsilon=None, verdict="not tame",
                              witnesses=[str(e)])
    zero_set = np.array([[float(c) for c in r.position] for r in cover])
    if not records:
        _, disp = model.sample_norms(grid)
        eps = _round_down(float(disp.min())) if len(disp) else Fraction(0)
        return TamenessReport(delta=None, epsilon=eps, verdict="strongly tame",
                              strongly_fixed_point_free=True)

    witnesses = []
    hosted = all(r.host is not None and not r.on_face and r.exact for r in records)
    if not hosted:
        witnesses.append("a fixed point lies on a simplex face or resists "
                         "exact containment")

    pair2 = None
    if all(r.exact for r in records):
        # the cover starts with the records, in order
        positions = [r.position for r in cover if r.exact]
        pair2 = min((squared_distance_point_point(p, positions[j])
                     for i, p in enumerate(positions[:len(records)])
                     for j in range(len(positions)) if j != i), default=None)
    if pair2 is not None and pair2 == 0:
        return TamenessReport(delta=None, epsilon=None, verdict="not tame",
                              witnesses=["coincident fixed points"])

    delta = None
    if pair2 is not None:
        delta = sqrt_lower_bound(pair2) / 2
    if hosted:
        for r in records:
            delta = r.isolation if delta is None else min(delta, r.isolation)
    if delta is None or delta <= 0:
        return TamenessReport(delta=None, epsilon=None, verdict="not tame",
                              witnesses=witnesses + ["no positive isolation radius"])

    eps_float = None
    for attempt in (1, 2):
        pts, disp = model.sample_norms(grid * attempt)
        if len(zero_set):
            diff = pts[:, None, :] - zero_set[None, :, :]
            dist = np.sqrt((diff ** 2).sum(axis=2)).min(axis=1)
            keep = dist > float(delta)
        else:
            keep = np.ones(len(pts), dtype=bool)
        outside = disp[keep]
        if len(outside) == 0:
            return TamenessReport(delta=delta, epsilon=None, verdict="not tame",
                                  witnesses=["delta-balls swallow the sample grid"])
        eps_float = float(outside.min())
        bound_ref = float(getattr(model, "bound", 1)) or 1.0
        if eps_float > 0.1 * bound_ref:
            break
    if eps_float <= 1e-9:
        return TamenessReport(delta=delta, epsilon=Fraction(0), verdict="not tame",
                              witnesses=["sampled displacement vanishes outside "
                                         "the delta-balls"])
    verdict = "strongly tame" if hosted else "tame"
    return TamenessReport(delta=delta, epsilon=_round_down(eps_float),
                          verdict=verdict, witnesses=witnesses)


def tameness_check(model, grid: int = TAMENESS_GRID) -> TamenessReport:
    """Verify isolation, displacement gap and host containment of a map;
    see :func:`check_tameness`."""
    return check_tameness(model, grid)


# ---------------------------------------------------------------------------
# The index class


def assemble_class(model, fd=None, report: TamenessReport | None = None) -> ClassFunction:
    """Per-coset index sums of a map or field as a bounded class function.

    Requires strong tameness; ``report`` is the verdict that gates the
    class (checked afresh when omitted).  The constant part is the index
    total of the identity window's unoverridden zeros, and each override
    window contributes, per coset, its zeros' indices minus those of the
    unoverridden zeros it replaces.  Deck coordinates of zeros resolve to
    cosets through the fundamental domain, boundary ties broken toward the
    least coset (interior points never tie).  Every model's deck is Z^n or
    trivial, and on the trivial deck the constant is the whole class.
    """
    if report is None:
        report = check_tameness(model)
    model_word, zero, _ = _WORDING[model.index_matrix_sign]
    if not report.strongly_tame:
        raise TamenessError(f"index class refused: the {model_word} is not "
                            f"strongly tame (verdict: {report.verdict}; "
                            f"witnesses: {report.witnesses})")
    group = model.group
    if fd is None:
        fd = PeriodicComplex(model.complex).fundamental_domain()
    if report.strongly_fixed_point_free:
        return ClassFunction(group, 0, {})
    n = model.complex.dimension
    finite: dict = {}

    def indexed(records):
        if any(r.index is None for r in records):
            raise TamenessError(f"{zero} lacks a strong-tameness witness")
        return records

    def add(records, sign=1):
        for r in indexed(records):
            c = fd.coset_of_cell(r.host[0], n, r.host[1])
            finite[c] = finite.get(c, 0) + sign * r.index

    constant = sum(r.index for r in indexed(
        model.window_records(group.identity(), plain=True)))
    for w in model.override_translates():
        add(model.window_records(w, plain=True), -1)
        add(model.window_records(w))
    return ClassFunction(group, constant, finite)


def lefschetz_class(model, fd=None, report: TamenessReport | None = None) -> ClassFunction:
    """Per-coset fixed-point index sums as a bounded class function;
    see :func:`assemble_class`."""
    return assemble_class(model, fd, report)


def equivariant_oracle_check(model, report: TamenessReport | None = None,
                             cls: ClassFunction | None = None) -> dict:
    """Compare the class constant with the classical alternating trace.

    Only equivariant models descend to the quotient; each model computes
    its classical Lefschetz number there (``classical_lefschetz_number``).
    An equivariant class is constant, so the class constant is read as its
    value at the identity, which also holds on the trivial deck, where
    :class:`ClassFunction` folds the constant into the finite part.
    ``cls`` is the model's Lefschetz class when the caller already has it.
    """
    if not model.equivariant:
        raise InputError("oracle comparison needs an equivariant map")
    if cls is None:
        cls = lefschetz_class(model, report=report)
    constant = cls.value(model.group.identity())
    oracle, method = model.classical_lefschetz_number()
    return {
        "class_constant": int(constant),
        "classical_lefschetz_number": int(oracle),
        "equal": int(constant) == int(oracle),
        "method": method,
    }


# ---------------------------------------------------------------------------
# Documents


def document_value(doc, key, parse, *default):
    """``parse`` applied to ``doc[key]``, or to ``default`` when one is given
    and the key is absent.  An error while reading the value becomes an
    input error that names the key."""
    try:
        return parse(doc.get(key, default[0]) if default else doc[key])
    except (KeyError, ValueError, TypeError, AttributeError) as e:
        raise InputError(f"model document: cannot read {key!r} "
                         f"({type(e).__name__}: {e})") from None


def vertex_id_reader(q: QuotientComplex):
    """Vertex id of a vertex name, an int id or a decimal string id (JSON
    object keys are strings); a name wins over an id."""
    vid = {name: i for i, name in enumerate(q.vertices)}
    return lambda x: vid[x] if isinstance(x, str) and (x in vid or not x.isdecimal()) \
        else int(x)


def analytic_model_from_document(model_class, q: QuotientComplex, doc: dict):
    """The analytic map or field model of a document.

    Only reading the document is guarded by :func:`document_value`; the
    model's own checks run unwrapped.
    """
    def override(ov):
        return {"translate": document_value(ov, "translate", q.group.parse_word),
                "components": document_value(ov, "components", list)}

    return model_class(
        q, document_value(doc, "components", list),
        document_value(doc, "bound", lambda b: Fraction(str(b))),
        overrides=document_value(doc, "overrides",
                                 lambda ovs: [override(ov) for ov in ovs], []),
        grid=document_value(doc, "grid", int, NEWTON_GRID))


def map_model_from_document(doc: dict, complex_resolver=None):
    """Build a map model from its JSON document.

    The quotient is given inline under "complex" or referenced by fixture
    name under "fixture".
    """
    q = resolve_complex_reference(doc, complex_resolver)
    variant = doc.get("variant")
    if variant == "analytic":
        return analytic_model_from_document(AnalyticModel, q, doc)
    if variant == "simplicial":
        as_vid = vertex_id_reader(q)

        def image(v):
            if isinstance(v, (list, tuple)):
                return q.group.parse_word(v[0]), as_vid(v[1])
            return as_vid(v)

        # keys name vertices of the subdivided source, which the model
        # reads; values name vertices of the target q
        images = document_value(doc, "vertex_images", lambda vi: {
            k: image(v) for k, v in vi.items()})
        overrides = document_value(doc, "overrides", lambda ov: {
            k: as_vid(v) for k, v in (ov or {}).items()}, None)
        subdivision = check_subdivision_count(
            document_value(doc, "subdivision", int, 0), "model document: 'subdivision'")
        return SimplicialMapModel(q, subdivision, images, overrides=overrides or None)
    raise InputError(f"unknown map variant {variant!r}")


def resolve_complex_reference(doc, complex_resolver=None):
    """The document's quotient; an inline one must be a valid datum."""
    if "complex" in doc:
        return PeriodicComplex(QuotientComplex.from_document(doc["complex"])).quotient
    if "fixture" in doc:
        if complex_resolver is None:
            from .fixtures import fixture_complex
            complex_resolver = fixture_complex
        return complex_resolver(doc["fixture"])
    raise InputError("document needs an inline 'complex' or a 'fixture' name")
