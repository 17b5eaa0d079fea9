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
per (component set, window) pair.  Every record is exact, interior to one
host top cell and indexed from the moment it is built; any other zero is
refused where it is found.  An analytic model's component
sets are :class:`ComponentSet` objects, its base list and one per
override, each parsed, checked and compiled once.  A window that uses the
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
  small-denominator rationals and verified symbolically; a zero the exact
  test does not confirm leaves the model not tame.  Completeness at grid
  resolution is a documented heuristic, exact afterwards.  An override
  replaces the displacement on a single period cell ``w + [0,1)^n`` of the
  cover (finitely many translates, each overridden at most once, with one
  component per dimension); authors must keep the seam continuous.

* Affine-cell (complexes realized with exact rational coordinates): a
  simplicial map sends a barycentric subdivision of the quotient
  simplicially into the quotient; a PL field (``vectorfield``) interpolates
  one vector per vertex.  Both expose, through ``cells``, each source
  top cell's vertex positions and vertex vectors (a map's displacements
  ``T_j - S_j``, a field's projected vertex vectors) as integers over one
  denominator.  One code path solves the affine zero equation exactly per
  cell, rejects zeros on the cell's faces, takes each index from the exact
  chart determinant of the cell the zero was solved in and samples norms
  on a barycentric grid.  Non-equivariant perturbations of simplicial maps are
  supported on trivial-deck covers, where they amount to replacing vertex
  images.

Host cells are found from a per-complex table holding, per top cell, one
exact reduction of its barycentric system, in integers over one
denominator, and its bounding box, in integers over the complex's one
denominator.  A zero on a simplex face, in no top cell or inside several
is refused as an input error.  A zero's isolation radius is capped by its
exact depth in the host cell, read off the cell's facet heights, which the
table computes once per cell.

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
import functools
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
from .errors import InputError, InternalError, ResourceError, TamenessError
from .geometry import (det, numerators, reduce_integers, simplex_heights2,
                       sqrt_lower_bound)
from .groups import FiniteGroup, FreeAbelianGroup, integer_value, rational_value

NEWTON_GRID = 32
TAMENESS_GRID = 32  # tameness samples per axis: the default and the floor
# the most points one float grid may hold: Newton starts, or tameness samples
# per window after the refinement; checked before the grid is built
GRID_POINTS = 1 << 20
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
    """An isolated fixed point (or field zero) with its certificates: an
    exact position interior to one host top cell, its isolation radius and
    its index."""

    position: tuple            # exact rationals
    host: tuple                # (deck element, top simplex index)
    isolation: Fraction
    index: int | None = None   # set by the model that solved the zero
    coset: object = None

    def to_document(self, group):
        return {
            "position": [str(c) for c in self.position],
            "exact": True,
            "host": {"deck": group.word_of[self.host[0]], "cell": self.host[1]},
            "on_face": False,
            "index": self.index,
            "coset": None if self.coset is None else group.word_of[self.coset],
            "isolation": str(self.isolation),
        }


@dataclass
class TamenessReport:
    delta: Fraction | None
    epsilon: Fraction | None
    verdict: str               # "strongly tame" | "not tame"
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

    A window is a deck element.  ``base`` is the model's unoverridden data
    and ``overrides`` maps a window to the component set that replaces the
    base there: :class:`ComponentSet` objects for analytic models, while an
    affine-cell model has ``base = None`` and no overrides.  A window that
    uses the base gets the identity's records moved by the window; any
    other window is solved by the model's ``_solve_window``.  It hands out
    exact records, each interior to one host top cell and indexed, and
    refuses any other zero where it finds it.  Lookups hand out copies.
    """

    def __init__(self):
        self._records: dict = {}       # (component set, window) -> records
        self.base = None
        self.overrides: dict = {}      # window -> component set

    def component_set(self, window, plain: bool = False):
        """The component set of ``window``: its override, else the base;
        with ``plain=True`` the base whatever the window."""
        return self.base if plain else self.overrides.get(window, self.base)

    def window_records(self, window, plain: bool = False):
        """Records of the zeros in ``window``; with ``plain=True`` the
        unoverridden data is used whatever the window."""
        data = self.component_set(window, plain)
        key = (data, window)
        if key not in self._records:
            ident = self.group.identity()
            if data is self.base and window != ident:
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


def _grid_points(per_axis: int, dim: int, centred: bool):
    """The ``per_axis``^dim grid on [0, 1)^dim in product order: the cell
    corners k/per_axis, or with ``centred=True`` the cell centres."""
    import numpy as np
    axis = np.linspace(0.0, 1.0, per_axis, endpoint=False)
    if centred:
        axis = axis + 0.5 / per_axis
    # "ij" indexing varies the last axis fastest, as itertools.product does
    return np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1).reshape(-1, dim)


class ComponentSet:
    """One component list of an analytic model: the base list or an
    override.

    It parses its expressions, checks that there is one per dimension and
    takes their Jacobian.  The float evaluators, the index determinant
    det(index_matrix_sign * Jacobian) and the programs at rational points
    (the exact-zero test of the components, the certified sign of the
    index determinant) are built once, on first use, and kept here.
    ``owner`` prefixes its refusals (empty for the base list).
    """

    def __init__(self, components, dim: int, index_matrix_sign: int, owner: str = ""):
        from . import exprs
        self.dim = dim
        self.index_matrix_sign = index_matrix_sign
        self.exprs = [exprs.parse_expression(c, dim) for c in components]
        if len(self.exprs) != dim:
            raise InputError(f"{owner}component count must match the dimension")
        self.jacobian = exprs.jacobian(self.exprs, dim)

    @functools.cached_property
    def evaluate(self):
        """Vectorized float evaluation of the components."""
        from . import exprs
        return exprs.lambdify_vector(self.exprs, self.dim)

    @functools.cached_property
    def evaluate_jacobian(self):
        """Stacked float Jacobians of the components."""
        from . import exprs
        return exprs.lambdify_matrix(self.jacobian, self.dim)

    @functools.cached_property
    def index_det(self):
        from . import exprs
        d = exprs.determinant(self.jacobian)
        # det(-J) = (-1)^n det(J)
        return exprs.neg(d) if self.index_matrix_sign < 0 and self.dim % 2 else d

    @functools.cached_property
    def index_sign(self):
        """The programs of :attr:`index_det` that certify its sign."""
        from . import exprs
        return exprs.Programs([self.index_det])

    @functools.cached_property
    def zero_test(self):
        """The programs of the components that test an exact zero."""
        from . import exprs
        return exprs.Programs(self.exprs)

    def norms(self, points):
        """Float norms of the components at float points."""
        import numpy as np
        return np.sqrt((self.evaluate(points) ** 2).sum(axis=1))


class AnalyticModel(ZeroTable):
    """Z^n-periodic closed-form displacement or field on a Euclidean cover.

    ``index_matrix_sign`` distinguishes the two uses: a fixed point of
    ``x + d(x)`` has index sign det(-Dd), a field zero has index
    sign det(Dv).  ``base`` holds the components and ``overrides`` one
    component set per overridden window; a window takes one override.
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
        self.base = ComponentSet(components, self.dim, self.index_matrix_sign)
        self.bound = Fraction(bound)
        self.grid = int(grid)
        if self.grid < 1:
            raise InputError(f"'grid' (Newton starts per axis) must be at least 1, "
                             f"not {self.grid}")
        if self.grid ** self.dim > GRID_POINTS:
            raise ResourceError(f"'grid' {self.grid} asks for {self.grid}^{self.dim} "
                                f"Newton starts, above the budget of {GRID_POINTS} "
                                f"grid points")
        for ov in overrides or []:   # {"translate": deck element, "components": [...]}
            window = ov["translate"]
            owner = f"override at {self.group.format_element(window)!r}: "
            if window in self.overrides:
                raise InputError(f"{owner}the window already has an override")
            self.overrides[window] = ComponentSet(
                ov["components"], self.dim, self.index_matrix_sign, owner)
        self.validate_bound()

    @property
    def equivariant(self) -> bool:
        return not self.overrides

    # read by the zeros_in_window observer of perfbench/spans.py
    @property
    def components(self):
        return self.base.exprs

    def components_for_window(self, window):
        data = self.component_set(window)
        return data.exprs, data.jacobian

    def validate_bound(self) -> None:
        pts = _grid_points(BOUND_SAMPLES, self.dim, centred=False)
        for data in [self.base, *self.overrides.values()]:
            worst = float(data.norms(pts).max())
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
        return self._search_zeros(self.component_set(window, plain), window)

    def _search_zeros(self, data: ComponentSet, window):
        import numpy as np

        from . import exprs
        base = np.array([float(x) for x in window])
        starts = _grid_points(self.grid, self.dim, centred=True) + base
        x = _lockstep_newton(data.evaluate, data.evaluate_jacobian, starts)
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
                if data.zero_test.vanishes(point):
                    out.append((point, True))
                    continue
            out.append((tuple(float(c) + float(w) for c, w in zip(z, window)),
                        False))
        return sorted(out)

    def _solve_window(self, window, plain):
        """Host records of the searched zeros, each indexed.  A zero that the
        exact-zero test does not confirm leaves the model not tame: it
        raises :class:`TamenessError`, naming the zero."""
        zeros = self.zeros_in_window(window, plain)
        for position, exact in zeros:
            if not exact:
                raise TamenessError(
                    f"the {_WORDING[self.index_matrix_sign][1]} near "
                    f"({', '.join(f'{c:.6f}' for c in position)}) is not certified: "
                    f"no small-denominator rational near it passes the exact-zero test")
        records = [resolve_record(self.complex, position) for position, _ in zeros]
        for r in records:
            r.index = self.local_index_at(r.position, window, plain)
        return records

    def local_index_at(self, position, window=None, plain: bool = False) -> int:
        """Index at an exact zero via the certified Jacobian determinant sign."""
        if window is None:
            window = tuple(math.floor(c) for c in position)
        from . import exprs
        sign = exprs.certified_sign(self.component_set(window, plain).index_sign,
                                    tuple(map(Fraction, position)))
        if sign == 0:
            raise InputError("degenerate analytic zero: the Jacobian "
                             "determinant vanishes there, and the index of a "
                             "degenerate zero is not computed")
        return sign

    def sample_norms(self, grid: int):
        """Float positions and norms at the cell centres of a ``grid``^n grid
        on the identity window and on every other override window, each
        window sampled once, with its own component set."""
        import numpy as np
        cell = _grid_points(grid, self.dim, centred=True)
        windows = dict.fromkeys([self.group.identity(), *self.overrides])
        pts = [cell + np.array([float(c) for c in w]) for w in windows]
        return np.concatenate(pts), np.concatenate(
            [self.component_set(w).norms(p) for w, p in zip(windows, pts)])

    def subdivided(self, times: int):
        """The same model over the ``times``-fold subdivided complex.

        The component sets depend only on the components, so the copy
        shares them, with their compiled evaluators and index determinants;
        only the zero records, which name host cells, start afresh.
        """
        out = copy.copy(self)
        out._records = {}
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
    vertex vectors, through ``cells``, as integers over the model's one
    denominator ``den``; its zeros are exact."""

    @functools.cached_property
    def cells(self) -> list:
        """``affine_cell`` of every source top cell, in cell order, unless a
        model sets them; shared by the zero solve and the sampling."""
        src = self.source
        return [self.affine_cell(idx) for idx in src.cells(src.dimension)]

    def _solve_window(self, window, plain):
        """Exact zeros of the affine pieces on the source cells, in cell order.

        Only the identity window is solved here: an affine-cell model has no
        overrides, so :meth:`ZeroTable.window_records` moves the identity's
        records to every other window.  On each source top cell the zero is
        the point with barycentric coordinates l solving sum(l_j W_j) = 0,
        sum(l) = 1, for the cell's vertex vectors W_j, whose numerators give
        l as integers over the last pivot.  Its index is read from that
        cell's chart.
        """
        n = self.source.dimension
        _, zero, not_isolated = _WORDING[self.index_matrix_sign]
        records = []
        for s, positions, vectors in self.cells:
            m = [[*col, 0] for col in zip(*vectors)] + [[1] * (n + 2)]
            pivots, _, p = reduce_integers(m, n + 1)
            if any(row[-1] for row in m[len(pivots):]):
                continue
            if len(pivots) <= n:
                raise TamenessError(not_isolated.format(s))
            lam = [row[-1] for row in m[:n + 1]]  # l times p
            if any(c * p < 0 for c in lam):
                continue
            if 0 in lam:
                # a subdivision's (n-1)-skeleton contains the old one, so a
                # fixed barycentre of a subdivided automorphism stays a vertex
                raise InputError(
                    f"{zero} lies on a simplex face: strong tameness is violated; "
                    f"perturb the vertex data to move it into a cell interior "
                    f"(subdividing keeps a point of a face on a face)")
            record = resolve_record(self.complex, tuple(
                Fraction(sum(map(operator.mul, lam, col)), p * self.den)
                for col in zip(*positions)))
            record.index = _chart_index(self.index_matrix_sign, positions, vectors)
            records.append(record)
        return records

    def sample_norms(self, grid: int):
        """Float positions and norms at the interior points of a barycentric
        grid on each source top cell.

        With integer weights ``(N - sum(c), c...)`` over ``N``, a
        coordinate is ``int / (den*N)`` and a squared norm
        ``int / (den*N)**2``.  Integer true division is correctly rounded,
        as ``float(Fraction)`` is, so every float equals the one of the
        exact rational; each norm is taken from that float.
        """
        import numpy as np
        src = self.source
        n = src.dimension
        pts, norms = [], []
        per_cell = max(3, int(round(grid / max(1.0, src.count(n) ** 0.5))))
        weights = [(per_cell - sum(combo),) + combo
                   for combo in itertools.product(range(1, per_cell), repeat=n)
                   if sum(combo) < per_cell]
        scale = self.den * per_cell
        for _, positions, vectors in self.cells:
            pos_cols, vec_cols = list(zip(*positions)), list(zip(*vectors))
            for w in weights:
                pts.append([sum(map(operator.mul, w, col)) / scale for col in pos_cols])
                norms.append(math.sqrt(sum(sum(map(operator.mul, w, col)) ** 2
                                           for col in vec_cols) / scale ** 2))
        return np.array(pts), np.array(norms)


def _chart_index(sign, positions, vectors) -> int:
    """Index of the unique zero of one affine piece, from its cell's chart:
    with ``c_j`` the chart coordinates of the vertex vectors, the sign of
    det(sign * M) for the columns ``M_j = c_j - c_0``.  One reduction of
    ``[edge vectors | vertex vectors]`` gives every ``c_j`` times P, its
    last pivot."""
    n = len(positions) - 1
    m = [[p[i] - positions[0][i] for p in positions[1:]] + [w[i] for w in vectors]
         for i in range(len(positions[0]))]
    pivots, _, p = reduce_integers(m, n)
    if len(pivots) < n or any(any(row[n:]) for row in m[n:]):
        raise InternalError("a vertex vector of the host cell leaves its "
                            "plane at an interior zero")
    d_val = det([[sign * (m[i][n + j + 1] - m[i][n]) for j in range(n)]
                 for i in range(n)]) * p ** n
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

    @property
    def den(self) -> int:
        """The denominator of the source's lattice, which every vertex of the
        target shares: a subdivision keeps the vertices of its complex."""
        return self.source.lattice[0]

    @functools.cached_property
    def _displacements(self) -> dict:
        """T_v - S_v of every source vertex v over ``den``: its image, lifted
        at its deck element, minus its point.  A cell lifted along its edge
        labels moves both by the same label, so every cell reads these."""
        target = self.complex
        scale = self.den // target.lattice[0]
        points = self.source.lattice[1]
        out = {}
        for v, (deck, w) in self.vertex_images.items():
            image = target.lift(0, target.index_of(0, (w,)), deck)[0]
            out[v] = tuple(scale * t - c for t, c in zip(image, points[v]))
        return out

    def affine_cell(self, idx: int):
        """Vertex ids, positions S_j and displacements T_j - S_j of the
        source top cell ``idx`` lifted at the identity, over ``den``."""
        src = self.source
        s = src.simplex(src.dimension, idx)
        return s, src.lift(src.dimension, idx), [self._displacements[v] for v in s]

    def chain_image(self, k: int, idx: int):
        """The map's chain image of the quotient k-cell ``idx``, through the
        subdivision chain map: ``[(target cell, coefficient)]``."""
        src = self.source
        terms = self.chain_maps[k][idx] if self.chain_maps else [(idx, 1)]
        out: dict = {}
        for sidx, c in terms:
            image = [self.vertex_images[v][1] for v in src.simplex(k, sidx)]
            if len(set(image)) != len(image):
                continue  # degenerate image carries no chain
            tgt = self.complex.index_of(k, tuple(sorted(image)))
            out[tgt] = out.get(tgt, 0) + c * permutation_sign(image)
        return [(t, c) for t, c in sorted(out.items()) if c]

    def classical_lefschetz_number(self):
        """``(Lefschetz number on the quotient, how it was found)``: the
        Hopf trace of the chain map."""
        return lefschetz_number_quotient(self.complex, self), (
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


def locate_host_cells(q: QuotientComplex, position):
    """Cover top cells containing an exact Euclidean point.

    Returns ``(deck, top index, 'interior'|'boundary', barycentric
    coordinates)`` tuples.  Each top cell is tried at its candidate
    translates, and each candidate is one integer matrix-vector product
    with the cell's rows of :func:`_host_table`.  The point is put over one
    denominator B, p = A/B.  Over Z^n the candidates are the translates of
    the cell's integer box that hold the point (:func:`_translate_ranges`).
    A candidate's barycentric coordinates are integers over the cell's row
    denominator times B, and only a hit's become Fractions.
    """
    pos = [Fraction(c) for c in position]
    group = q.group
    n = q.dimension
    table = _host_table(q)
    big_b = math.lcm(*(c.denominator for c in pos))
    nums = numerators([pos], big_b)[0]
    finite = isinstance(group, FiniteGroup)
    out = []
    for idx, rows, row_den, lo, hi in table.cells:
        # a finite deck leaves every cell in place
        translates = [group.identity()] if finite else itertools.product(
            *_translate_ranges(nums, big_b, table.den, lo, hi))
        for g in translates:
            shifted = (nums if finite else [a - t * big_b for a, t in zip(nums, g)]) + [big_b]
            lam = [sum(a * b for a, b in zip(row, shifted)) for row in rows]
            if any(lam[n + 1:]) or any(c < 0 for c in lam[:n + 1]):
                continue
            lam = [Fraction(c, row_den * big_b) for c in lam[:n + 1]]
            out.append((g, idx, "boundary" if 0 in lam else "interior", lam))
    return out


def _translate_ranges(nums, big_b: int, den: int, lo, hi) -> list:
    """Per coordinate, the integers t with l <= p - t <= h, for the point
    p = nums / big_b and the box corners l = lo / den, h = hi / den:
    ``range(ceil(p - h), floor(p - l) + 1)``, from two integer floor
    divisions."""
    bd = big_b * den
    return [range(-((h * big_b - a * den) // bd), (a * den - l * big_b) // bd + 1)
            for a, l, h in zip(nums, lo, hi)]


class _HostTable:
    """The host-cell data of one complex.

    ``cells`` holds, per top cell, (index, rows, row denominator, box low
    corner, box high corner).  The rows are E from reducing ``[A | I]``,
    with A the cell's vertices as columns over a row of ones: for a point
    p, ``E [p; 1]`` holds the n + 1 barycentric coordinates, then residuals
    that all vanish exactly when p lies in the cell's affine hull.  They
    are kept as integers over their least common denominator.  ``lifts``
    holds each cell's vertex rows over ``den``, the complex's lattice
    denominator, and so does the box.  A degenerate top cell is refused.
    :meth:`heights2` gives a cell's squared facet heights, computed on the
    first request for that cell.
    """

    def __init__(self, q: QuotientComplex):
        n = q.dimension
        self.den = q.lattice[0]
        self.lifts = [q.lift(n, idx) for idx in q.cells(n)]
        self.cells = []
        self._heights2: dict = {}
        for idx, verts in enumerate(self.lifts):
            d = len(verts[0])
            # [A | I] in integers: the coordinate rows times den, the row of
            # ones as it is, with those scales handed to the reduction
            box = [*zip(*verts)]
            m = [[*row, *(self.den * (i == j) for j in range(d + 1))]
                 for i, row in enumerate(box)] + [[1] * (n + 1) + [0] * d + [1]]
            scales = [self.den] * d + [1]
            pivots, _, p = reduce_integers(m, n + 1, scales)
            if len(pivots) <= n:
                raise InputError(
                    f"top cell ({', '.join(q.vertices[v] for v in q.simplex(n, idx))}) "
                    f"is degenerate: its realized vertices are affinely dependent")
            # E is each pivot row over p and each other row over p times its scale
            rows = [(row[n + 1:], p) for row in m[:n + 1]] + \
                [(row[n + 1:], p * s) for row, s in zip(m[n + 1:], scales[n + 1:])]
            row_den = math.lcm(*(abs(b) // math.gcd(a, b) for row, b in rows for a in row))
            self.cells.append((idx, [[a * row_den // b for a in row] for row, b in rows], row_den,
                               [min(col) for col in box], [max(col) for col in box]))

    def heights2(self, idx: int) -> list:
        """Squared heights of top cell ``idx`` over its facets, in vertex
        order (:func:`geometry.simplex_heights2`), from its rows over den²;
        a translate has the same."""
        if idx not in self._heights2:
            self._heights2[idx] = [h / self.den ** 2 for h in simplex_heights2(self.lifts[idx])]
        return self._heights2[idx]


_HOST_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _host_table(q: QuotientComplex) -> _HostTable:
    """The :class:`_HostTable` of ``q``, built once per complex."""
    if q not in _HOST_TABLES:
        _HOST_TABLES[q] = _HostTable(q)
    return _HOST_TABLES[q]


def resolve_record(q: QuotientComplex, position) -> FixedPointRecord:
    """The record of a zero at the exact point ``position``: its host cell
    and its isolation radius, a lower bound of its depth in that cell.  A
    point with barycentric coordinates λ lies λ_i h_i from the facet
    opposite vertex i, h_i the cell's height there, and the nearest facet's
    foot lies in the cell, so the squared depth is the least λ_i² h_i².

    Strong tameness needs every zero inside one top cell, so a zero on a
    simplex face, in no top cell or inside several is an input error.
    """
    hosts = locate_host_cells(q, position)
    interior = [h for h in hosts if h[2] == "interior"]
    if len(interior) != 1:
        where = (f"inside {len(interior)} top cells" if interior else
                 "on a simplex face" if hosts else "in no top cell")
        raise InputError(f"the zero at ({', '.join(map(str, position))}) lies {where}: "
                         f"strong tameness is violated")
    g, idx, _, lam = interior[0]
    depth2 = min(l * l * h2 for l, h2 in zip(lam, _host_table(q).heights2(idx)))
    return FixedPointRecord(position=position, host=(g, idx),
                            isolation=sqrt_lower_bound(depth2))


def _translate_record(q: QuotientComplex, record: FixedPointRecord, g):
    """The record of a zero moved by the lattice translation g: its host
    moves with it, and it keeps its isolation radius and index."""
    h, idx = record.host
    return replace(record, position=tuple(c + t for c, t in zip(record.position, g)),
                   host=(q.group.multiply(h, g), idx))


# ---------------------------------------------------------------------------
# Zeros: the shared stage and the map pipeline's entry point


def solve_zeros(model, radius: int = 0):
    """Zero records of a map's displacement or of a field, indices attached,
    over all translates with deck coordinate in ball(radius); see
    :class:`ZeroTable`."""
    group = model.group
    return [r for g in sorted(group.ball(radius), key=group.key_of.__getitem__)
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
    owned = {group.identity()} | set(model.overrides)
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


def _closest_pair2(positions, count: int):
    """Least squared distance from one of the first ``count`` exact
    positions to any other position, or None when there is no pair.

    Each pair is measured once, from its earlier position.  Every
    coordinate is put over one common denominator D, so each squared
    distance is an integer over D² and only the least one becomes a
    Fraction.
    """
    den = math.lcm(*(c.denominator for p in positions for c in p))
    scaled = numerators(positions, den)
    best = min((sum((a - b) ** 2 for a, b in zip(p, q))
                for i, p in enumerate(scaled[:count]) for q in scaled[i + 1:]),
               default=None)
    return None if best is None else Fraction(best, den * den)


def _outside_balls(pts, centres, radius: float):
    """Mask of the rows of ``pts`` farther than ``radius`` from every row of
    ``centres``, each distance computed as ``sqrt(((p - z) ** 2).sum())``.

    The points are sorted once by their first coordinate, and each centre
    measures only the slab of points within ``2 * radius`` of it in that
    coordinate: a point outside the slab is more than ``2 * radius`` away
    in one coordinate, so its computed distance exceeds ``radius`` too.
    The mask is the one of measuring every point against every centre.
    """
    import numpy as np
    order = np.argsort(pts[:, 0])
    ordered = pts[order]
    first = ordered[:, 0]
    inside = np.zeros(len(pts), dtype=bool)
    reach = 2 * radius
    for z in centres:
        lo, hi = np.searchsorted(first, (z[0] - reach, z[0] + reach))
        inside[lo:hi] |= np.sqrt(((ordered[lo:hi] - z) ** 2).sum(axis=1)) <= radius
    outside = np.empty_like(inside)
    outside[order] = ~inside
    return outside


def check_tameness(model, grid: int = TAMENESS_GRID) -> TamenessReport:
    """Verify isolation and the displacement or field norm gap.

    Every record of the cover (see :func:`_cover`) is exact and interior to
    one host top cell: the zero table refuses any other zero, an
    uncertified one with a :class:`TamenessError` that this check reports
    as "not tame".  delta is the largest certified radius: half the
    minimum distance from a zero to any other zero of the cover, capped by
    every point's exact distance to its host-simplex boundary.  The
    minimum distance is taken in integers, with every position over one
    common denominator (:func:`_closest_pair2`).  epsilon is the minimum
    norm the model samples (its ``sample_norms``) outside the delta-balls
    of every zero of the cover, rounded down to a rational; each zero
    measures only the samples in its slab of the first coordinate
    (:func:`_outside_balls`).  The grid refines once when the minimum is
    suspiciously small.  ``grid`` is raised to at least
    :data:`TAMENESS_GRID`, and the refined grid may hold at most
    :data:`GRID_POINTS` points per window.  Sampling is a documented
    heuristic; the zero set itself is exact.
    """
    import numpy as np
    grid = max(grid, TAMENESS_GRID)
    n = model.complex.dimension
    if (2 * grid) ** n > GRID_POINTS:
        raise ResourceError(f"--grid {grid} asks for up to (2*{grid})^{n} tameness "
                            f"samples per window, above the budget of {GRID_POINTS} "
                            f"grid points")
    try:
        # solves the unoverridden windows around an overridden identity
        # too, so a failed search or an uncertified zero shows up here
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

    # the cover starts with the records, in order
    pair2 = _closest_pair2([r.position for r in cover], len(records))
    if pair2 == 0:
        return TamenessReport(delta=None, epsilon=None, verdict="not tame",
                              witnesses=["coincident fixed points"])

    delta = min(r.isolation for r in records)
    if pair2 is not None:
        delta = min(delta, sqrt_lower_bound(pair2) / 2)
    if delta <= 0:
        return TamenessReport(delta=None, epsilon=None, verdict="not tame",
                              witnesses=["no positive isolation radius"])

    eps_float = None
    for attempt in (1, 2):
        pts, disp = model.sample_norms(grid * attempt)
        outside = disp[_outside_balls(pts, zero_set, float(delta))]
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
    return TamenessReport(delta=delta, epsilon=_round_down(eps_float),
                          verdict="strongly tame")


def tameness_check(model, grid: int = TAMENESS_GRID) -> TamenessReport:
    """Verify isolation and the displacement gap of a map; see
    :func:`check_tameness`."""
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
    model_word = _WORDING[model.index_matrix_sign][0]
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

    def add(records, sign=1):
        for r in records:
            c = fd.coset_of_cell(r.host[0], n, r.host[1])
            finite[c] = finite.get(c, 0) + sign * r.index

    constant = sum(r.index for r in model.window_records(group.identity(), plain=True))
    for w in model.overrides:
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
    """Vertex id of a vertex name, an integral id or a decimal string id
    (JSON object keys are strings); a name wins over an id.  The name index
    is built on the first string, so ids alone read no vertex name."""
    vid = {}

    def read(x):
        if not isinstance(x, str):
            return integer_value(x)
        if not vid:
            vid.update((name, i) for i, name in enumerate(q.vertices))
        return vid[x] if x in vid or not x.isdecimal() else int(x)
    return read


def analytic_model_from_document(model_class, q: QuotientComplex, doc: dict):
    """The analytic map or field model of a document.

    Only reading the document is guarded by :func:`document_value`; the
    model's own checks run unwrapped.
    """
    def expressions(value):
        # list() would split a string into characters and read an object's keys
        if not isinstance(value, list):
            raise TypeError(f"expected a list of expressions, not {type(value).__name__}")
        return value

    def override(ov):
        return {"translate": document_value(ov, "translate", q.group.parse_word),
                "components": document_value(ov, "components", expressions)}

    return model_class(
        q, document_value(doc, "components", expressions),
        document_value(doc, "bound", rational_value),
        overrides=document_value(doc, "overrides",
                                 lambda ovs: [override(ov) for ov in ovs], []),
        grid=document_value(doc, "grid", integer_value, NEWTON_GRID))


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
                word, vertex = v  # a pair of another length is a ValueError
                return q.group.parse_word(word), as_vid(vertex)
            return as_vid(v)

        # keys name vertices of the subdivided source, which the model
        # reads; values name vertices of the target q
        images = document_value(doc, "vertex_images", lambda vi: {
            k: image(v) for k, v in vi.items()})
        overrides = document_value(doc, "overrides", lambda ov: {
            k: as_vid(v) for k, v in (ov or {}).items()}, None)
        subdivision = check_subdivision_count(
            document_value(doc, "subdivision", integer_value, 0),
            "model document: 'subdivision'")
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
