"""Exact computation of fixed-point and vector-field index classes on
periodic covers of closed manifolds, with amenability-aware vanishing
certificates for the resulting bounded class functions.

The package is organized around six core modules:

* :mod:`deckindex.groups` -- deck groups with exact word arithmetic
  (free abelian, free, surface, finite), one indexed Cayley ball per group
  and Folner schemes;
* :mod:`deckindex.complexes` -- periodic oriented pseudomanifolds given by
  finite quotient data with deck-labeled edges, fundamental domains and
  barycentric subdivision;
* :mod:`deckindex.chains` -- periodic (co)chains, boundary, cap product,
  fundamental cycles, projection to class functions, rational Betti
  numbers of the quotient, and the chain-level Hopf trace as the
  classical Lefschetz oracle;
* :mod:`deckindex.ufh` -- exact Folner means, isoperimetric probes,
  bounding 1-chains and uniform-capacity flow certificates deciding
  vanishing in the coinvariant quotient of bounded functions, and their
  verifier;
* :mod:`deckindex.fixpoint` / :mod:`deckindex.vectorfield` -- fixed-point
  and field-zero localization, local indices, tameness verification and
  the bounded index class with its classical consistency checks;
* :mod:`deckindex.cli` -- the batch front end.
"""

from .chains import ClassFunction, PeriodicChain, PeriodicCochain
from .complexes import PeriodicComplex, QuotientComplex, validate_quotient
from .groups import (
    FiniteGroup,
    FreeAbelianGroup,
    FreeGroup,
    SurfaceGroup,
    group_from_document,
)
from .ufh import ClassCertificate, decide_class

__version__ = "0.1.0"

__all__ = [
    "ClassCertificate",
    "ClassFunction",
    "FiniteGroup",
    "FreeAbelianGroup",
    "FreeGroup",
    "PeriodicChain",
    "PeriodicCochain",
    "PeriodicComplex",
    "QuotientComplex",
    "SurfaceGroup",
    "decide_class",
    "group_from_document",
    "validate_quotient",
    "__version__",
]
