"""Exact computation of fixed-point and vector-field index classes on
periodic covers of closed manifolds, with amenability-aware vanishing
certificates for the resulting bounded class functions.  Its modules:

* :mod:`deckindex.groups` -- deck groups with exact word arithmetic
  (free abelian, free, surface, finite), one indexed Cayley ball per group
  and Folner schemes;
* :mod:`deckindex.classes` -- bounded class functions on a deck group,
  integer 1-chains on its Cayley graph and the certificate records;
* :mod:`deckindex.ufh` -- exact Folner means, isoperimetric probes,
  bounding 1-chains and uniform-capacity flow certificates deciding
  vanishing in the coinvariant quotient of bounded functions, and their
  verifier;
* :mod:`deckindex.complexes` -- periodic oriented pseudomanifolds given by
  finite quotient data with deck-labeled edges, fundamental domains and
  barycentric subdivision;
* :mod:`deckindex.chains` -- periodic (co)chains, boundary, cap product,
  fundamental cycles, rational Betti numbers of the quotient, and the
  chain-level Hopf trace as the classical Lefschetz oracle;
* :mod:`deckindex.fixpoint` / :mod:`deckindex.vectorfield` -- fixed-point
  and field-zero localization, local indices, tameness verification and
  the bounded index class with its classical consistency checks;
* :mod:`deckindex.cli` -- the batch front end; each command imports what
  it runs, so group commands load no complex code, nor does reading a
  ``fixture:`` document, and ``validate`` loads no ``ufh``.

Importing the package loads none of them.  The group side, listed first
(``groups``, ``classes``, ``ufh``), imports nothing of the cover side.
"""

__version__ = "0.1.0"
