"""Bounded class functions on deck groups (index-data documents among
them), integer 1-chains on Cayley graphs and the certificate records about
them.

Whether a class vanishes depends only on the deck group, so this group-side
module imports only ``groups``, ``errors`` and the standard library.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .errors import InputError
from .groups import (FiniteGroup, MarkedGroup, group_from_document, group_to_document,
                     integer_value)


def _prune(d: dict) -> dict:
    return {k: v for k, v in d.items() if v}


class ClassFunction:
    """Bounded integer function on the deck group: constant + finite part.

    These are the representatives of classes in the coinvariant quotient of
    bounded functions under g . f (x) = f(xg).  For finite groups the
    constant part is folded into the finite part so representations are
    unique.
    """

    def __init__(self, group: MarkedGroup, constant: int = 0, finite=None):
        self.group = group
        self.constant = int(constant)
        self.finite = _prune(dict(finite or {}))
        if isinstance(group, FiniteGroup) and self.constant:
            for g in group.elements():
                self.finite[g] = self.finite.get(g, 0) + self.constant
            self.constant = 0
            self.finite = _prune(self.finite)

    def value(self, g) -> int:
        return self.constant + self.finite.get(g, 0)

    def finite_mass(self) -> int:
        return sum(abs(v) for v in self.finite.values())

    def translate(self, g) -> "ClassFunction":
        """The translated function x -> value(x * g)."""
        ginv = self.group.inverse(g)
        return ClassFunction(
            self.group, self.constant,
            {self.group.multiply(h, ginv): v for h, v in self.finite.items()})

    def __add__(self, other):
        if self.group != other.group:
            raise InputError("class functions on different groups")
        f = dict(self.finite)
        for k, v in other.finite.items():
            f[k] = f.get(k, 0) + v
        return ClassFunction(self.group, self.constant + other.constant, f)

    def __neg__(self):
        return ClassFunction(self.group, -self.constant,
                             {k: -v for k, v in self.finite.items()})

    def __sub__(self, other):
        return self + (-other)

    def is_zero_function(self) -> bool:
        return self.constant == 0 and not self.finite

    def __eq__(self, other):
        return (isinstance(other, ClassFunction) and self.group == other.group
                and self.constant == other.constant and self.finite == other.finite)

    def __repr__(self):
        return f"<ClassFunction c={self.constant} finite={len(self.finite)}>"

    def to_document(self) -> dict:
        return {
            "constant": self.constant,
            "finite": sorted(([self.group.format_element(g), v]
                              for g, v in self.finite.items()),
                             key=lambda row: row[0]),
        }

    @classmethod
    def from_document(cls, group: MarkedGroup, doc: dict) -> "ClassFunction":
        try:
            finite = {}
            for entry in doc.get("finite", []) or []:
                word, v = entry
                if not isinstance(word, str):
                    raise TypeError(f"entry {entry!r} has a non-string word")
                g = group.parse_word(word)
                finite[g] = finite.get(g, 0) + integer_value(v)
            constant = integer_value(doc.get("constant", 0))
        except (TypeError, ValueError) as e:
            raise InputError(f"malformed class function document: {e}")
        return cls(group, constant, finite)


def ingest_index_data(doc: dict):
    """Class function from externally supplied per-coset index sums."""
    try:
        group = group_from_document(doc["group"])
        f = ClassFunction.from_document(group, doc)
    except KeyError as e:
        raise InputError(f"malformed index-data document: missing {e}")
    note = "externally supplied index data (per-coset sums, not recomputed)"
    return f, note


class GraphChain:
    """Finitely supported integer 1-chain on the Cayley graph of a group;
    edges keyed by ordered pairs of elements, each stored in the direction
    of ascending shortlex key (computed once per element).  Distinct
    elements have distinct keys, so an edge and its reverse share a key."""

    def __init__(self, group: MarkedGroup):
        self.group = group
        self.edges: dict = {}
        self._sort_key = functools.cache(group.sort_key)

    def add_edge(self, u, v, coeff: int):
        """Add coeff * (u -> v); the boundary of that unit is v - u."""
        if coeff == 0:
            return
        if self._sort_key(v) < self._sort_key(u):
            u, v, coeff = v, u, -coeff
        edge = (u, v)
        total = self.edges.get(edge, 0) + coeff
        if total:
            self.edges[edge] = total
        else:
            del self.edges[edge]

    def boundary(self) -> dict:
        out: dict = {}
        for (a, b), c in self.edges.items():
            out[b] = out.get(b, 0) + c
            out[a] = out.get(a, 0) - c
        return {k: v for k, v in out.items() if v}

    def max_coefficient(self) -> int:
        return max(map(abs, self.edges.values()), default=0)


@dataclass
class ClassCertificate:
    verdict: str  # nonzero-by-mean | zero-by-boundary | zero-by-truncated-flow | inconclusive
    group: MarkedGroup
    function: ClassFunction
    payload: dict = field(default_factory=dict)
    verifier_result: dict = field(default_factory=dict)

    def to_document(self) -> dict:
        return {
            "verdict": self.verdict,
            "group": group_to_document(self.group),
            "function": self.function.to_document(),
            "payload": self.payload,
            "verifier_result": self.verifier_result,
        }


def _chain_to_payload(group, chain: GraphChain):
    word = functools.cache(group.format_element)  # each element formatted once
    return sorted([[word(u), word(v), c] for (u, v), c in chain.edges.items()],
                  key=lambda row: (row[0], row[1]))


def _payload_to_chain(group, rows, parse) -> GraphChain:
    """The chain of payload rows, each word read by ``parse`` (a
    ``group.parse_word``, cached by the caller when rows repeat words)."""
    chain = GraphChain(group)
    for u_word, v_word, coeff in rows:
        chain.add_edge(parse(u_word), parse(v_word), int(coeff))
    return chain
