"""Finitely presented pointed commutative monoids and their prime spectra.

A presentation is a list of generators plus monomial relations (monomial =
monomial, where a side may also be the constants 0 or 1); every monoid
carries an absorbing zero.  Prime ideals have a multiplicatively closed
complement, a face: a monomial lies outside a prime exactly when none of
its generators is in it.  So a prime is the set of monomials with a factor
in some generator subset, and a subset spans a prime exactly when both
sides of every relation lie inside it or both lie outside (0 always lies
inside).  The spectrum search tests every generator subset this way.

Base extension to an honest ring is probed by counting monoid morphisms
into the multiplicative monoid {0} ∪ μ_(q−1) of a small finite field,
which by adjunction counts the field points of the associated affine
scheme.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Iterable
from dataclasses import dataclass

from .qanalog import _check_field_size

_NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_FACTOR_RE = re.compile(r"([A-Za-z0-9_]+)(?:\^(\d+))?\Z")

#: Sentinel for the absorbing zero element (as a "monomial").
ZERO = None


class PresentationError(ValueError):
    """Malformed presentation text or an unusable presentation."""


def _is_sequence(value) -> bool:
    """True for an iterable other than a string: ``"xy"`` is neither the
    names x and y nor a pair of sides."""
    return isinstance(value, Iterable) and not isinstance(value, str)


@dataclass(frozen=True)
class PrimeIdeal:
    """A prime ideal, recorded by the set of generators it contains."""

    generators: frozenset

    def __str__(self):
        if not self.generators:
            return "{0}"
        return "(" + ",".join(sorted(self.generators)) + ")"

    def sort_key(self):
        return (len(self.generators), tuple(sorted(self.generators)))


class MonoidPresentation:
    """A pointed commutative monoid given by generators and relations.

    Monomials are exponent vectors over the generators; :data:`ZERO` stands
    for the adjoined absorbing element.  ``relations`` is a sequence of
    pairs of sides, each side :data:`ZERO` or an exponent vector; anything
    else, a string included, raises :class:`PresentationError`.
    """

    __slots__ = ("generators", "relations")

    def __init__(self, generators=(), relations=()):
        if not _is_sequence(generators):
            raise PresentationError(f"generators {generators!r} are not a sequence of names")
        gens = tuple(generators)
        for name in gens:
            if not isinstance(name, str) or not _NAME_RE.match(name):
                raise PresentationError(f"invalid generator name {name!r}")
        if len(set(gens)) != len(gens):
            raise PresentationError("duplicate generator names")
        if not _is_sequence(relations):
            raise PresentationError(f"relations {relations!r} are not a sequence of pairs")
        rels = []
        for relation in relations:
            sides = tuple(relation) if _is_sequence(relation) else ()
            if len(sides) != 2:
                raise PresentationError(f"relation {relation!r} is not a pair of sides")
            lhs, rhs = sides
            rels.append((self._check_side(lhs, gens), self._check_side(rhs, gens)))
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "relations", tuple(rels))

    def __setattr__(self, name, value):
        raise AttributeError("MonoidPresentation is immutable")

    @staticmethod
    def _check_side(side, gens):
        if side is ZERO:
            return ZERO
        if not isinstance(side, Iterable):
            raise PresentationError(f"bad exponent vector {side!r}")
        vec = tuple(side)
        if len(vec) != len(gens) or any(not isinstance(e, int) or e < 0 for e in vec):
            raise PresentationError(f"bad exponent vector {side!r}")
        return vec

    @classmethod
    def free(cls, names) -> "MonoidPresentation":
        return cls(names, ())

    # -- text format ---------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "MonoidPresentation":
        """Parse ``gens x y; rel x*y = 1;`` (whitespace-insensitive); the
        first word of each statement is ``gens`` or ``rel``."""
        gens = None
        raw_rels = []
        for statement in text.split(";"):
            statement = statement.strip()
            if not statement:
                continue
            word = statement.split(None, 1)[0]
            body = statement[len(word):]
            if word == "gens":
                if gens is not None:
                    raise PresentationError("repeated gens statement")
                gens = tuple(body.split())
            elif word == "rel":
                if body.count("=") != 1:
                    raise PresentationError(f"relation needs one '=': {statement!r}")
                raw_rels.append(tuple(body.split("=")))
            else:
                raise PresentationError(f"unknown statement {statement!r}")
        gens = gens or ()
        index = {g: i for i, g in enumerate(gens)}

        def side(expr):
            expr = expr.replace(" ", "").replace("\t", "")
            if expr == "0":
                return ZERO
            vec = [0] * len(gens)
            if expr == "1":
                return tuple(vec)
            for factor in expr.split("*"):
                m = _FACTOR_RE.match(factor)
                if not m or m.group(1) not in index:
                    raise PresentationError(f"bad monomial factor {factor!r}")
                vec[index[m.group(1)]] += int(m.group(2) or 1)
            return tuple(vec)

        return cls(gens, [(side(a), side(b)) for a, b in raw_rels])

    def render_monomial(self, vec) -> str:
        if vec is ZERO:
            return "0"
        parts = [
            g if e == 1 else f"{g}^{e}"
            for g, e in zip(self.generators, vec)
            if e
        ]
        return "*".join(parts) if parts else "1"

    def render(self) -> str:
        parts = []
        if self.generators:
            parts.append("gens " + " ".join(self.generators) + ";")
        for lhs, rhs in self.relations:
            parts.append(f"rel {self.render_monomial(lhs)} = {self.render_monomial(rhs)};")
        return " ".join(parts)

    # -- spectrum -------------------------------------------------------------

    def _is_prime(self, members) -> bool:
        """Do the generators named in ``members`` span a prime ideal?

        A monomial lies in the ideal they span when it is 0 or has one of
        them as a factor.  The rest is a face (closed under products and
        factors), so the span is prime exactly when both sides of every
        relation agree on lying inside it.
        """

        def inside(side):
            return side is ZERO or any(
                e and g in members for g, e in zip(self.generators, side)
            )

        return all(inside(lhs) == inside(rhs) for lhs, rhs in self.relations)

    def _generator_sets(self, sizes):
        for size in sizes:
            for subset in itertools.combinations(self.generators, size):
                yield frozenset(subset)

    def spec(self) -> tuple:
        """All prime ideals: one per generator subset that spans a prime.
        The zero ideal (empty subset) is the generic point."""
        primes = (
            PrimeIdeal(members)
            for members in self._generator_sets(range(len(self.generators) + 1))
            if self._is_prime(members)
        )
        return tuple(sorted(primes, key=PrimeIdeal.sort_key))

    def maximal_ideal(self) -> PrimeIdeal:
        """The union of all primes, itself prime: the largest generator set
        that spans a prime, searched from the full set down.  A presentation
        whose relations force 0 = 1 has no primes and raises
        :class:`PresentationError`."""
        sizes = range(len(self.generators), -1, -1)
        for members in self._generator_sets(sizes):
            if self._is_prime(members):
                return PrimeIdeal(members)
        raise PresentationError("no prime ideals: the relations force 0 = 1")

    def localize(self, prime: PrimeIdeal) -> "MonoidPresentation":
        """Invert everything outside ``prime``: one fresh generator and one
        relation g * g_inv = 1 per generator not in the prime."""
        if not isinstance(prime, PrimeIdeal):
            raise PresentationError(f"{prime!r} is not a PrimeIdeal")
        if not prime.generators <= set(self.generators):
            raise PresentationError("prime mentions unknown generators")
        if not self._is_prime(prime.generators):
            raise PresentationError(f"{prime} is not a prime ideal here")

        outside = [g for g in self.generators if g not in prime.generators]
        names = list(self.generators)
        inverses = {}
        for g in outside:
            inv = g + "_inv"
            while inv in names:
                inv += "_"
            names.append(inv)
            inverses[g] = inv

        def widen(vec):
            if vec is ZERO:
                return ZERO
            return vec + (0,) * (len(names) - len(vec))

        relations = [(widen(a), widen(b)) for a, b in self.relations]
        identity = (0,) * len(names)
        for g, inv in inverses.items():
            vec = [0] * len(names)
            vec[names.index(g)] = 1
            vec[names.index(inv)] = 1
            relations.append((tuple(vec), identity))
        return MonoidPresentation(names, relations)

    # -- base extension --------------------------------------------------------

    def hom_count(self, qp: int) -> int:
        """Number of monoid morphisms into the multiplicative monoid of the
        field with ``qp`` elements (0 -> 0, 1 -> 1), counted exhaustively.

        For every prime power qp that monoid is {0} ∪ μ_(qp−1), its units a
        cyclic group of order qp − 1.  So a morphism sends each generator
        to 0 or to the k-th power of a fixed unit generator, recorded as
        ``None`` or as k in Z/(qp − 1).  A monomial then goes to 0 if it is
        0 or puts a positive exponent on a generator sent to 0, and
        otherwise to the exponent Σ e_i k_i mod qp − 1.

        qp must be a prime power at most 9 and the presentation may have at
        most 6 generators.
        """
        _check_field_size(qp, PresentationError)
        if qp > 9:
            raise PresentationError("field size must be between 2 and 9")
        if len(self.generators) > 6:
            raise PresentationError("too many generators for exhaustive counting")

        order = qp - 1

        def evaluate(vec, values):
            if vec is ZERO:
                return None
            total = 0
            for k, e in zip(values, vec):
                if e:
                    if k is None:
                        return None
                    total += e * k
            return total % order

        return sum(
            all(
                evaluate(lhs, values) == evaluate(rhs, values)
                for lhs, rhs in self.relations
            )
            for values in itertools.product(
                (None, *range(order)), repeat=len(self.generators)
            )
        )

    def __repr__(self):
        return f"MonoidPresentation.parse({self.render()!r})"


def coordinate_monoid(graph, vertex: str) -> MonoidPresentation:
    """Free pointed monoid on one generator per edge incident to ``vertex``:
    the coordinate monoid of the local affine chart at that vertex."""
    if vertex not in graph.vertices:
        raise PresentationError(f"unknown vertex {vertex!r}")
    names = [f"e{e.tag}" for e in graph.edges if vertex in e.ends]
    return MonoidPresentation.free(names)
