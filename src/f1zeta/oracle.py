"""Ground truth by brute force: count points, interpolate, cross-check.

:func:`enumerate_points` counts the F_q-rational points of the scheme a
loose graph encodes without any inclusion-exclusion: it walks every point
of the ambient projective space (one coordinate vector each, first nonzero
coordinate 1) and keeps those lying in at least one vertex cone.  Lying in
the cone of v depends only on which coordinates are zero (coordinate v is
not, every one outside the closed ambient neighbourhood of v is), so the
walk carries each vector as its support mask, an int with one bit per
coordinate, and does no field arithmetic; a nonzero coordinate after the
leading 1 takes q - 1 values, so its masks recur q - 1 times.  For the
same reason the count is right for every prime power q, not only for
primes.  Free loose edges contribute q - 1 points each and are counted
additively; embedding their ambient completion would wrongly contribute a
projective line.  The ambient completion and the cone masks do not depend
on q, so :func:`point_counts`, the one counting loop, builds them once for
all its field sizes; :func:`enumerate_points`, :func:`count_table` and
:func:`cross_check` all count through it.

Exact Newton interpolation over enough primes then reconstructs the
counting polynomial, and :func:`cross_check` compares every available
route — clique inclusion-exclusion, surgery, the tree formula, and the
interpolated oracle counts — on one graph.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .grothendieck import class_of, surgery, tree_class
from .loose_graph import LooseGraph, NotATreeError
from .poly import IntPolynomial
from .qanalog import _check_field_size, _prime_power_base

#: Hard ceiling on ambient vertices (coordinates of the ambient space).
MAX_AMBIENT = 8
#: Ceiling on enumerated coordinate vectors per call.
MAX_TUPLES = 1 << 24


class OracleLimitError(ValueError):
    """The requested enumeration exceeds the size limits."""


class InterpolationError(ValueError):
    """Interpolation produced non-integer coefficients: some count or the
    counting model itself is wrong."""


def first_primes(count: int) -> list:
    out = []
    n = 2
    while len(out) < count:
        if _prime_power_base(n) == n:
            out.append(n)
        n += 1
    return out


def enumerate_points(g: LooseGraph, q: int) -> int:
    """Count the F_q-points of the scheme of ``g`` by direct enumeration;
    q may be any prime power."""
    ((_, count),) = point_counts(g, [q])
    return count


def _cones(g: LooseGraph) -> tuple:
    """What the walk needs of ``g``, whatever q is: the number of
    coordinates, one (center bit, outside mask) pair per vertex cone, and
    the number of free loose edges."""
    ambient = g.ambient_completion()
    if len(ambient.graph.vertices) > MAX_AMBIENT:
        raise OracleLimitError(
            f"{len(ambient.graph.vertices)} ambient vertices exceed {MAX_AMBIENT}"
        )
    # Coordinates added for free loose edges can never satisfy a cone
    # condition, so they are skipped; the count does not change.
    free_tags = {e.tag for e in g.free_edges}
    free_added = {v for v, tag in ambient.added_for.items() if tag in free_tags}
    coords = sorted(ambient.graph.vertices - free_added)
    index = {v: i for i, v in enumerate(coords)}
    masks = []
    for v in sorted(g.vertices):
        hood = ambient.graph.closed_neighborhood(v)
        outside = sum(1 << index[w] for w in coords if w not in hood)
        masks.append((1 << index[v], outside))
    return len(coords), masks, len(g.free_edges)


def _walk(cones: tuple, q: int) -> int:
    width, masks, free = cones
    total = q**width
    if total > MAX_TUPLES:
        raise OracleLimitError(f"{total} coordinate vectors exceed {MAX_TUPLES}")

    count = 0
    tails = [0]  # support masks of the vectors over coordinates i+1 .. n-1
    for i in reversed(range(width)):
        lead = 1 << i
        for tail in tails:
            point = tail | lead
            for center, outside in masks:
                if point & center and not point & outside:
                    count += 1
                    break
        if i:  # the last extension would be q^n long and unused
            tails += [tail | lead for tail in tails] * (q - 1)
    return count + (q - 1) * free


@dataclass(frozen=True)
class CountTable:
    """Point counts of one graph over several finite fields."""

    graph_id: str
    samples: tuple

    def __post_init__(self):
        rows = tuple((operator.index(q), operator.index(c)) for q, c in self.samples)
        qs = [q for q, _ in rows]
        if len(set(qs)) != len(qs):
            raise ValueError("duplicate field sizes")
        for q in qs:
            _check_field_size(q)
        if any(c < 0 for _, c in rows):
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "samples", rows)

    def to_csv(self) -> str:
        lines = ["q,count"] + [f"{q},{c}" for q, c in self.samples]
        return "\n".join(lines) + "\n"


def point_counts(g: LooseGraph, qs):
    """``(q, number of F_q-points of g)`` for each q of ``qs`` in turn: the
    one counting loop.  Each q is checked to be a prime power before it is
    counted, and the cones are built once, when the first valid q needs
    them, so errors come in the order of ``qs``."""
    cones = None
    for q in qs:
        _check_field_size(q)
        if cones is None:
            cones = _cones(g)
        yield q, _walk(cones, q)


def count_table(g: LooseGraph, primes, graph_id: str = "graph") -> CountTable:
    return CountTable(graph_id, tuple(point_counts(g, primes)))


def interpolate(table: CountTable) -> IntPolynomial:
    """The unique polynomial through the samples, by exact Newton
    interpolation; raises if any coefficient is non-integral.

    The divided differences f[x_0..x_i] are taken in place, then the Newton
    form is expanded into ascending coefficients by Horner's rule."""
    xs = [q for q, _ in table.samples]
    if not xs:
        raise InterpolationError("no samples to interpolate")
    diffs = [Fraction(c) for _, c in table.samples]
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / (xs[i] - xs[i - j])
    coeffs = [diffs[-1]]
    for x, d in zip(xs[-2::-1], diffs[-2::-1]):
        # coeffs * (X - x) + d, ascending
        inner = [low - x * high for low, high in zip(coeffs, coeffs[1:])]
        coeffs = [d - x * coeffs[0], *inner, coeffs[-1]]
    if any(c.denominator != 1 for c in coeffs):
        raise InterpolationError(
            f"non-integer coefficients {coeffs} for {table.graph_id}: "
            "counting model violated"
        )
    return IntPolynomial({k: int(c) for k, c in enumerate(coeffs)}, var="L")


@dataclass(frozen=True)
class CrossCheckReport:
    """Every route to the counting polynomial of one graph, compared."""

    graph: LooseGraph
    class_polynomial: IntPolynomial
    surgery_polynomial: IntPolynomial
    tree_polynomial: IntPolynomial | None
    counts: CountTable
    interpolated: IntPolynomial | None
    interpolation_skipped: str | None

    @property
    def problems(self) -> list:
        """One line per route or count that disagrees with the class
        polynomial, then the checks that class(1) is the vertex count and
        that the class has the graph's degree (see :func:`_graph_degree`)."""
        expected = self.class_polynomial
        out = []
        routes = (
            ("surgery", self.surgery_polynomial),
            ("tree", self.tree_polynomial),
            ("interpolation", self.interpolated),
        )
        for name, poly in routes:
            if poly is not None and poly != expected:
                out.append(f"{name} {poly.render('L')} != class {expected.render('L')}")
        for qv, c in self.counts.samples:
            if expected(qv) != c:
                out.append(f"count over F_{qv}: expected {expected(qv)}, got {c}")
        vertices = len(self.graph.vertices)
        if expected(1) != vertices:
            out.append(f"class at 1 gives {expected(1)}, vertex count is {vertices}")
        degree, wanted = int(expected.degree) if expected else 0, _graph_degree(self.graph)
        if degree != wanted:
            out.append(f"degree: class has degree {degree}, the graph {wanted}")
        return out

    @property
    def ok(self) -> bool:
        return not self.problems

    def summary(self) -> str:
        lines = [
            f"class polynomial : {self.class_polynomial.render('L')}",
            f"surgery          : {self.surgery_polynomial.render('L')}",
        ]
        if self.tree_polynomial is not None:
            lines.append(f"tree formula     : {self.tree_polynomial.render('L')}")
        for qv, c in self.counts.samples:
            lines.append(f"count over F_{qv} : {c}")
        if self.interpolated is not None:
            lines.append(f"interpolated     : {self.interpolated.render('L')}")
        elif self.interpolation_skipped:
            lines.append(f"interpolation    : skipped ({self.interpolation_skipped})")
        lines.append(f"verdict          : {'agree' if self.ok else 'DISAGREE'}")
        return "\n".join(lines)


def _graph_degree(g: LooseGraph) -> int:
    """The degree of the class of ``g``, read from the graph: a vertex of
    degree m carries an affine m-space, and a free loose edge adds L - 1."""
    return max([*g.degrees().values(), 1 if g.free_edges else 0])


def cross_check(g: LooseGraph, primes=None, graph_id: str = "graph") -> CrossCheckReport:
    """Compute the class of ``g`` by every available route and compare.

    Disconnected graphs are handled component-wise (all routes add over
    disjoint unions).  Counting goes through :func:`point_counts`, over
    ``primes`` in the order given if any, else over the first deg+1 primes,
    where deg is :func:`_graph_degree`, not read from any route.
    A field size that is not a prime power raises ``ValueError``.  Counting
    stops at the first q whose enumeration exceeds the size limits, and
    ``interpolation_skipped`` names that q and the limit; the field sizes
    after it are neither checked nor counted.  Since q^width grows with q,
    an ascending list loses only the sizes the limits would refuse anyway.
    Interpolation is skipped unless deg+1 counts were made, and a
    non-integral interpolant is recorded there too, since some count then
    differs from the class and :attr:`~CrossCheckReport.problems` names it.
    """
    class_poly = class_of(g)
    parts = g.components()
    surgery_poly = sum((surgery(c)[0] for c in parts), IntPolynomial(0, var="L"))

    try:
        tree_poly = sum((tree_class(c) for c in parts), IntPolynomial(0, var="L"))
    except NotATreeError:
        tree_poly = None

    need = _graph_degree(g) + 1
    wanted = list(primes) if primes is not None else first_primes(need)
    samples = []
    skip_reason = None
    try:
        for sample in point_counts(g, wanted):
            samples.append(sample)
    except OracleLimitError as exc:
        skip_reason = f"q={wanted[len(samples)]}: {exc}"
    table = CountTable(graph_id, tuple(samples))

    interpolated = None
    if len(table.samples) >= need:
        try:
            interpolated = interpolate(CountTable(graph_id, table.samples[:need]))
        except InterpolationError as exc:  # some count is not class(q): a count line names it
            skip_reason = str(exc)
    elif skip_reason is None:
        skip_reason = f"only {len(table.samples)} counts for degree {need - 1}"

    return CrossCheckReport(
        graph=g,
        class_polynomial=class_poly,
        surgery_polynomial=surgery_poly,
        tree_polynomial=tree_poly,
        counts=table,
        interpolated=interpolated,
        interpolation_skipped=skip_reason,
    )
