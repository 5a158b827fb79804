"""Grothendieck classes of loose graphs in the polynomial ring Z[L].

``L`` denotes the class of the affine line, so evaluating a class at a prime
power q yields the number of F_q-rational points of the scheme a loose graph
encodes.  Three independent routes to the same polynomial live here:

* :func:`class_of` — inclusion-exclusion over the cliques of the graph.
  Every vertex v carries a cone of projective points, supported on the
  closed neighborhood of v in the ambient completion with a nonzero
  coordinate at v; cones intersect exactly along cliques, and a clique T
  with common closed neighborhood S contributes
  ``(L-1)^(|T|-1) * L^(|S|-|T|)`` with the alternating sign.  Free loose
  edges add ``L - 1`` each (a multiplicative group apiece).

* :func:`tree_class` — a closed formula for loose trees built only from
  degree statistics.

* :func:`surgery` — resolve all full edges outside a spanning tree one at a
  time, accumulating the purely local difference each resolution causes,
  until a loose tree remains; the result is the tree's class plus the
  accumulated differences, and is independent of the spanning tree and of
  the resolution order.  Each step's difference follows from the link of
  the resolved edge xy, the plain graph on C = N(x) ∩ N(y): the cliques
  through x and y give (1 - L)·L^|C| + (1 - L)²·class_of(G[C]), and each
  clique {z} ∪ A, z an end and A a clique of the link, loses the other end
  from its common neighbourhood; every other clique term cancels.  The
  formula and its derivation are set out once, in :func:`_resolution_walk`.
  Links come in two cases: an empty link leaves 1 - L; any other link's
  cliques go through one loop over the walk's mask table.  An edgeless
  link's cliques are its vertices; only a link with an edge is assembled
  as a graph and classed.
  The loose tree that remains is never built: resolution keeps every
  degree, so its class is the tree formula on the input's own degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter

from .loose_graph import GraphError, LooseGraph, NotATreeError, NotConnectedError, TreeStats
from .poly import IntPolynomial

#: The class of the affine line.
L = IntPolynomial({1: 1}, var="L")

_ZERO = IntPolynomial(0, var="L")
_ONE_MINUS_L = IntPolynomial._of({0: 1, 1: -1}, "L")

_tag = attrgetter("tag")
_ends = attrgetter("ends")
_difference = attrgetter("difference")

_DISCONNECTED = "surgery needs a connected graph"


def class_of(g: LooseGraph) -> IntPolynomial:
    """Class of ``g`` by clique inclusion-exclusion over the vertex cones.

    A clique T of size k with common closed neighbourhood S contributes
    σ(T)(L-1)^(k-1)·L^(|S|-k), with σ(T) = +1 for odd k and -1 for even k,
    and σ(T)(L-1)^(k-1) is (1-L)^(k-1).  So the cliques are tallied by
    |S| - k into one row A_k(L) per size k, and the class is
    Σ_k (1-L)^(k-1)·A_k(L), summed by :func:`_horner`; free loose edges
    add L - 1 each.

    * A singleton {v} has |S| - k = |N̄(v)| - 1 plus v's loose edges, whose
      fresh ambient ends are adjacent to v alone: its
      :meth:`~LooseGraph.degrees` entry.  No clique has |S| - k above that
      of the widest singleton, so each row holds that many entries plus 2.
    * An edge uv whose ends have no common neighbour has S = {u, v}: one
      set test per full edge counts it, and builds no mask.  The other
      edges, the seeds, lie on a triangle, and their ends are exactly the
      vertices on a triangle.
    * The S of a seed, and of every larger clique, holds only vertices on a
      triangle, each being adjacent to two adjacent vertices of T.  So
      masks are built for the seeds' ends alone, bit i for the i-th vertex
      the seeds reach, each holding that vertex's closed neighbourhood
      among them; no graph keeps the masks.  A seed's S is its ends' masks
      ANDed.

    A seed then starts a frame (k, S, candidates) on a stack, the candidates
    being the common neighbours above both ends' bits (as in Bron and
    Kerbosch 1973; listing cliques from edges as in Chiba and Nishizeki,
    SIAM J. Comput. 1985).  A clique grows by each candidate in turn,
    lowest bit first: its child's S is S AND the candidate's mask, one AND
    per clique, and no clique is spelled out as a tuple.  So each clique of
    size 3 or more is walked once, from its two lowest-bit vertices; the
    tally does not depend on the order of the bits.
    """
    adj = g._adj
    degrees = g.degrees().values()
    width = max(degrees, default=0) + 2  # the widest |S| - k, plus 2
    singletons = [0] * width
    for d in degrees:
        singletons[d] += 1
    index = {}  # the vertices on a triangle, numbered as the seeds reach them
    seeds = []  # as pairs of those numbers
    full = g.full_edges
    for u, v in map(_ends, full):
        if not adj[u].isdisjoint(adj[v]):
            seeds.append((index.setdefault(u, len(index)), index.setdefault(v, len(index))))
    pairs = [0] * width
    pairs[0] = len(full) - len(seeds)
    rows = [singletons, pairs]  # rows[k-1][d]: the cliques T with |T| = k and |S| - |T| = d
    bit = {v: 1 << i for v, i in index.items()}
    # the bits are distinct, so summing them ORs them; a neighbour on no
    # triangle has no bit
    masks = [sum(filter(None, map(bit.get, adj[v])), b) for v, b in bit.items()]
    stack = []
    for i, j in seeds:
        meet = masks[i] & masks[j]
        pairs[meet.bit_count() - 2] += 1
        top = (i if i > j else j) + 1
        if candidates := meet >> top << top:
            stack.append((2, meet, candidates))
    while stack:
        k, common, candidates = stack.pop()
        if k == len(rows):
            rows.append([0] * width)
        row = rows[k]
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            mask = masks[low.bit_length() - 1]
            meet = common & mask
            row[meet.bit_count() - k - 1] += 1
            grow = candidates & mask
            if grow:
                stack.append((k + 1, meet, grow))
    acc = _horner(rows)
    free = len(g.free_edges)
    acc[0] -= free
    acc[1] += free
    return IntPolynomial._of(dict(enumerate(acc)), "L")


def _horner(rows: list) -> list:
    """The coefficients of Σ_k (1 - L)^k·rows[k], rows being coefficient
    lists of one width, summed by Horner's rule from the largest k down.
    The width must hold the sum: each step's top coefficient, shifted out
    by the factor (1 - L), is zero."""
    acc = [0] * len(rows[0])
    for row in reversed(rows):
        acc = [r + a - below for r, a, below in zip(row, acc, [0, *acc])]
    return acc


def tree_class(g: LooseGraph) -> IntPolynomial:
    """Class of a loose tree from its degree statistics.

    Checks that ``g`` is a loose tree, then applies the loose-tree formula
    to its vertex degrees and free loose edges (see :func:`_tree_formula`).
    """
    if not g.is_loose_tree():
        raise NotATreeError("reduced graph is not a tree")
    return _tree_formula(g.degrees().values(), len(g.free_edges))


def _tree_formula(degrees, free: int) -> IntPolynomial:
    """The loose-tree formula on the vertex ``degrees`` of a loose tree.

    For degree counts ``(d_i, n_i)`` over degrees above 1, interior excess I
    and endpoint count E the class is ``sum n_i L^d_i - I*L + I + E``.  A
    single vertex without edges contributes 1, no vertex at all 0, and each
    of the ``free`` loose edges adds ``L - 1`` on top.
    """
    degrees = list(degrees)
    table = {1: free, 0: -free}
    if degrees == [0]:
        table[0] += 1
    elif degrees:
        stats = TreeStats.of(degrees)
        table.update(stats.degree_counts)  # degrees above 1: no key clashes
        table[1] -= stats.interior_excess
        table[0] += stats.interior_excess + stats.endpoints
    return IntPolynomial._of(table, "L")


def resolution_difference(g: LooseGraph, tag: int) -> IntPolynomial:
    """Change of class caused by resolving the full edge ``tag``.

    The record is looked up, and an unknown tag or a loose edge rejected,
    as :meth:`LooseGraph.resolve_edge` does it.  The difference is then
    computed locally, as one step of :func:`_resolution_walk`, by the link
    formula: from the plain graph on the common neighbours of the edge's
    ends and the closed neighbourhoods around them, without building the
    resolved graph; the result equals
    ``class_of(g) - class_of(g.resolve_edge(tag))``.
    """
    return _resolution_walk(g, [g._full_edge(tag)])[0].difference


@dataclass(frozen=True)
class SurgeryStep:
    """One edge resolution: which edge, the ball N̄(x) ∪ N̄(y) around its ends
    x and y, and the class difference it caused.

    The difference is computed by the link formula (see
    :func:`_resolution_walk`) from the link, the plain graph on
    C = N(x) ∩ N(y), and the closed neighbourhoods of x, y and C, read
    from the walk's one mask table; the ball holds every common closed
    neighbourhood the formula counts, and is recorded whole.
    """

    tag: int
    ends: tuple
    ball: frozenset
    difference: IntPolynomial


@dataclass(frozen=True)
class SurgeryTrace:
    """Full record of a surgery run: the spanning tree, the steps, and the
    class of the loose tree they leave, taken from the input's degrees since
    resolution keeps every degree.

    The defining bookkeeping identity holds by construction:
    ``result = final_tree_class + sum(step.difference for step in steps)``.
    """

    spanning_tree: frozenset
    steps: tuple
    final_tree_class: IntPolynomial

    @property
    def total(self) -> IntPolynomial:
        """The result, summed over the coefficient tables.  Consecutive
        steps with equal differences form a run, whose table is read once
        and scaled by the run's length: most steps of a sparse graph share
        the one 1 - L of an empty link, so a table is copied once per run,
        not once per step."""
        total = self.final_tree_class.coefficients()
        for difference, run in groupby(map(_difference, self.steps)):
            n = len(list(run))
            for d, c in difference.coefficients().items():
                total[d] = total.get(d, 0) + n * c
        return IntPolynomial._of(total, "L")


def surgery(g: LooseGraph, tree=None, order=None):
    """Compute the class of a connected loose graph by edge resolution.

    Full edges outside the spanning ``tree`` are resolved one at a time (in
    ``order`` if given, else sorted by endpoints); each step contributes a
    local difference, and the loose tree that remains, whose degrees are
    the input's, is evaluated by the closed formula.  Returns
    ``(polynomial, trace)``.

    Disconnected graphs are rejected; split them with
    :meth:`LooseGraph.components` and sum (see :func:`surgery_class`).  Without
    ``tree``, the spanning tree's search is the connectivity check.  A given
    ``tree`` must name full edges that span ``g``, and ``order`` each other
    full edge once, or :class:`GraphError` is raised; both are looked up by
    tag in one map of the full edges, and neither is sorted.
    """
    if tree is None:
        try:
            tree = g.connected_tree()
        except NotConnectedError:
            raise NotConnectedError(_DISCONNECTED) from None
        rest = None if order is None else {e.tag: e for e in g.full_edges if e.tag not in tree}
    elif not g.is_connected():
        raise NotConnectedError(_DISCONNECTED)
    else:
        tree = frozenset(tree)
        rest = {e.tag: e for e in g.full_edges}  # tag -> record; the tree's are popped
        if not tree <= rest.keys():
            raise GraphError("spanning tree contains unknown or loose edge tags")
        if not LooseGraph(g.vertices, [rest.pop(tag).ends for tag in tree]).is_loose_tree():
            raise GraphError("edges do not form a spanning tree")

    if order is None:
        extra = sorted((e for e in g.full_edges if e.tag not in tree), key=_ends)
    else:
        try:
            extra = [rest.pop(tag) for tag in order]
        except (KeyError, TypeError):  # a tag not left, or unhashable; an order not iterable
            extra = None
        if extra is None or rest:
            raise GraphError("order must permute the non-tree full edges")

    trace = SurgeryTrace(
        spanning_tree=tree,
        steps=_resolution_walk(g, extra),
        # Resolution keeps every degree, so the loose tree left is classed
        # from the input's own degrees.
        final_tree_class=_tree_formula(g.degrees().values(), len(g.free_edges)),
    )
    return trace.total, trace


def surgery_class(g: LooseGraph) -> IntPolynomial:
    """Sum of per-component surgery results; classes add over disjoint
    unions."""
    return sum((surgery(c)[0] for c in g.components()), _ZERO)


def _resolution_walk(g: LooseGraph, edges):
    """Resolve the full edges ``edges`` of ``g``, given as its own
    :class:`~f1zeta.loose_graph.Edge` records, each once, one after another.

    The caller checks the records; nothing is checked here.  Walks one
    working adjacency, a shallow copy of ``g``'s vertex -> neighbour
    frozenset dict in which each step replaces only the sets of the
    resolved edge's two ends, and an ends -> record map, built at the
    first link with an edge, and classes each step by the link formula.
    Let xy be a full edge of the current graph, C = N(x) ∩ N(y), G[C] the
    plain induced graph on C (the graph's own full-edge records with both
    ends in C, no loose edges), A the nonempty cliques of G[C], and
    S_z(A) = N̄(z) ∩ ⋂_{a∈A} N̄(a), the closed neighbourhoods taken before
    xy is removed.  Then resolving xy changes the class by::

        (1 - L)·L^|C| + (1 - L)²·class_of(G[C])
            - Σ_{z∈{x,y}} Σ_A (1 - L)^(|A|+1)·L^(|S_z(A)| - |A| - 2)

    * Removing xy changes only N̄(x) and N̄(y), so a clique holding neither
      end keeps its term.
    * A clique T holding both ends is {x, y} ∪ A, A empty or a clique of
      G[C], and disappears.  Its common closed neighbourhood is
      {x, y} ∪ S_A, S_A that of A in G[C] (C itself for A empty), so the
      terms of :func:`class_of` for these cliques make the first two
      summands.
    * A clique T = {z} ∪ A holding one end z keeps its S_T unless the other
      end is adjacent to all of A, that is unless A ⊆ C.  Then the other end
      leaves S_T = S_z(A), and for A nonempty the term
      (1 - L)^|A|·L^(|S_T|-|A|-1) falls by the summand under Σ.
    * For A empty, the singleton {z} trades the other end for its fresh
      loose end.  Loose edges enter only singleton terms, so the graph's own
      loose edges cancel too.

    A step takes one of two cases, by its link:

    * An empty link (C empty) leaves 1 - L alone, so the step builds no
      mask and only clears the two bits named below.
    * Any other link's cliques A go through one loop, which ANDs the
      closed-neighbourhood masks of x, y and A to every S_z(A).  Where
      they come from depends on the link.  An edgeless link has the
      singletons {c}, c ∈ C, for its cliques and class_of(G[C]) = |C|, so
      no link graph is assembled.  A link with an edge is assembled from
      the step's records of ``g``, not checked
      (:meth:`LooseGraph._assemble`); its cliques come from
      :meth:`LooseGraph.cliques` and its class from :func:`class_of`.

    The masks live in one table for the whole walk: a vertex takes the
    next free bit the first time a step touches it (:class:`_BitIndex`),
    its mask is built from the working adjacency on first use and kept,
    and resolving xy, which changes only N̄(x) and N̄(y), clears y's bit
    from x's mask and x's bit from y's.  A sparse component thus pays
    only for the vertices its steps reach.
    The summands are tallied by their powers of (1 - L) and L, in rows as
    wide as the difference's degree bound, max(|C| + 1, |N(x)|, |N(y)|),
    plus one, and summed by :func:`_horner`, as :func:`class_of` sums its
    rows.

    Returns the :class:`SurgeryStep` records, in step order.
    """
    record = None  # ends -> record, built at the first link with an edge
    adj = dict(g._adj)
    bit = _BitIndex()
    hood = {}  # vertex -> closed-neighbourhood mask in the current graph

    steps = []
    for edge in edges:
        x, y = edge.ends
        near_x, near_y = adj[x], adj[y]
        common = near_x & near_y
        if not common:
            difference = _ONE_MINUS_L  # the link is empty: nothing to assemble
        else:
            for v in (x, y, *common):
                if v not in hood:
                    hood[v] = sum(map(bit.__getitem__, adj[v]), bit[v])
            hood_x, hood_y = hood[x], hood[y]
            # the difference has degree at most max(|C| + 1, |N(x)|, |N(y)|)
            width = max(len(common) + 2, len(near_x) + 1, len(near_y) + 1)
            rows = [[0] * width for _ in range(3)]  # rows[k][d]: coefficient of (1 - L)^k L^d
            rows[1][len(common)] = 1
            if not any(adj[c] & common for c in common):
                # the link is edgeless: its cliques are its vertices, its class |C|
                cliques = zip(common)
                rows[2][0] = len(common)
            else:
                if record is None:
                    record = {e.ends: e for e in g.full_edges}
                link_adj = {c: adj[c] & common for c in common}
                link = LooseGraph.__new__(LooseGraph)._assemble(
                    link_adj,
                    sorted((record[c, d] for c in common for d in link_adj[c] if c < d), key=_tag),
                )
                cliques = link.cliques()
                for d, c in class_of(link).coefficients().items():
                    rows[2][d] += c
            for clique in cliques:  # by increasing size
                k = len(clique) + 1
                if k == len(rows):
                    rows.append([0] * width)
                meet = -1
                for a in clique:
                    meet &= hood[a]
                rows[k][(meet & hood_x).bit_count() - k - 1] -= 1
                rows[k][(meet & hood_y).bit_count() - k - 1] -= 1
            difference = IntPolynomial._of(dict(enumerate(_horner(rows))), "L")
        adj[x] = near_x - {y}
        adj[y] = near_y - {x}
        # a mask not built yet is built later from the working adjacency
        if x in hood:
            hood[x] ^= bit[y]
        if y in hood:
            hood[y] ^= bit[x]
        steps.append(SurgeryStep(edge.tag, edge.ends, near_x | near_y, difference))
    return tuple(steps)


class _BitIndex(dict):
    """Vertex -> bit, each vertex taking the next free bit the first time it
    is looked up."""

    __slots__ = ()

    def __missing__(self, v):
        bit = self[v] = 1 << len(self)
        return bit
