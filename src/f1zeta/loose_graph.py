"""Loose graphs: finite graphs whose edges may have 2, 1, or 0 endpoints.

An edge with one endpoint ("loose edge") sticks out of its vertex; an edge
with no endpoints ("free loose edge") floats on its own.  Loose graphs are
the combinatorial skeletons this package computes with: a vertex of degree m
(loose edges included) carries a local affine m-space, so the structural
operations here (ambient completion, edge resolution, balls, restriction,
spanning trees, cliques, tree statistics) are what every counting routine
consumes.  The *reduced graph* is the ordinary graph of the full edges.

All values are immutable; every operation returns a new graph.  A graph is
checked where it enters the program, by the :class:`LooseGraph` constructor
or by :meth:`LooseGraph.parse`; a graph derived from a valid one (a
component, a restriction, a resolution, an ambient completion, the link
of a surgery step) is assembled from valid parts without being checked
again.  One breadth-first search, ``LooseGraph._forest``, finds the
spanning forest that components, spanning trees and connectivity read.  A
graph keeps only its vertices, edges and adjacency, and a component made by
:meth:`LooseGraph.components` also the tree the search found for it: a walk
that needs bit masks of the vertices, such as :meth:`LooseGraph.cliques`,
builds its own.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import chain, count, repeat
from operator import attrgetter

_ID_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_tag = attrgetter("tag")


class GraphError(ValueError):
    """A loose-graph invariant or precondition was violated."""


class GraphParseError(GraphError):
    """Malformed graph text; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class NotConnectedError(GraphError):
    pass


class NotATreeError(GraphError):
    pass


@dataclass(frozen=True, slots=True)
class Edge:
    """An edge record.  ``ends`` has length 2 (full), 1 (loose) or 0 (free).

    Slotted: a record has no ``__dict__`` and cannot be weakly referenced.
    """

    tag: int
    ends: tuple

    @property
    def is_full(self) -> bool:
        return len(self.ends) == 2

    @property
    def is_loose(self) -> bool:
        return len(self.ends) == 1

    @property
    def is_free(self) -> bool:
        return len(self.ends) == 0


# Edge's slot descriptors: they fill a record without its frozen __setattr__
_set_tag = Edge.tag.__set__
_set_ends = Edge.ends.__set__


def _numbered(all_ends: list, start: int = 0) -> list:
    """Records for the normalized ``all_ends``, tagged ``start``,
    ``start + 1``, ... in order; each equals ``Edge(tag, ends)``.

    The records are made and filled in three C-level loops (``any`` drains
    the setters, which return None) rather than by one call of the
    dataclass's ``__init__`` per record.
    """
    records = list(map(object.__new__, repeat(Edge, len(all_ends))))
    any(map(_set_tag, records, count(start)))
    any(map(_set_ends, records, all_ends))
    return records


def _check_type(ids) -> None:
    """Raise for the first id that is not a string, before any is compared
    or hashed; :meth:`LooseGraph.__init__` checks the strings' spelling."""
    for v in ids:
        if not isinstance(v, str):
            raise GraphError(f"invalid vertex id {v!r}")


def _ids(ids, name: str) -> tuple:
    """``ids`` as a tuple, its items not yet checked.  A string is not a
    sequence of ids: ``"ab"`` is not the ids a and b."""
    if isinstance(ids, str) or not isinstance(ids, Iterable):
        raise GraphError(f"{name} {ids!r} is not a sequence of vertex ids")
    return tuple(ids)


def _normalized(ends) -> tuple:
    """``ends`` as a tuple, a full edge's two ends in sorted order."""
    ends = _ids(ends, "edge")
    if len(ends) > 2:
        raise GraphError(f"edge {ends!r} has more than two endpoints")
    _check_type(ends)
    if len(ends) == 2:
        if ends[0] == ends[1]:
            raise GraphError(f"loop edge at {ends[0]!r} is not allowed")
        if ends[1] < ends[0]:
            ends = (ends[1], ends[0])
    return ends


@dataclass(frozen=True)
class TreeStats:
    """Degree statistics of a loose tree, tallied from its vertex degrees by
    :meth:`of`; these are all the loose-tree formula reads.

    ``degree_counts`` lists ``(degree, multiplicity)`` pairs for every vertex
    degree strictly greater than 1, ascending; degrees count incident loose
    edges as well as full edges.  ``interior_excess`` is (number of vertices
    of degree > 1) - 1, which may be -1.  ``endpoints`` counts the degree-1
    vertices.
    """

    degree_counts: tuple
    interior_excess: int
    endpoints: int

    @classmethod
    def of(cls, degrees) -> "TreeStats":
        """Statistics of a loose tree with vertex degrees ``degrees``,
        tallied in one pass."""
        tally = {}  # degree above 1 -> multiplicity
        endpoints = 0
        for d in degrees:
            if d > 1:
                tally[d] = tally.get(d, 0) + 1
            elif d == 1:
                endpoints += 1
        return cls(tuple(sorted(tally.items())), sum(tally.values()) - 1, endpoints)


@dataclass(frozen=True)
class AmbientEmbedding:
    """An ordinary graph completing every loose edge of a source graph.

    Each loose edge gains one fresh endpoint; each free loose edge gains two
    fresh, mutually adjacent endpoints.  ``added_for`` maps each fresh vertex
    to the tag of the edge it completes.
    """

    graph: "LooseGraph"
    original_vertices: frozenset
    added_vertices: frozenset
    added_for: dict = field(compare=False)


class LooseGraph:
    """Immutable loose graph on string vertex ids.

    Edges are handed in either as endpoint tuples — ``("u", "v")`` for a full
    edge, ``("u",)`` for a loose edge at ``u``, ``()`` for a free loose
    edge — which receive consecutive integer tags, or as :class:`Edge`
    records with explicit tags.  A record whose ends are already a tuple,
    with a full edge's two ends in sorted order, is kept as it is; any other
    record is normalized into a new one.  Vertices mentioned by an edge are
    declared implicitly.  ``full_edges``, ``loose_edges`` and ``free_edges``
    hold the edges with 2, 1 and 0 ends, in tag order like ``edges``.
    ``vertices`` and each edge's ends are sequences of ids, and ``edges`` a
    sequence of edges; a string is neither, so ``"ab"`` is not split into
    the ids a and b, nor into two edge specs.

    No loops and no repeated full edge between the same vertex pair are
    allowed; several loose edges at one vertex are fine (that is how affine
    spaces are encoded).

    The constructor and :meth:`parse` check all of this; every graph the
    package derives from a valid graph is assembled from valid parts by
    :meth:`_assemble`, which the constructor also ends with.
    """

    __slots__ = ("vertices", "edges", "full_edges", "loose_edges", "free_edges", "_adj", "_tree")

    def __init__(self, vertices=(), edges=()):
        # Keep or normalize each record; tuples get their tags once the
        # records are sorted.
        records, specs, all_ends = [], [], []
        if isinstance(edges, str) or not isinstance(edges, Iterable):
            raise GraphError(f"edges argument {edges!r} is not a sequence of edges")
        for e in edges:
            if isinstance(e, Edge):
                if type(e.tag) is not int or e.tag < 0:
                    raise GraphError(f"edge tag {e.tag!r} is not a non-negative int")
                ends = _normalized(e.ends)
                records.append(e if ends is e.ends else Edge(e.tag, ends))
            else:
                ends = _normalized(e)
                specs.append(ends)
            all_ends.append(ends)

        vertices = _ids(vertices, "vertices argument")
        _check_type(vertices)
        adj = {v: set() for v in chain(vertices, *all_ends)}
        for v in adj:
            if not _ID_RE.match(v):
                raise GraphError(f"invalid vertex id {v!r}")

        records.sort(key=_tag)
        if any(a.tag == b.tag for a, b in zip(records, records[1:])):
            raise GraphError("duplicate edge tags")
        start = records[-1].tag + 1 if records else 0
        records += _numbered(specs, start)

        for ends in all_ends:
            if len(ends) == 2:
                u, v = ends
                if v in adj[u]:
                    # name the repeated pair that occurs first
                    pairs = Counter(p for p in all_ends if len(p) == 2)
                    u, v = next(p for p, c in pairs.items() if c > 1)
                    raise GraphError(f"repeated edge between {u} and {v}")
                adj[u].add(v)
                adj[v].add(u)

        self._assemble({v: frozenset(s) for v, s in adj.items()}, records)

    def _assemble(self, adj: dict, records: list, tree=None) -> "LooseGraph":
        """Fill the slots from parts already known to be valid, and return
        the graph; nothing is checked.

        ``adj`` maps every vertex to the frozenset of its neighbours and is
        kept as it is, so the caller must not change it afterwards;
        ``records`` are normalized :class:`Edge` records in tag order, each
        tag once.  ``tree``, given only by :meth:`components`, is the
        frozenset of tags :meth:`spanning_tree` would find, kept so that it
        is not searched for again.  A graph derived from a valid graph is
        assembled directly, as ``LooseGraph.__new__(LooseGraph)._assemble(...)``.
        """
        by_ends = ([], [], [])  # free, loose, full
        for e in records:
            by_ends[len(e.ends)].append(e)
        free, loose, full = by_ends
        object.__setattr__(self, "vertices", frozenset(adj))
        object.__setattr__(self, "edges", tuple(records))
        object.__setattr__(self, "full_edges", tuple(full))
        object.__setattr__(self, "loose_edges", tuple(loose))
        object.__setattr__(self, "free_edges", tuple(free))
        object.__setattr__(self, "_adj", adj)
        object.__setattr__(self, "_tree", tree)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("LooseGraph is immutable")

    # -- basic views ----------------------------------------------------

    def edge(self, tag: int) -> Edge:
        for e in self.edges:
            if e.tag == tag:
                return e
        raise GraphError(f"unknown edge tag {tag!r}")

    def _full_edge(self, tag: int) -> Edge:
        """The full edge ``tag``, the one kind of edge that can be resolved."""
        target = self.edge(tag)
        if not target.is_full:
            raise GraphError(f"edge {tag} is loose and cannot be resolved")
        return target

    def neighbors(self, v: str) -> frozenset:
        """Vertices joined to ``v`` by a full edge."""
        if v not in self.vertices:
            raise GraphError(f"unknown vertex {v!r}")
        return self._adj[v]

    def closed_neighborhood(self, v: str) -> frozenset:
        return self.neighbors(v) | {v}

    def degree(self, v: str) -> int:
        """Number of incident edges; loose edges at ``v`` count."""
        if v not in self.vertices:
            raise GraphError(f"unknown vertex {v!r}")
        return sum(1 for e in self.edges if v in e.ends)

    def degrees(self) -> dict:
        """Every vertex's :meth:`degree`: its number of neighbours plus its
        loose edges."""
        degrees = {v: len(hood) for v, hood in self._adj.items()}
        for e in self.loose_edges:
            degrees[e.ends[0]] += 1
        return degrees

    # -- structural operations -------------------------------------------

    def ball(self, center: str, radius: int) -> frozenset:
        """All vertices within graph distance ``radius`` of ``center``.

        Distances run along full edges only.
        """
        if center not in self.vertices:
            raise GraphError(f"unknown vertex {center!r}")
        if not isinstance(radius, int) or radius < 0:
            raise GraphError(f"radius {radius!r} is not a non-negative int")
        seen = {center}
        frontier = {center}
        for _ in range(radius):
            frontier = {w for v in frontier for w in self._adj[v]} - seen
            if not frontier:
                break
            seen |= frontier
        return frozenset(seen)

    def resolve_edge(self, tag: int) -> "LooseGraph":
        """Delete the full edge ``tag`` and hang a new loose edge at each of
        its two former endpoints.  Every vertex keeps its degree."""
        u, v = self._full_edge(tag).ends
        fresh = self.edges[-1].tag + 1
        edges = [e for e in self.edges if e.tag != tag]
        edges.append(Edge(fresh, (u,)))
        edges.append(Edge(fresh + 1, (v,)))
        adj = dict(self._adj)
        adj[u] = adj[u] - {v}
        adj[v] = adj[v] - {u}
        return LooseGraph.__new__(LooseGraph)._assemble(adj, edges)

    def restrict(self, keep) -> "LooseGraph":
        """Induced loose graph on the vertex set ``keep``.

        A full edge with exactly one endpoint inside becomes a loose edge at
        that endpoint, so every kept vertex retains its degree.  Edges with
        no endpoint inside (including free loose edges) are dropped.
        """
        keep = frozenset(_ids(keep, "keep argument"))
        unknown = keep - self.vertices
        if unknown:
            raise GraphError(f"unknown vertices {sorted(unknown)!r}")
        edges = []
        for e in self.edges:
            inside = tuple(v for v in e.ends if v in keep)
            if inside:
                edges.append(e if len(inside) == len(e.ends) else Edge(e.tag, inside))
        adj = {v: self._adj[v] & keep for v in keep}
        return LooseGraph.__new__(LooseGraph)._assemble(adj, edges)

    def spanning_tree(self) -> frozenset:
        """Tags of a deterministic spanning tree of the reduced graph.

        The tree of the one search, :meth:`_forest`, so the result is
        reproducible.  A component made by :meth:`components` returns the
        tree it kept; any other graph runs the search, which must find one
        component.
        """
        if self._tree is not None:
            return self._tree
        if not self.vertices:
            raise NotConnectedError("graph has no vertices")
        forest = self._forest()
        if len(forest) > 1:
            raise NotConnectedError("reduced graph is not connected")
        return frozenset(forest[0][2])

    def cliques(self) -> list:
        """Every nonempty clique of the full-edge graph, each exactly once.

        Returned as sorted tuples, ordered by increasing size and then
        lexicographically.  Each clique carries its candidates, the common
        neighbours above its last vertex (as in Bron and Kerbosch 1973), as
        a bit mask over the sorted vertices; it grows by each candidate in
        turn, lowest bit first, and the candidates above that one it is
        adjacent to are its child's.  The masks are built here, bit i
        standing for the i-th sorted vertex; no graph keeps them.
        """
        names = sorted(self._adj)
        bit = {v: 1 << i for i, v in enumerate(names)}
        # vertex i's neighbours above it: its neighbour mask, bits 0..i cleared
        above = [
            sum(map(bit.__getitem__, self._adj[v])) >> (i + 1) << (i + 1)
            for i, v in enumerate(names)
        ]
        level = [((v,), mask) for v, mask in zip(names, above)]
        out = []
        while level:
            grown = []
            for clique, candidates in level:
                out.append(clique)
                while candidates:
                    low = candidates & -candidates
                    candidates ^= low
                    i = low.bit_length() - 1
                    grown.append((clique + (names[i],), candidates & above[i]))
            level = grown
        return out

    # -- trees -----------------------------------------------------------

    def is_loose_tree(self) -> bool:
        """True when the reduced graph is connected and acyclic.

        A graph without vertices counts only if it has no full edges (free
        loose edges are allowed; each stands alone).  A component made by
        :meth:`components` is connected, so only its edge count is checked.
        """
        if not self.vertices:
            return not self.full_edges
        return len(self.full_edges) == len(self.vertices) - 1 and (
            self._tree is not None or len(self._forest()) == 1
        )

    def tree_stats(self) -> TreeStats:
        """Degree statistics of a loose tree; raises for cyclic or
        disconnected input."""
        if not self.vertices:
            raise NotATreeError("graph has no vertices")
        if not self.is_loose_tree():
            raise NotATreeError("reduced graph is not a tree")
        return TreeStats.of(self.degrees().values())

    # -- ambient completion -----------------------------------------------

    def ambient_completion(self) -> AmbientEmbedding:
        """Smallest ordinary graph containing this loose graph.

        Fresh vertex names are derived from edge tags and never collide with
        existing ids.
        """
        taken = set(self.vertices)

        def fresh(base):
            name = base
            while name in taken:
                name = "_" + name
            taken.add(name)
            return name

        edges = []
        adj = {v: set(s) for v, s in self._adj.items()}
        added = {}
        for e in self.edges:
            if e.is_full:
                edges.append(e)
                continue
            if e.is_loose:
                a, b = e.ends[0], fresh(f"_e{e.tag}")
                added[b] = e.tag
            else:
                a, b = fresh(f"_e{e.tag}a"), fresh(f"_e{e.tag}b")
                added[a] = added[b] = e.tag
                adj[a] = set()
            adj[a].add(b)
            adj[b] = {a}
            edges.append(Edge(e.tag, (a, b) if a < b else (b, a)))
        ambient = LooseGraph.__new__(LooseGraph)._assemble(
            {v: frozenset(s) for v, s in adj.items()}, edges
        )
        return AmbientEmbedding(
            graph=ambient,
            original_vertices=self.vertices,
            added_vertices=frozenset(added),
            added_for=added,
        )

    # -- connectivity ------------------------------------------------------

    def _forest(self) -> list:
        """The spanning forest of the reduced graph, found by the one
        breadth-first search: a ``(vertices, records, tree)`` triple per
        component, and no graph built.

        Each component grows from its smallest vertex, the roots and each
        vertex's neighbours taken in sorted order.  ``vertices`` are in the
        order reached; ``records`` are the component's edges in tag order, a
        loose edge with its vertex (a free loose edge is in no triple);
        ``tree`` holds the tags of the full edges the search went along.
        Each edge joins the component of its first end, in one pass.
        """
        adj = self._adj
        index = {}  # vertex -> its component's records and tree tags
        parent = {}  # vertex -> the vertex its search reached it from; None for a root
        forest = []
        for root in sorted(adj):
            if root not in index:
                records, tree = [], []
                index[root] = slot = (records, tree)
                parent[root] = None
                queue = [root]
                for v in queue:  # the queue grows while it is walked
                    hood = adj[v]
                    for w in sorted(hood) if len(hood) > 1 else hood:
                        if w not in index:
                            index[w] = slot
                            parent[w] = v
                            queue.append(w)
                forest.append((queue, records, tree))
        for e in self.edges:
            ends = e.ends
            if ends:
                records, tree = index[ends[0]]
                records.append(e)
                if len(ends) == 2:
                    u, v = ends
                    if parent[v] == u or parent[u] == v:  # the search went along e
                        tree.append(e.tag)
        return forest

    def components(self) -> tuple:
        """Connected components, as loose graphs: those of :meth:`_forest`
        in its order, each keeping the tree the search found, then every
        free loose edge on its own.  Each equals :meth:`restrict` to its
        vertices.
        """
        adj = self._adj
        return tuple(
            LooseGraph.__new__(LooseGraph)._assemble({v: adj[v] for v in vs}, es, frozenset(tree))
            for vs, es, tree in self._forest()
        ) + tuple(LooseGraph.__new__(LooseGraph)._assemble({}, [e]) for e in self.free_edges)

    def _free_edges_fit(self) -> bool:
        """The free loose edges leave room for one component: one free loose
        edge alone, or vertices and no free loose edge."""
        return len(self.free_edges) == (0 if self.vertices else 1)

    def is_connected(self) -> bool:
        """Exactly one component: one free loose edge alone, or vertices in
        one component of :meth:`_forest` and no free loose edge."""
        return self._free_edges_fit() and (not self.vertices or len(self._forest()) == 1)

    def connected_tree(self) -> frozenset:
        """:meth:`spanning_tree` of a graph of one component (see
        :meth:`is_connected`), no tags for a lone free loose edge; raises
        :class:`NotConnectedError` for any other graph."""
        if not self._free_edges_fit():
            raise NotConnectedError("graph is not one component")
        return self.spanning_tree() if self.vertices else frozenset()

    def disjoint_union(self, other: "LooseGraph") -> "LooseGraph":
        if self.vertices & other.vertices:
            raise GraphError("vertex sets overlap")
        specs = [e.ends for e in self.edges] + [e.ends for e in other.edges]
        return LooseGraph(self.vertices | other.vertices, specs)

    # -- text format --------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "LooseGraph":
        """Parse the line-oriented graph format.

        One directive per line: ``vertex <id>``, ``edge <id> <id>``,
        ``loose <id>``, ``loose2``; ``#`` starts a comment.  Lines end at
        ``\\n``, ``\\r\\n`` or ``\\r``, as :func:`open` reads them; any other
        line or paragraph separator (``\\f``, ``\\x85``, ``\\u2028``...) is
        whitespace inside its line.  Edge tags follow file order.  The text
        is checked here, line by line, so the graph is assembled without
        going through the constructor's checks again.  An id is checked the
        first time it is seen, so only valid ids enter the adjacency and
        each is checked once.  The records are numbered once, at the end;
        the graph keeps no spanning tree (see :meth:`components`).
        """
        adj = {}  # vertex -> the set of its neighbours
        all_ends = []  # each record's ends, in tag order
        text = text.replace("\r\n", "\n").replace("\r", "\n")  # line ends as open() reads them
        # the split lines are freed when the loop ends, before the graph is assembled
        for lineno, raw in enumerate(text.split("\n"), start=1):
            tokens = (raw.split("#", 1)[0] if "#" in raw else raw).split()
            if not tokens:
                continue
            word = tokens[0]
            if word == "edge" and len(tokens) == 3:
                _, u, v = tokens
                hood_u = adj.get(u)
                if hood_u is None:
                    if not _ID_RE.match(u):
                        raise GraphParseError(f"invalid id {u!r}", lineno)
                    adj[u] = hood_u = set()
                hood_v = adj.get(v)
                if hood_v is None:
                    if not _ID_RE.match(v):
                        raise GraphParseError(f"invalid id {v!r}", lineno)
                    adj[v] = hood_v = set()
                if u == v:
                    raise GraphParseError(f"loop edge at {u!r}", lineno)
                if v in hood_u:
                    raise GraphParseError(f"repeated edge {u} {v}", lineno)
                hood_u.add(v)
                hood_v.add(u)
                all_ends.append((u, v) if u < v else (v, u))
            elif (word == "loose" or word == "vertex") and len(tokens) == 2:
                u = tokens[1]
                if u not in adj:
                    if not _ID_RE.match(u):
                        raise GraphParseError(f"invalid id {u!r}", lineno)
                    adj[u] = set()
                if word == "loose":
                    all_ends.append((u,))
            elif word == "loose2" and len(tokens) == 1:
                all_ends.append(())
            else:
                line = raw.split("#", 1)[0].strip()
                raise GraphParseError(f"malformed directive {line!r}", lineno)
        return cls.__new__(cls)._assemble({v: frozenset(s) for v, s in adj.items()}, _numbered(all_ends))

    def render(self) -> str:
        """Canonical text form: vertices sorted, then edges sorted."""
        lines = [f"vertex {v}" for v in sorted(self.vertices)]
        lines += [f"edge {e.ends[0]} {e.ends[1]}" for e in sorted(self.full_edges, key=lambda e: e.ends)]
        lines += [f"loose {e.ends[0]}" for e in sorted(self.loose_edges, key=lambda e: e.ends)]
        lines += ["loose2"] * len(self.free_edges)
        return "\n".join(lines) + ("\n" if lines else "")

    # -- equality is structural: tags do not matter --------------------------

    def _key(self):
        return (self.vertices, frozenset(Counter(e.ends for e in self.edges).items()))

    def __eq__(self, other):
        if not isinstance(other, LooseGraph):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        ends = [e.ends for e in self.edges]
        return f"LooseGraph({sorted(self.vertices)!r}, {ends!r})"


def parse(text: str) -> LooseGraph:
    """Module-level alias for :meth:`LooseGraph.parse`."""
    return LooseGraph.parse(text)
