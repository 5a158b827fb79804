import dataclasses
import itertools
import pickle
from collections import deque
from pathlib import Path
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from f1zeta import corpus
from f1zeta.loose_graph import (
    Edge,
    GraphError,
    GraphParseError,
    LooseGraph,
    NotATreeError,
    NotConnectedError,
)


@st.composite
def loose_graphs(draw):
    n = draw(st.integers(0, 5))
    names = [f"v{i}" for i in range(n)]
    pairs = list(itertools.combinations(names, 2))
    full = draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
    ) if pairs else []
    loose = draw(st.lists(st.sampled_from(names), max_size=4)) if names else []
    free = draw(st.integers(0, 2))
    return LooseGraph(names, list(full) + [(v,) for v in loose] + [()] * free)


def reduced(g):
    """The reduced graph: every vertex of ``g`` and its full edges only."""
    return LooseGraph(g.vertices, g.full_edges)


def triangle():
    return LooseGraph.parse("edge a b\nedge b c\nedge a c\n")


# -- parsing ----------------------------------------------------------------


def test_parse_triangle():
    g = triangle()
    assert g.vertices == frozenset("abc")
    assert len(g.full_edges) == 3
    assert g == LooseGraph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])


def test_parse_free_loose_edge():
    g = LooseGraph.parse("loose2\n")
    assert g.vertices == frozenset()
    assert len(g.free_edges) == 1


def test_parse_comments_blank_lines_and_vertex_lines():
    g = LooseGraph.parse("# a comment\n\nvertex z\nedge a b # inline\nloose a\n")
    assert g.vertices == frozenset({"a", "b", "z"})
    assert g.degree("a") == 2
    assert g.degree("z") == 0


def test_parse_loop_rejected():
    with pytest.raises(GraphParseError, match="loop") as info:
        LooseGraph.parse("edge a b\nedge a a\n")
    assert info.value.line == 2


def test_parse_duplicate_edge_rejected():
    with pytest.raises(GraphParseError, match="repeated") as info:
        LooseGraph.parse("edge a b\n# comment\nedge b a\n")
    assert info.value.line == 3


def test_parse_malformed_line_reports_line_number():
    with pytest.raises(GraphParseError) as info:
        LooseGraph.parse("edge a b\nfrob x\n")
    assert info.value.line == 2
    with pytest.raises(GraphParseError):
        LooseGraph.parse("edge a\n")
    with pytest.raises(GraphParseError, match="invalid id"):
        LooseGraph.parse("edge a b!\n")


@pytest.mark.parametrize("text, message, line", [
    ("edge a! b\n", "line 1: invalid id 'a!'", 1),
    ("edge a b!\n", "line 1: invalid id 'b!'", 1),
    ("edge a b\nedge a c!\n", "line 2: invalid id 'c!'", 2),
    ("edge a b\nedge c! b\n", "line 2: invalid id 'c!'", 2),
    ("vertex a\nvertex 1+1\n", "line 2: invalid id '1+1'", 2),
    ("loose a\nloose (a)\n", "line 2: invalid id '(a)'", 2),
    ("edge a b\nedge a-b a-b\n", "line 2: invalid id 'a-b'", 2),
    ("edge a b\nedge a a\n", "line 2: loop edge at 'a'", 2),
    ("edge a b\n# comment\nedge b a\n", "line 3: repeated edge b a", 3),
    ("edge a b\nfrob x # note\n", "line 2: malformed directive 'frob x'", 2),
    # Lines end only at \n, \r\n and \r; other separators are whitespace.
    ("vertex a\x85\nfrob\n", "line 2: malformed directive 'frob'", 2),
    ("edge a b\x0cedge c d\n", "line 1: malformed directive 'edge a b\\x0cedge c d'", 1),
    ("vertex a\u2028vertex b\n", "line 1: malformed directive 'vertex a\\u2028vertex b'", 1),
    ("vertex a\x1c\x1d\x1e\x0b\u2029\nedge a a\n", "line 2: loop edge at 'a'", 2),
    ("edge a b\r\n\r\nloose a\rfrob\r\n", "line 4: malformed directive 'frob'", 4),
])
def test_parse_error_keeps_its_message_and_line(text, message, line):
    """Each id is checked once, when first seen; the messages and lines are
    those recorded before that change."""
    with pytest.raises(GraphParseError) as info:
        LooseGraph.parse(text)
    assert (str(info.value), info.value.line) == (message, line)


def test_parse_breaks_lines_only_where_open_does():
    text = "edge a\x85b\r\nloose\u2028a\rvertex\x0cc\x1c\nloose2\x1d\x1e\n"
    g = LooseGraph.parse(text)
    assert g == LooseGraph(["a", "b", "c"], [("a", "b"), ("a",), ()])
    assert LooseGraph.parse(text.replace("\r\n", "\n").replace("\r", "\n")) == g


def test_parsed_records_are_indistinguishable_from_constructed_ones():
    records = LooseGraph.parse("edge b a\nloose a\nvertex c\nloose2\nedge c a\n").edges
    records += LooseGraph(["x"], [("y", "x"), ("y",), ()]).edges
    for e in records:
        twin = Edge(e.tag, e.ends)
        assert type(e) is Edge
        assert e == twin and twin == e
        assert (hash(e), repr(e)) == (hash(twin), repr(twin))
        assert dataclasses.fields(e) == dataclasses.fields(twin)
        assert dataclasses.astuple(e) == dataclasses.astuple(twin) == (e.tag, e.ends)
        assert dataclasses.replace(e, tag=e.tag + 9) == Edge(e.tag + 9, e.ends)
        with pytest.raises(dataclasses.FrozenInstanceError):
            e.tag = 9
        with pytest.raises(dataclasses.FrozenInstanceError):
            e.ends = ()
    assert [(e.tag, e.ends) for e in records] == [
        (0, ("a", "b")), (1, ("a",)), (2, ()), (3, ("a", "c")),
        (0, ("x", "y")), (1, ("y",)), (2, ()),
    ]


def test_construction_validates():
    with pytest.raises(GraphError):
        LooseGraph([], [("a", "a")])
    with pytest.raises(GraphError):
        LooseGraph([], [("a", "b"), ("b", "a")])
    with pytest.raises(GraphError):
        LooseGraph(["bad id"], [])
    # An id that is not a string is rejected before it is compared or hashed.
    for vertices, edges, message in [
        ([1], [], "invalid vertex id 1"),
        ([], [(1, "a")], "invalid vertex id 1"),
        ([], [Edge(0, ("a", None))], "invalid vertex id None"),
        ([["x"]], [], r"invalid vertex id \['x'\]"),
        ([], [(("x",),)], r"invalid vertex id \('x',\)"),
        # An edge spec is a sequence of ids: a string is not split into
        # one-letter ids, and a spec or record ends that are not iterable
        # are rejected too.
        ([], ["ab"], "edge 'ab' is not a sequence of vertex ids"),
        ([], ["a"], "edge 'a' is not a sequence of vertex ids"),
        ([], [1], "edge 1 is not a sequence of vertex ids"),
        ([], [Edge(0, 5)], "edge 5 is not a sequence of vertex ids"),
        ([], [Edge(0, "ab")], "edge 'ab' is not a sequence of vertex ids"),
        ([], [("a", "b"), Edge(1, None)], "edge None is not a sequence of vertex ids"),
        # So is the vertices argument, and the edges argument is iterable.
        ("ab", [], "vertices argument 'ab' is not a sequence of vertex ids"),
        (5, [], "vertices argument 5 is not a sequence of vertex ids"),
        ([], 5, "edges argument 5 is not a sequence of edges"),
        ([], "ab", "edges argument 'ab' is not a sequence of edges"),
    ]:
        with pytest.raises(GraphError, match=f"^{message}$"):
            LooseGraph(vertices, edges)
    # several loose edges at one vertex are allowed
    g = LooseGraph(["u"], [("u",), ("u",)])
    assert g.degree("u") == 2

    # Edge records go through the same checks as endpoint tuples.
    for bad, message in [
        ([Edge(0, ("a", "b", "c"))], "more than two endpoints"),
        ([Edge(0, ("a", "a"))], "loop edge at 'a'"),
        ([Edge(0, ("a", "bad id"))], "invalid vertex id 'bad id'"),
        ([Edge(0, ("a",)), Edge(3, ("a", "b")), Edge(0, ("b",))], "duplicate edge tags"),
        # A tag names the fresh ambient vertex of a loose edge, so it must
        # be a non-negative int.
        ([Edge(-1, ("a",))], "edge tag -1 is not a non-negative int"),
        ([Edge(2.5, ("a", "b"))], "edge tag 2.5 is not a non-negative int"),
        ([Edge("3", ())], "edge tag '3' is not a non-negative int"),
    ]:
        with pytest.raises(GraphError, match=message):
            LooseGraph([], bad)
    # The message names the first repeated pair in input order, even when
    # another pair repeats earlier.
    repeats = [Edge(0, ("a", "b")), ("c", "d"), Edge(5, ("d", "c")), Edge(7, ["b", "a"])]
    with pytest.raises(GraphError, match="repeated edge between a and b"):
        LooseGraph([], repeats)
    with pytest.raises(GraphError, match="repeated edge between c and d"):
        LooseGraph([], repeats[1:] + repeats[:1])

    kept = Edge(4, ("a", "b"))
    loose = Edge(6, ("a",))
    free = Edge(1, ())
    g = LooseGraph([], [loose, Edge(2, ("c", "b")), kept, Edge(3, ["d", "a"]), free, ("c",)])
    assert [e.tag for e in g.edges] == [1, 2, 3, 4, 6, 7]
    assert g.edge(4) is kept and g.edge(6) is loose and g.edge(1) is free
    assert g.edge(2) == Edge(2, ("b", "c"))
    assert g.edge(3) == Edge(3, ("a", "d")) and type(g.edge(3).ends) is tuple
    assert g.edge(7) == Edge(7, ("c",))
    assert g.full_edges == (g.edge(2), g.edge(3), kept)
    assert g.loose_edges == (loose, g.edge(7)) and g.free_edges == (free,)
    with pytest.raises(AttributeError):
        g.full_edges = ()


@pytest.mark.parametrize("edges, outcome", [
    # a one-shot iterable is read once and keeps its edges
    ((e for e in [("b", "a"), Edge(4, ("c",)), ()]), [(4, ("c",)), (5, ("a", "b")), (6, ())]),
    ((e for e in [("a", "b"), ("c", "d"), ("b", "a")]), "repeated edge between a and b"),
    ((e for e in [("c", "d"), ("a", "b"), ("b", "a"), ("d", "c")]), "repeated edge between c and d"),
    # with several faults, the first check to fail names its fault
    ([("a", "bad id"), ("b", "b")], "loop edge at 'b' is not allowed"),
    ([("a", "b"), ("b", "a"), ("c", "bad id")], "invalid vertex id 'bad id'"),
    ([Edge(0, ("a", "b")), Edge(0, ("b", "a"))], "duplicate edge tags"),
    ([("a", "b"), ("a", "b"), ("a", "b", "c")], "edge .* has more than two endpoints"),
    ([Edge(-1, ("a", "a"))], "edge tag -1 is not a non-negative int"),
], ids=["generator", "generator-repeat", "generator-first-repeat", "loop-over-id",
        "id-over-repeat", "tag-over-repeat", "three-ends-over-repeat", "tag-over-loop"])
def test_construction_reads_edges_once_and_reports_the_first_failed_check(edges, outcome):
    if isinstance(outcome, str):
        with pytest.raises(GraphError, match=f"^{outcome}$"):
            LooseGraph([], edges)
    else:
        assert [(e.tag, e.ends) for e in LooseGraph([], edges).edges] == outcome


def test_edge_classes_filter_the_edges_in_order(corpus5, random200):
    for g in corpus5 + random200:
        assert g.full_edges == tuple(e for e in g.edges if len(e.ends) == 2)
        assert g.loose_edges == tuple(e for e in g.edges if len(e.ends) == 1)
        assert g.free_edges == tuple(e for e in g.edges if not e.ends)


def test_render_is_canonical_and_round_trips():
    g = LooseGraph(["b", "a"], [("b", "a"), ("a",), ()])
    text = g.render()
    assert text.splitlines() == ["vertex a", "vertex b", "edge a b", "loose a", "loose2"]
    assert LooseGraph.parse(text) == g


def test_round_trip_on_random_corpus():
    rng = Random(99)
    for _ in range(100):
        g = corpus.random_loose_graph(rng, max_ambient=7)
        assert LooseGraph.parse(g.render()) == g


# -- ambient completion -------------------------------------------------------


def test_ambient_of_loose_star_is_a_star():
    g = corpus.loose_star(3)
    amb = g.ambient_completion()
    assert len(amb.added_vertices) == 3
    assert amb.graph.degree("u") == 3
    for w in amb.added_vertices:
        assert amb.graph.degree(w) == 1
        assert amb.graph.neighbors(w) == frozenset({"u"})


def test_ambient_of_ordinary_graph_is_itself():
    g = corpus.complete_graph(4)
    amb = g.ambient_completion()
    assert amb.added_vertices == frozenset()
    assert amb.graph == g


def test_ambient_of_free_edge_is_an_edge_on_two_added_vertices():
    g = LooseGraph((), [()])
    amb = g.ambient_completion()
    assert len(amb.added_vertices) == 2
    a, b = sorted(amb.added_vertices)
    assert amb.graph.neighbors(a) == frozenset({b})


def test_ambient_vertex_count(corpus5):
    for g in corpus5[::7]:
        amb = g.ambient_completion()
        expected = len(g.loose_edges) + 2 * len(g.free_edges)
        assert len(amb.added_vertices) == expected
        assert not amb.graph.loose_edges and not amb.graph.free_edges
        assert amb.graph.restrict(g.vertices).full_edges == g.full_edges


def test_ambient_names_avoid_collisions():
    g = LooseGraph(["_e0"], [("_e0",)])
    amb = g.ambient_completion()
    assert "_e0" in amb.original_vertices
    assert len(amb.added_vertices) == 1


# -- resolution ---------------------------------------------------------------


def test_resolve_edge_on_edge_graph():
    g = LooseGraph(["a", "b"], [("a", "b")])
    r = g.resolve_edge(0)
    assert len(r.full_edges) == 0
    assert sorted(e.ends for e in r.loose_edges) == [("a",), ("b",)]


def test_resolve_preserves_degrees_and_adds_one_edge():
    g = corpus.diamond()
    r = g.resolve_edge(0)
    assert r.degrees() == g.degrees()
    assert len(r.edges) == len(g.edges) + 1
    assert len(r.full_edges) == len(g.full_edges) - 1


def test_degrees_match_degree(corpus5, random200):
    for g in corpus5 + random200:
        assert g.degrees() == {v: g.degree(v) for v in g.vertices}


def test_is_connected_matches_components(corpus5, random200):
    for g in corpus5 + random200:
        assert g.is_connected() == (len(g.components()) == 1)


def test_connected_tree_is_the_spanning_tree_of_one_component(corpus5, random200):
    lone_free = LooseGraph((), [()])
    extra = [lone_free, LooseGraph(), LooseGraph((), [(), ()]), triangle().disjoint_union(lone_free)]
    for g in corpus5 + random200 + extra:
        if g.is_connected():
            assert g.connected_tree() == (g.spanning_tree() if g.vertices else frozenset())
        else:
            with pytest.raises(NotConnectedError):
                g.connected_tree()


def test_resolve_diamond_keeps_neighbors_and_hangs_loose_edges():
    g = corpus.diamond()
    uv = next(e.tag for e in g.full_edges if e.ends == ("u", "v"))
    r = g.resolve_edge(uv)
    assert r.neighbors("u") == frozenset({"w1", "w2"})
    assert r.neighbors("v") == frozenset({"w1", "w2"})
    assert sorted(e.ends for e in r.loose_edges) == [("u",), ("v",)]
    # dropping the loose edges leaves the 4-cycle u, w1, v, w2
    cycle = LooseGraph(
        ["u", "v", "w1", "w2"],
        [("u", "w1"), ("w1", "v"), ("v", "w2"), ("w2", "u")],
    )
    assert reduced(r) == cycle


def test_resolve_errors():
    g = LooseGraph(["a"], [("a",)])
    with pytest.raises(GraphError, match="loose"):
        g.resolve_edge(0)
    with pytest.raises(GraphError, match="unknown"):
        g.resolve_edge(17)


# -- balls, restriction, reduction ---------------------------------------------


def test_ball_examples():
    t = triangle()
    assert t.ball("a", 1) == frozenset("abc")
    assert t.ball("a", 0) == frozenset("a")
    p = corpus.path_graph(3)
    assert p.ball("p0", 1) == frozenset({"p0", "p1"})
    d = corpus.diamond()
    assert d.ball("u", 1) == frozenset({"u", "v", "w1", "w2"})
    with pytest.raises(GraphError):
        t.ball("zz", 1)
    for radius in (-1, 1.5, "1"):
        with pytest.raises(GraphError, match="is not a non-negative int$"):
            t.ball("a", radius)


def test_restrict_triangle_to_edge():
    g = triangle().restrict({"a", "b"})
    assert len(g.full_edges) == 1
    assert sorted(e.ends for e in g.loose_edges) == [("a",), ("b",)]
    assert g.degree("a") == 2


def test_restrict_takes_a_sequence_of_ids():
    g = LooseGraph(["a", "b", "ab"])
    assert g.restrict(["ab"]).vertices == frozenset({"ab"})
    # a string is not split into one-letter ids
    for keep, message in [
        ("ab", "keep argument 'ab' is not a sequence of vertex ids"),
        (3, "keep argument 3 is not a sequence of vertex ids"),
    ]:
        with pytest.raises(GraphError, match=f"^{message}$"):
            g.restrict(keep)


def test_restrict_to_everything_is_identity():
    g = corpus.diamond()
    assert g.restrict(g.vertices) == g


def test_restrict_star_center_keeps_degree():
    star = LooseGraph(
        ["c", "l1", "l2", "l3"], [("c", "l1"), ("c", "l2"), ("c", "l3")]
    )
    g = star.restrict({"c"})
    assert g.vertices == frozenset({"c"})
    assert len(g.loose_edges) == 3
    assert g.degree("c") == 3


def test_restrict_ball_preserves_degree(corpus5):
    for g in corpus5[::11]:
        for v in g.vertices:
            assert g.restrict(g.ball(v, 1)).degree(v) == g.degree(v)


# -- spanning trees and cliques ---------------------------------------------


def test_spanning_tree_of_triangle():
    tree = triangle().spanning_tree()
    assert len(tree) == 2


def test_spanning_tree_of_tree_is_everything():
    p = corpus.path_graph(5)
    assert p.spanning_tree() == frozenset(e.tag for e in p.edges)


def test_spanning_tree_breadth_first_from_smallest_vertex():
    k4 = corpus.complete_graph(4)
    tree = k4.spanning_tree()
    ends = sorted(k4.edge(t).ends for t in tree)
    assert ends == [("v0", "v1"), ("v0", "v2"), ("v0", "v3")]


def test_spanning_tree_requires_connectivity():
    g = LooseGraph(["a", "b"], [])
    with pytest.raises(NotConnectedError):
        g.spanning_tree()


def test_spanning_tree_needs_a_vertex():
    free = LooseGraph.parse("loose2\n")
    for g in (LooseGraph(), free, free.components()[0]):
        with pytest.raises(NotConnectedError, match="no vertices"):
            g.spanning_tree()


def test_cliques_of_triangle():
    cliques = triangle().cliques()
    assert cliques == [
        ("a",), ("b",), ("c",),
        ("a", "b"), ("a", "c"), ("b", "c"),
        ("a", "b", "c"),
    ]


def _cliques_by_brute_force(g):
    names = sorted(g.vertices)
    return [
        subset
        for k in range(1, len(names) + 1)
        for subset in itertools.combinations(names, k)
        if all(w in g.neighbors(v) for v, w in itertools.combinations(subset, 2))
    ]


def test_cliques_match_brute_force(corpus5, random200):
    complete = [corpus.complete_graph(m) for m in range(1, 8)]
    for g in corpus5 + random200 + complete:
        assert g.cliques() == _cliques_by_brute_force(g)
    assert len(complete[-1].cliques()) == 2**7 - 1


def test_cliques_of_path_and_free_edge():
    assert corpus.path_graph(3).cliques() == [
        ("p0",), ("p1",), ("p2",), ("p0", "p1"), ("p1", "p2"),
    ]
    assert LooseGraph((), [()]).cliques() == []


# -- derived graphs ----------------------------------------------------------


def _assert_as_checked(g):
    """``g`` equals the graph the checking constructor builds from its own
    vertices and edge records: edge classes with tags and every
    neighbourhood."""
    checked = LooseGraph(g.vertices, g.edges)
    assert g.vertices == checked.vertices
    for name in ("edges", "full_edges", "loose_edges", "free_edges"):
        assert getattr(g, name) == getattr(checked, name), name
    for v in g.vertices:
        assert g.neighbors(v) == checked.neighbors(v)


def test_derived_graphs_equal_the_checked_construction(monkeypatch, corpus5, random200, dense_graphs):
    from f1zeta.grothendieck import surgery

    steps = []
    assemble = LooseGraph._assemble

    def recording_assemble(self, *args, **kwargs):
        steps.append(assemble(self, *args, **kwargs))
        return self

    for g in corpus5 + random200 + dense_graphs:
        fresh = LooseGraph(g.vertices, g.edges)
        derived = [LooseGraph.parse(g.render()), fresh.ambient_completion().graph]
        derived += fresh.components()
        derived += [fresh.restrict(fresh.ball(v, 1)) for v in sorted(g.vertices)]
        derived += [fresh.resolve_edge(e.tag) for e in g.full_edges]
        parts = fresh.components()
        monkeypatch.setattr(LooseGraph, "_assemble", recording_assemble)
        for part in parts:
            surgery(part)
        monkeypatch.undo()
        derived += steps
        steps.clear()
        for d in derived:
            _assert_as_checked(d)


class _Forged:
    """Pickles as a loop edge would if a graph could hold one."""

    def __reduce__(self):
        return LooseGraph, (("a",), (Edge(0, ("a", "a")),))


def test_no_graph_comes_from_a_pickle(corpus5):
    # Nothing pickles graphs, so a pickle cannot bring in one that was never
    # checked: setting the slots trips the immutability guard.
    for g in corpus5:
        with pytest.raises(AttributeError, match="immutable"):
            pickle.loads(pickle.dumps(g))
    with pytest.raises(GraphError, match="loop"):
        pickle.loads(pickle.dumps(_Forged()))


def test_classing_leaves_equality_hash_repr_and_immutability():
    from f1zeta.grothendieck import class_of

    text = "edge a b\nedge b c\nedge a c\nloose a\nloose2\n"
    g, twin = LooseGraph.parse(text), LooseGraph.parse(text)
    before = (hash(g), repr(g))
    g.cliques()
    class_of(g)
    assert g == twin and twin == g
    assert (hash(g), repr(g)) == before == (hash(twin), repr(twin))
    with pytest.raises(AttributeError):
        g.vertices = frozenset()


# -- trees ---------------------------------------------------------------------


def _is_loose_tree_reference(g):
    """n - 1 full edges and a spanning tree; without vertices, only free
    loose edges remain and each stands alone."""
    if not g.vertices:
        return True
    if len(g.full_edges) != len(g.vertices) - 1:
        return False
    try:
        g.spanning_tree()
    except NotConnectedError:
        return False
    return True


def test_is_loose_tree_matches_reference(corpus5, random200):
    graphs = corpus5 + random200 + [LooseGraph(), LooseGraph((), [(), ()])]
    verdicts = [g.is_loose_tree() for g in graphs]
    assert verdicts == [_is_loose_tree_reference(g) for g in graphs]
    assert verdicts[-2:] == [True, True]
    assert True in verdicts[:-2] and False in verdicts[:-2]


def test_a_component_is_a_loose_tree_as_its_restriction_is(monkeypatch, corpus5, random200):
    """A component from components() is connected, so it is a loose tree
    exactly when its restriction is, and no ball is grown to tell."""
    pairs = [(c, g.restrict(c.vertices)) for g in corpus5 + random200 for c in g.components() if c.vertices]
    expected = [fresh.is_loose_tree() for _, fresh in pairs]
    assert True in expected and False in expected

    def refuse(self, center, radius):
        raise AssertionError("a component grew a ball")

    monkeypatch.setattr(LooseGraph, "ball", refuse)
    assert [c.is_loose_tree() for c, _ in pairs] == expected


# -- tree statistics -----------------------------------------------------------


def test_tree_stats_path():
    stats = corpus.path_graph(3).tree_stats()
    assert stats.degree_counts == ((2, 1),)
    assert stats.interior_excess == 0
    assert stats.endpoints == 2


def test_tree_stats_single_edge():
    stats = LooseGraph(["a", "b"], [("a", "b")]).tree_stats()
    assert stats.degree_counts == ()
    assert stats.interior_excess == -1
    assert stats.endpoints == 2


def test_tree_stats_counts_loose_edges():
    stats = corpus.loose_star(3).tree_stats()
    assert stats.degree_counts == ((3, 1),)
    assert stats.interior_excess == 0
    assert stats.endpoints == 0


def test_tree_stats_rejects_cycles_and_disconnection():
    with pytest.raises(NotATreeError):
        triangle().tree_stats()
    with pytest.raises(NotATreeError):
        LooseGraph(["a", "b"], []).tree_stats()


def test_tree_stats_accounting(loose_trees100):
    for g in loose_trees100:
        stats = g.tree_stats()
        isolated = sum(1 for v in g.vertices if g.degree(v) == 0)
        interior = sum(n for _, n in stats.degree_counts)
        assert interior + stats.endpoints + isolated == len(g.vertices)


# -- components -----------------------------------------------------------------


def test_components_split_and_keep_loose_edges():
    g = LooseGraph(["a", "b", "c"], [("a", "b"), ("a",), ()])
    parts = g.components()
    assert len(parts) == 3
    ab = next(p for p in parts if "a" in p.vertices)
    assert len(ab.loose_edges) == 1
    free = [p for p in parts if not p.vertices]
    assert len(free) == 1 and len(free[0].free_edges) == 1


def _components_by_restrict(g):
    parts, seen = [], set()
    for root in sorted(g.vertices):
        if root not in seen:
            group = g.ball(root, len(g.vertices))
            seen |= group
            parts.append(g.restrict(group))
    return parts + [LooseGraph((), [e]) for e in g.free_edges]


def test_components_equal_restriction_to_each_component(corpus5, random200):
    rng = Random(3)
    scattered = []
    for _ in range(20):
        names = [f"w{i}" for i in range(30)]
        specs = [p for p in itertools.combinations(names, 2) if rng.random() < 0.04]
        specs += [(rng.choice(names),) for _ in range(5)] + [()] * 3
        rng.shuffle(specs)
        scattered.append(LooseGraph(names, specs))
    for g in corpus5 + random200 + scattered:
        expected = _components_by_restrict(g)
        got = g.components()
        assert [p.vertices for p in got] == [p.vertices for p in expected]
        assert [tuple((e.tag, e.ends) for e in p.edges) for p in got] == [
            tuple((e.tag, e.ends) for e in p.edges) for p in expected
        ]


DATA = Path(__file__).parent / "data"


def _shuffled(rng, text):
    lines = text.splitlines()
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def test_a_kept_tree_equals_a_fresh_search(corpus5, sparse_text):
    """A component keeps the tree its search found; a restriction to the
    same vertices searches again and finds the same tree."""
    rng = Random(36)
    texts = [(DATA / f"{name}.graph").read_text() for name in ("dense10", "k6_loose2", "sparse300", "dense22")]
    texts += [sparse_text(rng, n) for n in (50, 200, 500, 500, 1000)]
    texts += [_shuffled(rng, text) for text in texts]
    for g in corpus5 + [LooseGraph.parse(text) for text in texts]:
        for c in g.components():
            if not c.vertices:
                continue
            fresh = g.restrict(c.vertices)
            assert fresh._tree is None and c._tree is not None
            assert c.spanning_tree() == fresh.spanning_tree()
            assert c.connected_tree() == fresh.connected_tree()


def _reference_forest(g):
    """Per component, smallest root first: its vertex set and the tags of
    the tree a plain breadth-first search finds, neighbours in sorted order,
    looking each tree edge up by its ends."""
    tags = {e.ends: e.tag for e in g.full_edges}
    seen, forest = set(), []
    for root in sorted(g.vertices):
        if root in seen:
            continue
        seen.add(root)
        queue, reached, tree = deque([root]), {root}, set()
        while queue:
            v = queue.popleft()
            for w in sorted(g.neighbors(v)):
                if w not in seen:
                    seen.add(w)
                    reached.add(w)
                    tree.add(tags[min(v, w), max(v, w)])
                    queue.append(w)
        forest.append((frozenset(reached), frozenset(tree)))
    return forest


def test_the_one_search_matches_a_reference_search(monkeypatch, corpus5, random200, sparse_text):
    """Components, their kept trees, spanning_tree, is_connected and
    is_loose_tree against a search written independently of the package's;
    none of them grows a ball."""
    rng = Random(38)
    texts = [(DATA / f"{name}.graph").read_text() for name in ("dense10", "k6_loose2", "sparse300", "dense22")]
    texts += [sparse_text(rng, n) for n in (50, 200, 500, 1000)]
    texts += [_shuffled(rng, text) for text in texts]
    graphs = corpus5 + random200 + [LooseGraph.parse(text) for text in texts]
    graphs += [g.restrict(c.vertices) for g in graphs[-4:] for c in g.components()[:3]]
    assert {len(_reference_forest(g)) for g in graphs} >= {0, 1, 2, 3}

    def refuse(self, center, radius):
        raise AssertionError("a ball was grown")

    monkeypatch.setattr(LooseGraph, "ball", refuse)
    for g in graphs:
        forest = _reference_forest(g)
        parts = [c for c in g.components() if c.vertices]
        assert [(c.vertices, c._tree) for c in parts] == forest
        assert g.is_connected() == (len(forest) + len(g.free_edges) == 1)
        assert g.is_loose_tree() == (len(forest) <= 1 and len(g.full_edges) == len(g.vertices) - len(forest))
        if len(forest) == 1:
            assert g.spanning_tree() == forest[0][1]
        else:
            with pytest.raises(NotConnectedError, match="no vertices" if not forest else "not connected"):
                g.spanning_tree()


def test_a_free_loose_edge_component_keeps_no_tree():
    for g in (LooseGraph.parse("loose2\nloose2\n"), triangle().disjoint_union(LooseGraph((), [()]))):
        free = [c for c in g.components() if not c.vertices]
        assert free
        for c in free:
            assert c._tree is None
            assert c.connected_tree() == frozenset()


def test_disjoint_union():
    g = corpus.path_graph(2, prefix="a").disjoint_union(corpus.path_graph(2, prefix="b"))
    assert len(g.components()) == 2
    with pytest.raises(GraphError):
        g.disjoint_union(g)


# -- property tests ----------------------------------------------------------------


@given(loose_graphs())
def test_any_graph_round_trips_through_text(g):
    assert LooseGraph.parse(g.render()) == g


@given(loose_graphs())
def test_resolving_any_edge_preserves_degrees(g):
    for e in g.full_edges:
        resolved = g.resolve_edge(e.tag)
        assert resolved.degrees() == g.degrees()
        assert len(resolved.edges) == len(g.edges) + 1


@given(loose_graphs())
def test_restricting_to_any_ball_preserves_the_center_degree(g):
    for v in g.vertices:
        assert g.restrict(g.ball(v, 1)).degree(v) == g.degree(v)


@given(loose_graphs())
def test_reduce_commutes_with_full_restriction(g):
    assert reduced(g.restrict(g.vertices)) == reduced(g)


@given(loose_graphs())
def test_components_partition_the_graph(g):
    parts = g.components()
    assert sum(len(p.vertices) for p in parts) == len(g.vertices)
    assert sum(len(p.edges) for p in parts) == len(g.edges)
