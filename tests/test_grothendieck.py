import math
from collections import Counter
from itertools import combinations, permutations
from random import Random

import pytest

from f1zeta import corpus
from f1zeta.grothendieck import (
    L,
    class_of,
    resolution_difference,
    surgery,
    surgery_class,
    tree_class,
)
from f1zeta.loose_graph import Edge, GraphError, LooseGraph, NotConnectedError
from f1zeta.poly import IntPolynomial


def poly(coeffs):
    return IntPolynomial(coeffs, var="L")


# -- class_of on the classical examples -----------------------------------------


@pytest.mark.parametrize("m", range(1, 6))
def test_complete_graph_class(m):
    expected = poly({k: 1 for k in range(m + 1)})
    assert class_of(corpus.complete_graph(m + 1)) == expected


def test_diamond_class():
    assert class_of(corpus.diamond()) == poly({3: 1, 2: 1, 0: 2})


def test_resolved_diamond_class():
    g = corpus.diamond()
    uv = next(e.tag for e in g.full_edges if e.ends == ("u", "v"))
    assert class_of(g.resolve_edge(uv)) == poly({3: 2, 2: 2, 1: -4, 0: 4})


@pytest.mark.parametrize("m", range(1, 6))
def test_loose_star_class_is_affine_space(m):
    assert class_of(corpus.loose_star(m)) == poly({m: 1})


def test_free_loose_edge_is_a_multiplicative_group():
    assert class_of(LooseGraph((), [()])) == L - 1


def test_path_class():
    # brute-force count over F_2 gives 6 = value at 2
    p = class_of(corpus.path_graph(3))
    assert p == poly({2: 1, 0: 2})
    assert p(2) == 6


def test_empty_and_point_classes():
    assert class_of(LooseGraph()) == poly(0)
    assert class_of(LooseGraph(["a"], [])) == poly(1)


def test_additivity_over_disjoint_union():
    a = corpus.complete_graph(3, prefix="a")
    b = corpus.loose_star(2, center="z")
    assert class_of(a.disjoint_union(b)) == class_of(a) + class_of(b)


def test_projective_completion_identity():
    # affine n-space plus a projective (n-1)-space make a projective n-space
    for n in range(1, 7):
        affine = class_of(corpus.loose_star(n))
        smaller = class_of(corpus.complete_graph(n))
        bigger = class_of(corpus.complete_graph(n + 1))
        assert affine + smaller == bigger


def _class_by_ambient_hoods(g):
    """The definition: each clique T with common closed neighbourhood S in
    the ambient completion adds (-1)^(|T|+1) (L-1)^(|T|-1) L^(|S|-|T|)."""
    ambient = g.ambient_completion().graph
    total = (L - 1) * len(g.free_edges)
    for clique in g.cliques():
        common = frozenset.intersection(*(ambient.closed_neighborhood(v) for v in clique))
        k = len(clique)
        total = total + (-1) ** (k + 1) * (L - 1) ** (k - 1) * L ** (len(common) - k)
    return total


def _with_more_loose_edges(g, rng):
    hosts = sorted(g.vertices)
    extra = [(rng.choice(hosts),) for _ in range(rng.randint(2, 4))] if hosts else []
    return LooseGraph(g.vertices, [e.ends for e in g.edges] + extra + [()] * rng.randint(1, 2))


def test_class_matches_ambient_definition(corpus5, random200, dense_graphs):
    rng = Random(11)
    piled = [_with_more_loose_edges(g, rng) for g in random200]
    piled.append(LooseGraph(["a", "b"], [("a", "b"), ("a",), ("a",), ("a",), (), ()]))
    # Cliques of five and more vertices, each common neighbourhood an AND of
    # as many masks.
    dense = dense_graphs + [corpus.complete_graph(m) for m in range(10, 13)]
    for g in corpus5 + random200 + piled + dense:
        assert class_of(g) == _class_by_ambient_hoods(g), g.render()


def _class_by_binomial_expansion(g):
    """Each clique tallied by (|T|, |S|), then every ±(L-1)^(k-1) L^(s-k)
    expanded binomially, one (k, s) pair at a time."""
    bit = {v: 1 << i for i, v in enumerate(sorted(g.vertices))}
    hood = {v: sum(bit[w] for w in g.closed_neighborhood(v)) for v in bit}
    loose = Counter(e.ends[0] for e in g.loose_edges)
    tally = Counter()
    for clique in g.cliques():
        common = -1
        for v in clique:
            common &= hood[v]
        s = common.bit_count() + (loose[clique[0]] if len(clique) == 1 else 0)
        tally[len(clique), s] += 1
    coeffs = Counter({1: len(g.free_edges), 0: -len(g.free_edges)})
    for (k, s), n in tally.items():
        sign = n if k % 2 else -n
        for j in range(k):
            coeffs[s - k + j] += sign * math.comb(k - 1, j) * (-1) ** (k - 1 - j)
    return IntPolynomial(coeffs, var="L")


def _path_with_loose_edges(n, loose, seed):
    names = [f"v{i}" for i in range(n)]
    rng = Random(seed)
    return LooseGraph(names, list(zip(names, names[1:])) + [(rng.choice(names),) for _ in range(loose)])


def _sparse_with_planted_cliques(n, sizes, seed):
    """A graph of the benchmark's sparse shape (three random recursive
    trees, n/50 extra edges, n/4 loose edges, two free loose edges) with a
    clique planted on consecutive vertices at the start, the middle and the
    end of the adjacency order, one of each size in ``sizes`` in turn.  The
    full edges are handed in shuffled, so each clique's edges get scattered
    tags."""
    rng = Random(seed)
    names = [f"v{i}" for i in range(n)]
    order = rng.sample(names, n)
    cuts = (0, n // 2, n // 2 + n // 3, n)
    parts = [order[a:b] for a, b in zip(cuts, cuts[1:])]
    pairs = {frozenset((part[i], part[rng.randrange(i)])) for part in parts for i in range(1, len(part))}
    trees = len(pairs)
    while len(pairs) < trees + n // 50:
        part = rng.choices(parts, weights=[len(p) for p in parts])[0]
        pairs.add(frozenset(rng.sample(part, 2)))
    for size, start in zip(sizes, (0, n // 2, n - 5)):
        pairs.update(map(frozenset, combinations(names[start : start + size], 2)))
    full = sorted(tuple(sorted(p)) for p in pairs)
    rng.shuffle(full)
    loose = [(rng.choice(names),) for _ in range(n // 4)]
    return LooseGraph(names, full + loose + [(), ()])


def test_class_matches_binomial_expansion(corpus5, random200, dense_graphs):
    complete = [corpus.complete_graph(m) for m in range(13)]  # K_0 is the empty graph
    stars = [corpus.loose_star(m) for m in range(1, 7)]
    # class_of's rows are as wide as its widest singleton: here a's,
    # |N̄(a)| - 1 + 5 = 6, from its loose edges; an isolated vertex; free
    # loose edges only; a long path with loose edges.
    narrow = [
        LooseGraph(["a", "b", "c"], [("a", "b"), ("b", "c")] + [("a",)] * 5),
        LooseGraph(["a"], []),
        LooseGraph((), [(), ()]),
        _path_with_loose_edges(2000, 500, seed=5),
    ]
    # class_of walks each clique of size 3 or more from its two lowest-bit
    # vertices, so K_3, K_4 and K_5 each take every position in turn.
    planted = [
        _sparse_with_planted_cliques(300, sizes, seed)
        for seed, sizes in enumerate(permutations((3, 4, 5)))
    ]
    for g in corpus5 + random200 + dense_graphs + complete + stars + narrow + planted + [LooseGraph((), [()])]:
        assert class_of(g) == _class_by_binomial_expansion(g), g.render()


def test_triangle_free_class_is_degrees_and_edges():
    """With no triangle, the cliques are the vertices and the full edges,
    and an edge uv has S = {u, v}: the class is Σ_v L^deg(v) less
    (full edges - free loose edges)·(L - 1).  Here on a bipartite graph of
    20,000 vertices: a random recursive tree plus edges between its two
    colour classes, with loose and free loose edges.  The reference counts
    degrees from the edge lists, not from the graph."""
    rng = Random(34)
    n = 20000
    names = [f"b{i}" for i in range(n)]
    colour = [0]
    pairs = set()
    for i in range(1, n):
        parent = rng.randrange(i)
        colour.append(1 - colour[parent])
        pairs.add((names[parent], names[i]))
    sides = ([v for v, c in zip(names, colour) if c == 0], [v for v, c in zip(names, colour) if c == 1])
    while len(pairs) < n - 1 + n // 2:
        u, v = rng.choice(sides[0]), rng.choice(sides[1])
        if (v, u) not in pairs:
            pairs.add((u, v))
    loose = [(rng.choice(names),) for _ in range(n // 4)]
    free = 3
    g = LooseGraph(names, sorted(pairs) + loose + [()] * free)
    degrees = Counter(v for ends in [*pairs, *loose] for v in ends)
    coeffs = Counter(degrees[v] for v in names)
    coeffs[1] -= len(pairs) - free
    coeffs[0] += len(pairs) - free
    assert class_of(g) == poly(coeffs)


def test_vertex_count_and_degree(random200):
    for g in random200:
        p = class_of(g)
        assert p(1) == len(g.vertices)
        if g.vertices and any(g.degree(v) for v in g.vertices):
            assert p.degree == max(g.degrees().values())


# -- tree formula ------------------------------------------------------------------


def test_tree_class_path():
    assert tree_class(corpus.path_graph(3)) == poly({2: 1, 0: 2})


def test_tree_class_single_edge():
    assert tree_class(LooseGraph(["a", "b"], [("a", "b")])) == L + 1


@pytest.mark.parametrize("m", range(1, 6))
def test_tree_class_loose_star(m):
    assert tree_class(corpus.loose_star(m)) == poly({m: 1})


def test_tree_class_degenerate_cases():
    assert tree_class(LooseGraph(["a"], [])) == poly(1)
    assert tree_class(LooseGraph()) == poly(0)
    assert tree_class(LooseGraph((), [()])) == L - 1


def test_tree_class_rejects_cycles():
    with pytest.raises(GraphError):
        tree_class(corpus.complete_graph(3))


def test_tree_class_matches_clique_route(loose_trees100):
    for g in loose_trees100:
        assert tree_class(g) == class_of(g)


# -- locality of resolution ---------------------------------------------------------


def test_resolution_difference_triangle():
    g = corpus.complete_graph(3)
    assert resolution_difference(g, 0) == poly({2: -2, 1: 3, 0: -1})


def test_resolution_difference_diamond():
    g = corpus.diamond()
    uv = next(e.tag for e in g.full_edges if e.ends == ("u", "v"))
    assert resolution_difference(g, uv) == poly({3: -1, 2: -1, 1: 4, 0: -2})


def test_resolution_difference_single_edge():
    g = LooseGraph(["a", "b"], [("a", "b")])
    assert resolution_difference(g, 0) == 1 - L


def test_resolution_difference_rejects_loose_edges():
    g = corpus.loose_star(1)
    with pytest.raises(GraphError):
        resolution_difference(g, 0)


def test_resolution_difference_errors():
    g = LooseGraph(["a", "b"], [("a",), ("a", "b")])
    with pytest.raises(GraphError, match=r"^edge 0 is loose and cannot be resolved$"):
        resolution_difference(g, 0)
    with pytest.raises(GraphError, match=r"^unknown edge tag 17$"):
        resolution_difference(g, 17)
    with pytest.raises(GraphError, match=r"^unknown edge tag '0'$"):
        resolution_difference(g, "0")


def test_resolution_difference_equals_global_difference(random200):
    for g in random200[:60]:
        for e in g.full_edges:
            local = resolution_difference(g, e.tag)
            globl = class_of(g) - class_of(g.resolve_edge(e.tag))
            assert local == globl


def test_cliques_through_an_edge_are_classed_by_its_link(corpus5, random200, dense_graphs):
    # The cliques T of g holding both ends of xy are {x, y} ∪ A, A empty or
    # a clique of the plain graph on C = N(x) ∩ N(y); their clique terms sum
    # to (1 - L)·L^|C| + (1 - L)²·class_of(G[C]).
    for g in corpus5 + random200[:60] + dense_graphs:
        cliques = g.cliques()
        for e in g.full_edges:
            x, y = e.ends
            through = poly(0)
            for clique in cliques:
                if x in clique and y in clique:
                    k = len(clique)
                    common = frozenset.intersection(*map(g.closed_neighborhood, clique))
                    through += (-1) ** (k + 1) * (L - 1) ** (k - 1) * L ** (len(common) - k)
            common = g.neighbors(x) & g.neighbors(y)
            link = LooseGraph(common, [f.ends for f in g.full_edges if set(f.ends) <= common])
            expected = (1 - L) * L ** len(common) + (1 - L) ** 2 * class_of(link)
            assert through == expected, (g.render(), e.ends)


# -- surgery ---------------------------------------------------------------------


def test_surgery_triangle():
    p, trace = surgery(corpus.complete_graph(3))
    assert p == poly({2: 1, 1: 1, 0: 1})
    assert len(trace.steps) == 1


def test_surgery_k4_and_diamond():
    assert surgery(corpus.complete_graph(4))[0] == poly({k: 1 for k in range(4)})
    assert surgery(corpus.diamond())[0] == poly({3: 1, 2: 1, 0: 2})


def test_surgery_trace_bookkeeping():
    g = corpus.complete_graph(4)
    p, trace = surgery(g)
    total = trace.final_tree_class
    for step in trace.steps:
        total = total + step.difference
    assert total == p
    final = g
    for step in trace.steps:
        final = final.resolve_edge(step.tag)
    assert trace.final_tree_class == tree_class(final)
    assert trace.spanning_tree == g.spanning_tree()


def test_surgery_handles_free_edge_component_alone():
    p, trace = surgery(LooseGraph((), [()]))
    assert p == L - 1
    assert trace.steps == ()


def test_surgery_keeps_a_loose_tree_as_its_final_tree(monkeypatch, loose_trees100):
    built = []
    assemble = LooseGraph._assemble

    def counting_assemble(self, *args, **kwargs):
        built.append(assemble(self, *args, **kwargs))
        return self

    for g in loose_trees100:
        monkeypatch.setattr(LooseGraph, "_assemble", counting_assemble)
        p, trace = surgery(g)
        monkeypatch.undo()
        assert trace.steps == ()
        assert built == []
        assert p == tree_class(g)


def test_surgery_rejects_disconnected_input():
    triangle_and_edge = corpus.complete_graph(3, prefix="a").disjoint_union(
        LooseGraph(["x", "y"], [("x", "y")])
    )
    forest = frozenset().union(*(c.spanning_tree() for c in triangle_and_edge.components()))
    cases = [
        (LooseGraph(["a", "b"], []), None),
        (triangle_and_edge, None),
        (corpus.complete_graph(3).disjoint_union(LooseGraph((), [()])), None),
        (LooseGraph((), [(), ()]), None),
        (LooseGraph(), None),
        (triangle_and_edge, forest),
        (triangle_and_edge, frozenset()),
    ]
    for g, tree in cases:
        with pytest.raises(NotConnectedError) as info:
            surgery(g, tree=tree)
        assert str(info.value) == "surgery needs a connected graph", g.render()


def test_surgery_class_sums_components():
    g = corpus.complete_graph(3, prefix="a").disjoint_union(LooseGraph((), [()]))
    assert surgery_class(g) == class_of(g)


def test_surgery_validates_tree_and_order():
    g = corpus.complete_graph(3)
    with pytest.raises(GraphError):
        surgery(g, tree={0, 1, 2})
    with pytest.raises(GraphError):
        surgery(g, tree={0})
    tree = g.spanning_tree()
    (extra,) = {e.tag for e in g.full_edges} - tree
    # an unknown tag, a tree tag, a repeated tag
    for order in ([99], [min(tree)], [extra, extra]):
        with pytest.raises(GraphError, match="^order must permute the non-tree full edges$"):
            surgery(g, tree=tree, order=order)
    loose = LooseGraph(g.vertices, [*g.full_edges, Edge(7, (min(g.vertices),))])
    with pytest.raises(GraphError, match="^order must permute the non-tree full edges$"):
        surgery(loose, tree=tree, order=[extra, 7])
    k4 = corpus.complete_graph(4)
    first, *others = sorted({e.tag for e in k4.full_edges} - k4.spanning_tree())
    # mixed-type tags, an unhashable tag beside valid ones, a missing tag, a
    # repeated tag; against a given tree and against the default one
    for order in ([first, "a", *others], [[first], *others], others, [first, first, *others]):
        for given in (k4.spanning_tree(), None):
            with pytest.raises(GraphError, match="^order must permute the non-tree full edges$"):
                surgery(k4, tree=given, order=order)
    vertexless = LooseGraph((), [()])
    for bad in ({5}, {0}):  # an unknown tag; the free loose edge's tag
        with pytest.raises(GraphError):
            surgery(vertexless, tree=bad)
    poly, trace = surgery(vertexless, tree=())
    assert trace.spanning_tree == frozenset()
    assert poly == class_of(vertexless)


def test_surgery_rejects_a_cyclic_tree_of_the_right_size():
    g = corpus.diamond()
    tags = {e.ends: e.tag for e in g.full_edges}
    cycle = {tags["u", "v"], tags["u", "w1"], tags["v", "w1"]}
    with pytest.raises(GraphError):
        surgery(g, tree=cycle)


def test_surgery_spanning_tree_and_order_independence():
    rng = Random(5)
    for _ in range(5):
        g = corpus.random_connected_graph(rng, min_extra_edges=1)
        expected = class_of(g)
        for tree in corpus.all_spanning_trees(g):
            extra = [e.tag for e in g.full_edges if e.tag not in tree]
            for order in permutations(extra):
                assert surgery(g, tree=tree, order=order)[0] == expected


def _random_spanning_tree(rng, g):
    """The tags of a spanning tree of the connected ``g``: Kruskal's rule over
    its full edges in a random order."""
    root = {v: v for v in g.vertices}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    edges = list(g.full_edges)
    rng.shuffle(edges)
    tree = set()
    for e in edges:
        a, b = map(find, e.ends)
        if a != b:
            root[a] = b
            tree.add(e.tag)
    return tree


def test_surgery_with_a_given_tree_and_order_matches_the_default():
    rng = Random(12)
    # shaped as the smallest dense_compute input: 12 vertices at density
    # 0.8, three loose edges and one free loose edge
    names = [f"v{i}" for i in range(12)]
    pairs = sorted(rng.sample(list(combinations(names, 2)), round(0.8 * 66)))
    dense = LooseGraph(names, [*pairs, *((rng.choice(names),) for _ in range(3)), ()])
    k4 = corpus.complete_graph(4)
    cases = [(k4, tree) for tree in corpus.all_spanning_trees(k4)]
    cases += [(part, _random_spanning_tree(rng, part)) for part in dense.components() for _ in range(4)]
    for part, tree in cases:
        order = [e.tag for e in part.full_edges if e.tag not in tree]
        rng.shuffle(order)
        poly, trace = surgery(part, tree=tree, order=order)
        assert poly == surgery(part)[0] == class_of(part)
        assert trace.spanning_tree == tree
        assert [step.tag for step in trace.steps] == order


def test_surgery_agrees_with_class(random200):
    for g in random200[:80]:
        assert surgery_class(g) == class_of(g)


# -- surgery against a whole-graph stepwise loop ------------------------------------


def _stepwise_surgery(g, tags):
    """Surgery on whole graphs: resolve the edge, restrict the old and the new
    graph to the ball around it, and take both classes."""
    current = g
    steps = []
    for tag in tags:
        resolved = current.resolve_edge(tag)
        x, y = ends = current.edge(tag).ends
        ball = current.ball(x, 1) | current.ball(y, 1)
        difference = class_of(current.restrict(ball)) - class_of(resolved.restrict(ball))
        steps.append((tag, ends, ball, difference))
        current = resolved
    return steps, current


def _assert_matches_stepwise(g, tree=None, order=None):
    _, trace = surgery(g, tree=tree, order=order)
    if order is None:
        extra = [e for e in g.full_edges if e.tag not in trace.spanning_tree]
        order = [e.tag for e in sorted(extra, key=lambda e: e.ends)]
    steps, final = _stepwise_surgery(g, order)
    assert [(s.tag, s.ends, s.ball, s.difference) for s in trace.steps] == steps, g.render()
    assert trace.final_tree_class == tree_class(final), g.render()


def test_surgery_steps_match_stepwise_loop(corpus5, random200):
    for g in corpus5:
        if g.is_connected():
            _assert_matches_stepwise(g)
    for g in random200:
        for part in g.components():
            _assert_matches_stepwise(part)


def test_surgery_steps_match_stepwise_loop_over_every_tree_and_order():
    rng = Random(20261018)
    for _ in range(20):
        g = corpus.random_connected_graph(rng, min_extra_edges=1, max_extra_edges=3)
        for tree in corpus.all_spanning_trees(g):
            extra = [e.tag for e in g.full_edges if e.tag not in tree]
            for order in permutations(extra):
                _assert_matches_stepwise(g, tree=tree, order=order)


def test_dense_surgery_steps_match_stepwise_loop(dense_graphs):
    # The walk keeps each vertex's closed-neighbourhood mask from step to
    # step; shuffled orders revisit an end at every distance from its last
    # step, so a mask left stale shows as a wrong difference.
    rng = Random(20261019)
    for g in [corpus.complete_graph(7), corpus.complete_graph(8), *dense_graphs]:
        for part in g.components():
            _assert_matches_stepwise(part)
            if not part.vertices:
                continue
            tree = part.spanning_tree()
            extra = [e.tag for e in part.full_edges if e.tag not in tree]
            for _ in range(3):
                rng.shuffle(extra)
                _assert_matches_stepwise(part, tree=tree, order=extra)


def test_surgery_builds_ball_graphs_and_no_final_tree(monkeypatch):
    rng = Random(8)
    tree = corpus.random_labeled_tree(rng, 200, prefix="s")
    names = sorted(tree.vertices)
    present = {e.ends for e in tree.edges}
    extra = set()
    while len(extra) < 100:
        pair = tuple(sorted(rng.sample(names, 2)))
        if pair not in present:
            extra.add(pair)
    loose = [(rng.choice(names),) for _ in range(20)]
    g = LooseGraph(names, [e.ends for e in tree.edges] + sorted(extra) + loose)

    # Every graph, checked or derived, is filled in by _assemble.
    sizes = []
    assemble = LooseGraph._assemble

    def counting_assemble(self, *args, **kwargs):
        sizes.append(len(assemble(self, *args, **kwargs).edges))
        return self

    records = []
    edge_init = Edge.__init__

    def counting_edge_init(self, *args, **kwargs):
        edge_init(self, *args, **kwargs)
        records.append(self)

    monkeypatch.setattr(LooseGraph, "_assemble", counting_assemble)
    monkeypatch.setattr(Edge, "__init__", counting_edge_init)
    _, trace = surgery(g)
    monkeypatch.undo()

    # Resolution keeps every degree, so a step graph, on part of its ball,
    # has at most as many edges as the degrees in the ball add up to.
    degree = g.degrees()
    ball_bound = max(sum(degree[v] for v in s.ball) for s in trace.steps)
    assert len(trace.steps) == 100 and ball_bound < len(g.edges)
    # One graph per step whose link, the plain graph on the common
    # neighbours of the resolved edge's ends, has an edge; a step whose link
    # is empty or edgeless assembles none.  On this sparse input no link has
    # an edge, so surgery assembles no graph at all.
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    kinds = Counter()
    for step in trace.steps:
        x, y = step.ends
        kinds[_link_kind(adj, adj[x] & adj[y])] += 1
        adj[x].remove(y)
        adj[y].remove(x)
    assert kinds["empty"] > 0 and kinds["edgeless"] > 0
    assert len(sizes) == kinds["edged"] == 0

    # The links reuse the graph's own edge records, and no step builds the
    # resolved graph, so surgery makes no edge record at all.
    assert len(records) == 0


def test_surgery_step_graphs_live_on_the_support(monkeypatch, random200, dense_graphs):
    built = []
    assemble = LooseGraph._assemble

    def recording_assemble(self, *args, **kwargs):
        assemble(self, *args, **kwargs)
        built.append((self.vertices, {(e.tag, e.ends) for e in self.edges}))
        return self

    graphs = dense_graphs + [corpus.diamond()]
    graphs += [part for g in random200 for part in g.components()]
    kinds = Counter()
    for g in graphs:
        monkeypatch.setattr(LooseGraph, "_assemble", recording_assemble)
        built.clear()
        _, trace = surgery(g)
        monkeypatch.undo()

        adj = {v: set(g.neighbors(v)) for v in g.vertices}
        tag_of = {e.ends: e.tag for e in g.full_edges}
        expected = []
        for step in trace.steps:
            x, y = step.ends
            common = adj[x] & adj[y]
            # The link: the common neighbours of x and y and the current
            # graph's full edges between them, with their tags; a step
            # whose link is empty or edgeless assembles none.
            edges = {
                (tag, (v, w))
                for (v, w), tag in tag_of.items()
                if w in adj[v] and {v, w} <= common
            }
            kinds[_link_kind(adj, common)] += 1
            if edges:
                expected.append((common, edges))
            assert step.ball == {x, y} | adj[x] | adj[y]
            adj[x].remove(y)
            adj[y].remove(x)
        assert built == expected, g.render()
    assert kinds["edgeless"] > 0 and kinds["edged"] > 0


def _link_kind(adj, common) -> str:
    """Whether the link on ``common`` is empty, edgeless or has an edge,
    ``adj`` being the current graph's vertex -> neighbour sets."""
    if not common:
        return "empty"
    return "edged" if any(adj[c] & common for c in common) else "edgeless"


# -- metamorphic relations on the benchmark's shapes --------------------------------
#
# The oracle stops at a few ambient vertices, so on graphs of the benchmark's
# sizes these relations are the check: a graph's class, and its cliques, do
# not depend on the names of its vertices, the order they and the edges come
# in, or the order the adjacency was built in; classes add over disjoint
# unions; surgery's polynomial does not depend on its spanning tree or the
# order of its steps; and one resolution step's difference is the change of
# class.


def _tree_plus_half(rng, n):
    """A random recursive tree on n vertices, n/2 extra edges, n/4 loose
    edges and two free loose edges: the shape of the sparse benchmark."""
    names = [f"v{i}" for i in range(n)]
    pairs = [(names[rng.randrange(i)], names[i]) for i in range(1, n)]
    seen = set(map(frozenset, pairs))
    while len(pairs) < n - 1 + n // 2:
        pair = rng.sample(names, 2)
        if frozenset(pair) not in seen:
            seen.add(frozenset(pair))
            pairs.append(tuple(pair))
    loose = [(rng.choice(names),) for _ in range(n // 4)]
    return LooseGraph(names, pairs + loose + [()] * 2)


def _dense(rng, n, p):
    """G(n, p) with three loose edges and a free loose edge: the shape of
    the dense benchmark."""
    names = [f"d{i}" for i in range(n)]
    pairs = [pair for pair in combinations(names, 2) if rng.random() < p]
    loose = [(rng.choice(names),) for _ in range(3)]
    return LooseGraph(names, pairs + loose + [()])


def _renamed(g, rng):
    """``g`` with its vertices renamed at random, handed to the constructor
    in random order with its edges shuffled and each full edge's ends in
    random order; and the map from the new names back to the old."""
    old = sorted(g.vertices)
    new = [f"w{k}" for k in rng.sample(range(len(old)), len(old))]
    name = dict(zip(old, new))
    edges = [tuple(name[v] for v in e.ends) for e in g.edges]
    edges = [ends[::-1] if rng.random() < 0.5 else ends for ends in edges]
    rng.shuffle(edges)
    rng.shuffle(new)
    return LooseGraph(new, edges), {w: v for v, w in name.items()}


@pytest.fixture(scope="module")
def benchmark_shapes():
    rng = Random(2015)
    sparse = [_tree_plus_half(rng, n) for n in (250, 500, 1000, 2000)]
    dense = [_dense(rng, n, p) for _ in range(3)
             for n, p in ((12, 0.8), (14, 0.7), (16, 0.6), (19, 0.5), (22, 0.45))]
    return [(g, *_renamed(g, rng)) for g in sparse + dense]


def test_renaming_and_shuffling_keep_the_class_and_the_cliques(benchmark_shapes):
    for g, h, back in benchmark_shapes:
        assert class_of(h) == class_of(g), g.render()
        assert surgery_class(h) == surgery_class(g), g.render()
        assert {tuple(sorted(back[v] for v in c)) for c in h.cliques()} == set(g.cliques())


def test_classes_add_over_disjoint_unions_of_benchmark_shapes(benchmark_shapes):
    # each graph beside the renamed copy of the next, so the names differ
    renamed = [h for _, h, _ in benchmark_shapes]
    for (g, _, _), h in zip(benchmark_shapes, renamed[1:] + renamed[:1]):
        assert class_of(g.disjoint_union(h)) == class_of(g) + class_of(h)


def _random_spanning_tree(rng, g):
    """The tags of a spanning tree of the connected ``g``: Kruskal's rule
    over its full edges in a random order."""
    root = {v: v for v in g.vertices}

    def find(v):
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    tree = set()
    for e in rng.sample(g.full_edges, len(g.full_edges)):
        u, v = map(find, e.ends)
        if u != v:
            root[u] = v
            tree.add(e.tag)
    return tree


def test_surgery_does_not_depend_on_the_tree_or_the_order(benchmark_shapes):
    rng = Random(2016)
    for g, _, _ in benchmark_shapes:
        for part in g.components():
            tree = _random_spanning_tree(rng, part)
            order = [e.tag for e in part.full_edges if e.tag not in tree]
            rng.shuffle(order)
            assert surgery(part, tree=tree, order=order)[0] == surgery(part)[0], part.render()


def test_resolution_difference_is_the_change_of_class(benchmark_shapes):
    rng = Random(2017)
    for g, _, _ in benchmark_shapes:
        whole = class_of(g)
        for e in rng.sample(g.full_edges, 5):
            expected = whole - class_of(g.resolve_edge(e.tag))
            assert resolution_difference(g, e.tag) == expected, (g.render(), e)
