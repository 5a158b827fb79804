"""Graph corpora for verification: exhaustive small graphs, random graphs,
random loose trees, and spanning-tree enumeration.

Everything takes an explicit ``random.Random`` where randomness is
involved, so verification runs are reproducible from a seed.
"""

from __future__ import annotations

import heapq
import itertools
from math import comb
from random import Random

from .loose_graph import LooseGraph


def complete_graph(m: int, prefix: str = "v") -> LooseGraph:
    names = [f"{prefix}{i}" for i in range(m)]
    return LooseGraph(names, list(itertools.combinations(names, 2)))


def loose_star(m: int, center: str = "u") -> LooseGraph:
    """One vertex carrying m loose edges: an affine m-space."""
    return LooseGraph([center], [(center,)] * m)


def path_graph(m: int, prefix: str = "p") -> LooseGraph:
    names = [f"{prefix}{i}" for i in range(m)]
    return LooseGraph(names, list(zip(names, names[1:])))


def diamond() -> LooseGraph:
    """Two adjacent vertices with two common neighbors (K4 minus an edge)."""
    return LooseGraph(
        ["u", "v", "w1", "w2"],
        [("u", "v"), ("u", "w1"), ("v", "w1"), ("u", "w2"), ("v", "w2")],
    )


def exhaustive_loose_graphs(max_ambient: int = 5):
    """Every loose graph whose ambient completion has at most ``max_ambient``
    vertices, over canonical vertex names.

    Ambient size is |V| plus one per loose edge plus two per free loose
    edge; all edge subsets and all loose-edge placements within that budget
    are emitted, including the empty graph.
    """
    for names, specs in exhaustive_loose_specs(max_ambient):
        yield LooseGraph(names, specs)


def exhaustive_loose_specs(max_ambient: int = 5):
    """The ``(names, specs)`` constructor arguments of
    :func:`exhaustive_loose_graphs`, in its order, no graph built."""
    for n in range(max_ambient + 1):
        names = [f"v{i}" for i in range(n)]
        pairs = list(itertools.combinations(names, 2))
        for rows in itertools.chain.from_iterable(
            itertools.combinations(pairs, k) for k in range(len(pairs) + 1)
        ):
            budget = max_ambient - n
            for loose_total in range(budget + 1):
                for hosts in itertools.combinations_with_replacement(
                    names, loose_total
                ):
                    for free in range((budget - loose_total) // 2 + 1):
                        yield names, list(rows) + [(h,) for h in hosts] + [()] * free


def exhaustive_size(max_ambient: int) -> int:
    """How many graphs :func:`exhaustive_loose_specs` yields, in closed form:
    over n vertices, 2^C(n,2) edge sets times, for k loose edges, C(n+k-1, k)
    host multisets times (b - k) // 2 + 1 free-edge counts, b = max_ambient - n."""
    total = 0
    for n in range(max_ambient + 1):
        budget = max_ambient - n
        hosts = [comb(n + k - 1, k) for k in range(budget + 1)] if n else [1]
        total += 2 ** comb(n, 2) * sum(h * ((budget - k) // 2 + 1) for k, h in enumerate(hosts))
    return total


def random_loose_graph(rng: Random, max_ambient: int = 7) -> LooseGraph:
    """A random loose graph with ambient size at most ``max_ambient``."""
    return LooseGraph(*random_loose_specs(rng, max_ambient))


def random_loose_specs(rng: Random, max_ambient: int = 7) -> tuple:
    """The ``(names, specs)`` constructor arguments of
    :func:`random_loose_graph`, drawn from ``rng`` as it draws them."""
    n = rng.randint(0, min(5, max_ambient))
    names = [f"v{i}" for i in range(n)]
    density = rng.choice((0.2, 0.35, 0.5))
    specs = [p for p in itertools.combinations(names, 2) if rng.random() < density]
    budget = max_ambient - n
    loose_total = rng.randint(0, budget) if names else 0
    for _ in range(loose_total):
        specs.append((rng.choice(names),))
    budget -= loose_total
    for _ in range(rng.randint(0, budget // 2)):
        specs.append(())
    return names, specs


def random_labeled_tree(rng: Random, n: int, prefix: str = "t") -> LooseGraph:
    """Uniformly random labeled tree on n vertices via a Prufer sequence."""
    names = [f"{prefix}{i}" for i in range(n)]
    if n <= 1:
        return LooseGraph(names, [])
    if n == 2:
        return LooseGraph(names, [tuple(names)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for i in seq:
        degree[i] += 1
    edges = []
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    for i in seq:
        leaf = heapq.heappop(leaves)
        edges.append((names[leaf], names[i]))
        degree[i] -= 1
        if degree[i] == 1:
            heapq.heappush(leaves, i)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((names[u], names[v]))
    return LooseGraph(names, edges)


def random_loose_tree(
    rng: Random, max_vertices: int = 8, max_loose: int = 3
) -> LooseGraph:
    """A random labeled tree decorated with up to ``max_loose`` loose edges.

    Always has at least one edge (a single bare vertex gets a loose edge),
    so the closed tree formula applies without its degenerate override."""
    n = rng.randint(1, max_vertices)
    tree = random_labeled_tree(rng, n)
    names = sorted(tree.vertices)
    specs = [e.ends for e in tree.edges]
    low = 1 if n == 1 else 0
    for _ in range(rng.randint(low, max(low, max_loose))):
        specs.append((rng.choice(names),))
    return LooseGraph(names, specs)


def random_connected_graph(
    rng: Random,
    max_vertices: int = 5,
    min_extra_edges: int = 0,
    max_extra_edges: int = 3,
    max_loose: int = 2,
) -> LooseGraph:
    """A random connected loose graph: a labeled tree plus a few extra full
    edges and loose edges.  Extra edges stay at or below ``max_extra_edges``
    so every resolution order stays enumerable."""
    n = rng.randint(max(2, min(max_vertices, min_extra_edges + 2)), max_vertices)
    tree = random_labeled_tree(rng, n, prefix="c")
    names = sorted(tree.vertices)
    present = {e.ends for e in tree.edges}
    missing = [p for p in itertools.combinations(names, 2) if p not in present]
    rng.shuffle(missing)
    high = min(max_extra_edges, len(missing))
    extra = missing[: rng.randint(min(min_extra_edges, high), high)]
    specs = [e.ends for e in tree.edges] + extra
    for _ in range(rng.randint(0, max_loose)):
        specs.append((rng.choice(names),))
    return LooseGraph(names, specs)


def nonisomorphic_trees(max_vertices: int):
    """One loose graph per isomorphism class of trees on 1..max_vertices
    vertices.

    The trees on n vertices are those on n - 1 vertices with one leaf added
    anywhere, deduplicated by :func:`_canonical_tree`.
    """
    level = [[]]  # edge lists over vertices 0..n-1, here for n = 1
    for n in range(1, max_vertices + 1):
        if n > 1:
            grown = {}
            for edges in level:
                for v in range(n - 1):
                    bigger = edges + [(v, n - 1)]
                    grown.setdefault(_canonical_tree(n, bigger), bigger)
            level = list(grown.values())
        names = [f"n{i}" for i in range(n)]
        for edges in level:
            yield LooseGraph(names, [(names[u], names[v]) for u, v in edges])


def _canonical_tree(n: int, edges) -> str:
    """Aho-Hopcroft-Ullman string of a tree rooted at its centre (the
    smaller string if there are two centres); equal exactly for isomorphic
    trees."""
    adjacent = [[] for _ in range(n)]
    for u, v in edges:
        adjacent[u].append(v)
        adjacent[v].append(u)
    degree = [len(a) for a in adjacent]
    layer = [v for v in range(n) if degree[v] <= 1]
    remaining = n
    while remaining > 2:  # strip leaves until the one or two centres remain
        remaining -= len(layer)
        peeled = []
        for v in layer:
            for w in adjacent[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    peeled.append(w)
        layer = peeled

    def encode(v, parent):
        inner = sorted(encode(w, v) for w in adjacent[v] if w != parent)
        return "(" + "".join(inner) + ")"

    return min(encode(c, None) for c in layer)


def all_spanning_trees(g: LooseGraph):
    """Every spanning tree of the reduced graph, as frozensets of edge tags."""
    n = len(g.vertices)
    if n == 0:
        return
    for combo in itertools.combinations(g.full_edges, n - 1):
        if LooseGraph(g.vertices, [e.ends for e in combo]).is_loose_tree():
            yield frozenset(e.tag for e in combo)
