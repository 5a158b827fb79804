"""Shared corpora for the test suite.

Session-scoped so the exhaustive and random graph families are generated
once; all randomness is seeded for reproducibility.
"""

from random import Random

import pytest

from f1zeta import corpus
from f1zeta.loose_graph import LooseGraph


@pytest.fixture(scope="session")
def corpus5():
    """Every loose graph with at most 5 ambient vertices."""
    return list(corpus.exhaustive_loose_graphs(5))


@pytest.fixture(scope="session")
def random200():
    """200 random loose graphs with at most 7 ambient vertices."""
    rng = Random(20260810)
    return [corpus.random_loose_graph(rng, max_ambient=7) for _ in range(200)]


@pytest.fixture(scope="session")
def loose_trees100():
    """100 random loose trees on up to 8 vertices with up to 3 loose edges."""
    rng = Random(424242)
    return [corpus.random_loose_tree(rng, max_vertices=8, max_loose=3) for _ in range(100)]


@pytest.fixture(scope="session")
def dense_graphs():
    """K_6..K_9, then seeded G(n, p) graphs with n <= 12, p >= 0.6 and one to
    three loose edges, where many ball vertices lie outside a step's support."""
    graphs = [corpus.complete_graph(m) for m in range(6, 10)]
    rng = Random(1212)
    for _ in range(10):
        n = rng.randint(8, 12)
        p = rng.uniform(0.6, 0.8)
        names = [f"d{i}" for i in range(n)]
        pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1:] if rng.random() < p]
        loose = [(rng.choice(names),) for _ in range(rng.randint(1, 3))]
        graphs.append(LooseGraph(names, pairs + loose))
    return graphs


def _sparse_text(rng, n):
    """Graph text shaped like the sparse benchmark inputs: three random
    recursive trees on n vertices, n/50 extra edges, n/4 loose edges and two
    free loose edges, each edge in a random orientation, lines shuffled."""
    names = [f"v{i}" for i in range(n)]
    rng.shuffle(names)
    cuts = (0, n // 2, n // 2 + n // 3, n)
    parts = [names[a:b] for a, b in zip(cuts, cuts[1:])]
    pairs = {frozenset((part[i], part[rng.randrange(i)])) for part in parts for i in range(1, len(part))}
    wanted = len(pairs) + n // 50
    while len(pairs) < wanted:
        pairs.add(frozenset(rng.sample(rng.choice(parts), 2)))
    lines = ["edge " + " ".join(rng.sample(sorted(p), 2)) for p in sorted(pairs, key=sorted)]
    lines += [f"loose {rng.choice(names)}" for _ in range(n // 4)] + ["loose2"] * 2
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def sparse_text():
    """:func:`_sparse_text`, for tests that draw their own sparse graphs."""
    return _sparse_text
