from collections import Counter

from f1zeta import corpus
from f1zeta.loose_graph import LooseGraph

# OEIS A000055: unlabeled trees on n = 1..10 vertices.
TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106]


def test_nonisomorphic_tree_counts():
    trees = list(corpus.nonisomorphic_trees(10))
    sizes = Counter(len(t.vertices) for t in trees)
    assert [sizes[n] for n in range(1, 11)] == TREE_COUNTS
    for t in trees:
        n = len(t.vertices)
        assert t.vertices == {f"n{i}" for i in range(n)}
        assert len(t.full_edges) == n - 1 and t.is_connected()


def test_all_spanning_trees_of_complete_graphs_follow_cayley():
    for n in range(1, 6):
        trees = list(corpus.all_spanning_trees(corpus.complete_graph(n)))
        assert len(set(trees)) == len(trees) == n ** (n - 2)


def test_all_spanning_trees_of_cycle_and_disconnected_graph():
    cycle = LooseGraph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    assert len(set(corpus.all_spanning_trees(cycle))) == 4
    assert list(corpus.all_spanning_trees(LooseGraph(["a", "b"], []))) == []


def test_exhaustive_size_counts_the_generated_corpus():
    assert [corpus.exhaustive_size(a) for a in range(6)] == [
        sum(1 for _ in corpus.exhaustive_loose_specs(a)) for a in range(6)
    ]
    sizes = [corpus.exhaustive_size(a) for a in range(6, 10)]
    assert sizes == [40_188, 2_352_072, 286_232_701, 71_216_135_738]
