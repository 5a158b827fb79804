from fractions import Fraction
from random import Random

import pytest

from f1zeta import corpus, oracle
from f1zeta.grothendieck import class_of
from f1zeta.loose_graph import LooseGraph
from f1zeta.oracle import (
    CountTable,
    InterpolationError,
    OracleLimitError,
    count_table,
    cross_check,
    enumerate_points,
    first_primes,
    interpolate,
)
from f1zeta.poly import IntPolynomial
from f1zeta.qanalog import _prime_power_base


def test_first_primes():
    assert first_primes(6) == [2, 3, 5, 7, 11, 13]


# -- enumeration ------------------------------------------------------------------


def test_enumerate_triangle_covers_the_projective_plane():
    assert enumerate_points(corpus.complete_graph(3), 2) == 7
    assert enumerate_points(corpus.complete_graph(3), 3) == 13


def test_enumerate_diamond():
    assert enumerate_points(corpus.diamond(), 2) == 14


def test_enumerate_loose_star_is_an_affine_plane():
    assert enumerate_points(corpus.loose_star(2), 3) == 9


def test_enumerate_free_edges_and_empty_graph():
    assert enumerate_points(LooseGraph((), [()]), 5) == 4
    assert enumerate_points(LooseGraph((), [(), ()]), 3) == 4
    assert enumerate_points(LooseGraph(), 3) == 0


def test_enumerate_adding_isolated_vertex_adds_one():
    g = corpus.diamond()
    bigger = LooseGraph(list(g.vertices) + ["iso"], [e.ends for e in g.edges])
    for q in (2, 3, 5):
        assert enumerate_points(bigger, q) == enumerate_points(g, q) + 1


def test_enumerate_across_chunk_boundaries():
    g = corpus.complete_graph(7)  # 7^7 coordinate vectors
    assert enumerate_points(g, 7) == class_of(g)(7)


@pytest.mark.parametrize("q", [7, 11])
def test_enumerate_matches_the_class_over_larger_primes(q):
    for g in corpus.exhaustive_loose_graphs(4):
        assert enumerate_points(g, q) == class_of(g)(q), g.render()


def test_enumerate_limits():
    big = corpus.complete_graph(9)
    with pytest.raises(OracleLimitError):
        enumerate_points(big, 2)
    with pytest.raises(OracleLimitError):
        enumerate_points(corpus.complete_graph(8), 11)
    with pytest.raises(ValueError, match="q = 6 is not a prime power") as exc:
        enumerate_points(corpus.diamond(), 6)  # an input error, not a size limit
    assert not isinstance(exc.value, OracleLimitError)


@pytest.mark.parametrize("q", [4, 8, 9])
def test_enumerate_counts_over_prime_power_fields(q):
    for g in (corpus.diamond(), corpus.complete_graph(4)):
        assert enumerate_points(g, q) == class_of(g)(q), g.render()


# -- count tables --------------------------------------------------------------------


def test_count_table_csv():
    table = count_table(corpus.complete_graph(3), [2, 3], graph_id="triangle")
    assert table.to_csv() == "q,count\n2,7\n3,13\n"


def test_count_table_validation():
    with pytest.raises(ValueError):
        CountTable("x", ((2, 7), (2, 7)))
    with pytest.raises(ValueError):
        CountTable("x", ((6, 7),))
    with pytest.raises(ValueError):
        CountTable("x", ((2, -1),))
    for samples in (((2.5, 7.9),), ((2, 7.0),), (("3", 13),)):
        with pytest.raises(TypeError):  # not truncated to an int
            CountTable("x", samples)


def test_count_table_names_the_field_size_that_is_not_a_prime_power():
    with pytest.raises(ValueError, match="^q = 6 is not a prime power$") as exc:
        CountTable("x", ((2, 7), (6, 43)))
    assert not isinstance(exc.value, OracleLimitError)


# -- interpolation ---------------------------------------------------------------------


def test_interpolate_squares():
    table = CountTable("plane", ((2, 4), (3, 9), (5, 25)))
    assert interpolate(table) == IntPolynomial({2: 1})


def test_interpolate_line_counts():
    table = CountTable("line", ((2, 3), (3, 4)))
    assert interpolate(table) == IntPolynomial({1: 1, 0: 1})


def test_interpolate_diamond_counts():
    table = count_table(corpus.diamond(), [2, 3, 5, 7])
    assert interpolate(table) == IntPolynomial({3: 1, 2: 1, 0: 2})


def test_interpolate_rejects_non_integer_fit():
    table = CountTable("bad", ((2, 4), (5, 6)))
    with pytest.raises(InterpolationError):
        interpolate(table)


def _lagrange(table):
    """Reference interpolation: the Lagrange form, expanded basis by basis
    in exact fractions, raising as :func:`interpolate` is documented to."""
    xs = [q for q, _ in table.samples]
    if not xs:
        raise InterpolationError("no samples to interpolate")
    coeffs = [Fraction(0)] * len(xs)
    for i, (xi, yi) in enumerate(table.samples):
        basis = [Fraction(yi)]  # yi * prod_{j != i} (X - x_j) / (x_i - x_j)
        for xj in xs[:i] + xs[i + 1:]:
            shifted = [Fraction(0)] + basis
            for k, c in enumerate(basis):
                shifted[k] -= c * xj
            basis = [c / (xi - xj) for c in shifted]
        coeffs = [a + b for a, b in zip(coeffs, basis)]
    if any(c.denominator != 1 for c in coeffs):
        raise InterpolationError(
            f"non-integer coefficients {coeffs} for {table.graph_id}: "
            "counting model violated"
        )
    return IntPolynomial({k: int(c) for k, c in enumerate(coeffs)}, var="L")


def _outcome(fit, table):
    try:
        return fit(table)
    except InterpolationError as exc:
        return str(exc)


def test_interpolate_matches_a_lagrange_reference_on_random_tables():
    rng = Random(15)
    prime_powers = [q for q in range(2, 40) if _prime_power_base(q)]
    raised = 0
    for trial in range(300):
        xs = rng.sample(prime_powers, rng.randint(0, 8))
        if trial % 2:  # counts of an integer polynomial
            poly = IntPolynomial({k: rng.randint(0, 9) for k in range(len(xs))})
            rows = tuple((x, poly(x)) for x in xs)
        else:  # arbitrary counts, mostly non-integral fits
            rows = tuple((x, rng.randint(0, 500)) for x in xs)
        table = CountTable(f"t{trial}", rows)
        expected = _outcome(_lagrange, table)
        raised += isinstance(expected, str)
        assert _outcome(interpolate, table) == expected, rows
    assert 50 < raised < 250  # both outcomes are exercised


# -- cross checking ------------------------------------------------------------------


def test_cross_check_k4_uses_all_four_routes():
    report = cross_check(corpus.complete_graph(4))
    assert report.ok
    assert report.class_polynomial == IntPolynomial({k: 1 for k in range(4)})
    assert report.surgery_polynomial == report.class_polynomial
    assert report.tree_polynomial is None
    assert report.interpolated == report.class_polynomial
    assert "agree" in report.summary()


def test_cross_check_tree_route_on_trees():
    report = cross_check(corpus.path_graph(4))
    assert report.ok
    assert report.tree_polynomial == report.class_polynomial


def test_cross_check_disconnected_sums_components():
    g = corpus.complete_graph(3, prefix="a").disjoint_union(
        corpus.loose_star(2, center="z")
    )
    report = cross_check(g)
    assert report.ok
    assert report.tree_polynomial is None


def test_cross_check_sums_the_tree_formula_over_a_forest():
    g = corpus.path_graph(3).disjoint_union(corpus.loose_star(2, center="z"))
    g = g.disjoint_union(LooseGraph((), [()]))
    report = cross_check(g)
    assert report.ok
    assert report.tree_polynomial == report.class_polynomial


def test_cross_check_skips_oversized_interpolation():
    g = corpus.loose_star(6)  # degree 6 needs seven primes; 11^7 is too big
    report = cross_check(g)
    assert report.interpolated is None
    assert report.interpolation_skipped
    assert report.ok


def test_cross_check_builds_the_ambient_completion_once(monkeypatch):
    calls = []
    build = LooseGraph.ambient_completion

    def counted(self):
        calls.append(self)
        return build(self)

    monkeypatch.setattr(LooseGraph, "ambient_completion", counted)
    g = corpus.diamond()
    report = cross_check(g, primes=[2, 3, 4, 5])
    assert report.ok
    assert calls == [g]


def test_count_table_builds_the_ambient_completion_once(monkeypatch):
    calls = []
    build = LooseGraph.ambient_completion

    def counted(self):
        calls.append(self)
        return build(self)

    monkeypatch.setattr(LooseGraph, "ambient_completion", counted)
    g = corpus.diamond()
    table = count_table(g, [2, 3, 4, 5, 7])
    assert table.samples == tuple((q, class_of(g)(q)) for q in (2, 3, 4, 5, 7))
    assert calls == [g]
    assert count_table(g, []).samples == ()
    assert calls == [g]


def test_count_table_checks_each_field_size_before_the_graph():
    big = corpus.complete_graph(9)
    with pytest.raises(ValueError, match="q = 6 is not a prime power") as exc:
        count_table(big, [6, 2])
    assert not isinstance(exc.value, OracleLimitError)
    with pytest.raises(OracleLimitError, match="9 ambient vertices exceed 8"):
        count_table(big, [2, 6])


def test_a_field_size_that_is_not_an_int_fails_at_the_check():
    g = corpus.complete_graph(3)
    for call in (
        lambda: enumerate_points(g, 3.0),
        lambda: count_table(g, [2.0]),
        lambda: cross_check(g, [2.0, 3]),
    ):
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            call()


def test_cross_check_names_a_count_that_breaks_interpolation(monkeypatch):
    walk = oracle._walk
    monkeypatch.setattr(oracle, "_walk", lambda cones, q: walk(cones, q) + (q == 3))
    report = cross_check(corpus.complete_graph(3))
    assert report.counts.samples == ((2, 7), (3, 14), (5, 31))
    assert report.interpolated is None
    assert report.interpolation_skipped.startswith("non-integer coefficients ")
    assert report.problems == ["count over F_3: expected 13, got 14"]


def test_cross_check_takes_its_sample_count_from_the_graph(monkeypatch):
    """The oracle counts over deg + 1 fields, deg read from the graph; a
    class of another degree is named as a problem."""
    g = corpus.diamond()  # degree 3: u and v each have three neighbours
    monkeypatch.setattr(oracle, "class_of", lambda g: class_of(g) + IntPolynomial({9: 1}, var="L"))
    report = cross_check(g)
    assert [q for q, _ in report.counts.samples] == [2, 3, 5, 7]
    assert report.interpolated == class_of(g)
    assert "degree: class has degree 9, the graph 3" in report.problems
    for g in (LooseGraph(), LooseGraph((), [()]), LooseGraph(["a"], [("a",), ()])):
        assert oracle._graph_degree(g) == (0 if not g.edges else 1)


def test_cross_check_skips_every_field_of_an_oversized_graph():
    report = cross_check(corpus.complete_graph(9), primes=[2, 3])
    assert report.counts.samples == ()
    assert report.interpolation_skipped == "q=2: 9 ambient vertices exceed 8"


def test_cross_check_rejects_a_field_size_that_is_not_a_prime_power():
    with pytest.raises(ValueError, match="q = 6 is not a prime power") as exc:
        cross_check(corpus.diamond(), primes=[2, 6])
    assert not isinstance(exc.value, OracleLimitError)
    with pytest.raises(ValueError, match="duplicate field sizes"):
        cross_check(corpus.diamond(), primes=[2, 2])


def test_cross_check_stops_counting_at_the_first_field_over_the_limit():
    star = corpus.loose_star(6)  # 7 coordinates: 11^7 vectors exceed MAX_TUPLES
    report = cross_check(star)
    assert report.counts.samples == tuple((q, class_of(star)(q)) for q in (2, 3, 5, 7))
    assert report.interpolated is None
    assert report.interpolation_skipped == (
        "q=11: 19487171 coordinate vectors exceed 16777216"
    )
    # the field sizes after the first refused one are not counted
    report = cross_check(star, primes=[11, 2])
    assert report.counts.samples == ()
    assert report.interpolation_skipped.startswith("q=11: ")


def test_cross_check_respects_explicit_primes():
    report = cross_check(corpus.diamond(), primes=[2, 3])
    assert [q for q, _ in report.counts.samples] == [2, 3]
    assert report.interpolated is None  # two samples cannot pin degree three


def test_cross_check_resolved_diamond():
    g = corpus.diamond()
    uv = next(e.tag for e in g.full_edges if e.ends == ("u", "v"))
    report = cross_check(g.resolve_edge(uv))
    assert report.ok
    assert report.class_polynomial == IntPolynomial({3: 2, 2: 2, 1: -4, 0: 4})


def test_cross_check_random_eight_vertex_tree():
    from random import Random

    from f1zeta.corpus import random_labeled_tree

    tree = random_labeled_tree(Random(88), 8)
    report = cross_check(tree)
    assert report.ok
    assert report.tree_polynomial == report.class_polynomial


def test_interpolation_recovers_the_class_on_the_corpus(corpus5):
    for g in corpus5[::13]:
        p = class_of(g)
        degree = max(int(p.degree), 0) if p else 0
        primes = first_primes(degree + 1)
        table = count_table(g, primes)
        assert interpolate(table) == p, g.render()
