from fractions import Fraction
from math import comb
from random import Random

import pytest

from f1zeta import corpus
from f1zeta.grothendieck import class_of, tree_class
from f1zeta.loose_graph import LooseGraph
from f1zeta.poly import IntPolynomial
from f1zeta.zeta import (
    ZetaF1,
    counting_series,
    euler_characteristic,
    limit_check,
    local_zeta_series,
    local_zeta_value,
    polynomial_from_zeta,
    render_arithmetic_zeta,
    zeta_from_polynomial,
)


def affine(n):
    return IntPolynomial({n: 1}, var="L")


def projective(n):
    return IntPolynomial({k: 1 for k in range(n + 1)}, var="L")


# -- exponent maps -------------------------------------------------------------


def test_affine_space_zeta():
    z = zeta_from_polynomial(affine(3))
    assert z.factors == ((3, 1),)
    assert z.render("s") == "1/(s-3)"


def test_projective_space_zeta():
    z = zeta_from_polynomial(projective(2))
    assert z.factors == ((0, 1), (1, 1), (2, 1))
    assert z.render("t") == "1/(t(t-1)(t-2))"


def test_multiplicative_group_zeta_has_a_zero():
    z = zeta_from_polynomial(IntPolynomial({1: 1, 0: -1}))
    assert z.render("t") == "t/(t-1)"
    assert z.euler_characteristic == 0


def test_tree_zeta_closed_form(loose_trees100):
    for g in loose_trees100:
        stats = g.tree_stats()
        expected = {d: n for d, n in stats.degree_counts}
        if stats.interior_excess:
            expected[1] = expected.get(1, 0) - stats.interior_excess
        const = stats.interior_excess + stats.endpoints
        if const:
            expected[0] = expected.get(0, 0) + const
        expected = {k: a for k, a in expected.items() if a}
        assert zeta_from_polynomial(tree_class(g)).exponents == expected


def test_round_trip():
    p = IntPolynomial({3: 2, 1: -4, 0: 4})
    assert polynomial_from_zeta(zeta_from_polynomial(p)) == p


def test_zeta_validation():
    with pytest.raises(ValueError):
        ZetaF1(((-1, 2),))
    with pytest.raises(ValueError):
        ZetaF1(((1, 1), (1, 2)))
    for factors in (((0, 1.5), (2, -1)), ((2.9, -1),), ((1, 0.0),), (("3", 1),)):
        with pytest.raises(TypeError):  # not truncated to an int
            ZetaF1(factors)


def test_euler_characteristic():
    assert euler_characteristic(projective(2)) == 3
    assert euler_characteristic(IntPolynomial({1: 1, 0: -1})) == 0
    g = corpus.diamond()
    assert euler_characteristic(class_of(g)) == len(g.vertices)


# -- power series ----------------------------------------------------------------


def test_local_zeta_series_affine_line():
    s = local_zeta_series(affine(1), 2, order=5)
    assert s.coefficients == tuple(Fraction(2**m) for m in range(6))


def test_local_zeta_series_projective_line():
    s = local_zeta_series(projective(1), 2, order=4)
    assert s.coefficients == (1, 3, 7, 15, 31)


def test_local_zeta_series_empty_scheme():
    s = local_zeta_series(IntPolynomial(0), 5, order=4)
    assert s.coefficients == (1, 0, 0, 0, 0)


def euler_product_by_definition(p, prime, order):
    """prod_k (1 - prime^k T)^(-a_k) as |a_k| products with the geometric
    series (a_k > 0) or the linear factor (a_k < 0), as tuples of
    Fractions truncated at ``order``."""
    series = (Fraction(1),) + (Fraction(0),) * order
    for k, a in sorted(p.coefficients().items()):
        r = Fraction(prime**k)
        if a > 0:
            factor = tuple(r**m for m in range(order + 1))
        else:
            factor = (Fraction(1), -r) + (Fraction(0),) * (order - 1)
        for _ in range(abs(a)):
            series = tuple(
                sum(series[j] * factor[m - j] for j in range(m + 1))
                for m in range(order + 1)
            )
    return series


def test_local_zeta_series_matches_the_definition():
    rng = Random(2005)
    polys = [IntPolynomial(0)] + [
        IntPolynomial({k: rng.randint(-150, 150) for k in range(rng.randint(0, 6))})
        for _ in range(5)
    ]
    for p in polys:
        for prime in (2, 3, 5):
            # truncating the order-10 product gives the product at each lower order
            full = euler_product_by_definition(p, prime, 10)
            for order in range(1, 11):
                s = local_zeta_series(p, prime, order)
                assert s.coefficients == full[: order + 1], (p, prime, order)
                assert all(type(c) is Fraction for c in s.coefficients)


def test_local_zeta_series_cost_does_not_grow_with_the_exponent():
    # one product per nonzero coefficient: a loop over the 10^6 copies of
    # the factor would not finish in a test run
    s = local_zeta_series(IntPolynomial({2: 10**6}), 3, 6)
    assert s.coefficients == tuple(comb(10**6 + m - 1, m) * 9**m for m in range(7))


def exp_series(order, terms):
    """exp of sum_m terms[m] T^m (no constant term) up to ``order``, in
    Fractions, by e_m = (1/m) sum_j j a_j e_(m-j)."""
    if terms.get(0, 0) != 0:
        raise ValueError("exp needs a zero constant term")
    a = [Fraction(terms.get(m, 0)) for m in range(order + 1)]
    e = [Fraction(1)] + [Fraction(0)] * order
    for m in range(1, order + 1):
        e[m] = sum(j * a[j] * e[m - j] for j in range(1, m + 1)) / m
    return tuple(e)


def counting_series_by_exp(p, prime, order):
    """exp( sum_m N(prime^m) T^m / m ) taken in Fractions."""
    return exp_series(order, {m: Fraction(p(prime**m), m) for m in range(1, order + 1)})


def test_counting_series_matches_the_fraction_exp(corpus5, dense_graphs):
    classes = {class_of(g) for g in corpus5 + dense_graphs}
    for p in classes:
        for prime in (2, 3, 5):
            s = counting_series(p, prime, 10)
            assert s.coefficients == counting_series_by_exp(p, prime, 10), (p, prime)


def test_counting_series_affine_line():
    s = counting_series(affine(1), 3, order=3)
    assert s.coefficients == (1, 3, 9, 27)


def test_counting_series_point():
    s = counting_series(IntPolynomial(1), 7, order=5)
    assert s.coefficients == (1,) * 6


def test_counting_series_diamond_first_coefficient():
    s = counting_series(class_of(corpus.diamond()), 2, order=3)
    assert s.coefficients[1] == 14


def test_series_equivalence_on_sample_graphs():
    graphs = [
        corpus.diamond(),
        corpus.complete_graph(4),
        corpus.loose_star(3),
        corpus.path_graph(4),
        LooseGraph((), [()]),
    ]
    for g in graphs:
        p = class_of(g)
        for prime in (2, 3):
            assert counting_series(p, prime, 10) == local_zeta_series(p, prime, 10)


def test_series_argument_validation():
    with pytest.raises(ValueError):
        local_zeta_series(affine(1), 1, 5)
    with pytest.raises(ValueError):
        counting_series(affine(1), 2, 0)
    with pytest.raises(ValueError):
        exp_series(2, {0: 1, 1: 2})


def test_series_arguments_are_integers():
    p = IntPolynomial({0: 1, 1: 1}, var="L")  # L + 1
    for series in (local_zeta_series, counting_series):
        # a float is not rounded or truncated, even when it is integral
        for prime, order in [(2.5, 2), (2, 2.0), (Fraction(2), 2), ("2", 2)]:
            with pytest.raises(TypeError):
                series(p, prime, order)
        with pytest.raises(ValueError, match="^prime must be at least 2$"):
            series(p, 1, 2)
        with pytest.raises(ValueError, match="^order must be at least 1$"):
            series(p, 2, 0)
        # L + 1 has 1 + prime points: ζ = 1 / ((1 - T)(1 - 2T)) at prime 2
        assert series(p, 2, 2).coefficients == (1, 3, 7)


# -- symbolic arithmetic zeta -------------------------------------------------------


def test_render_arithmetic_zeta_examples():
    assert render_arithmetic_zeta(affine(4)) == "ζ(s-4)"
    assert render_arithmetic_zeta(projective(3)) == "ζ(s)ζ(s-1)ζ(s-2)ζ(s-3)"
    assert render_arithmetic_zeta(IntPolynomial({1: 1, 0: -1})) == "ζ(s-1)/ζ(s)"
    assert render_arithmetic_zeta(affine(2), ascii_zeta=True) == "zeta(s-2)"
    assert render_arithmetic_zeta(IntPolynomial({2: 2})) == "ζ(s-2)^2"
    assert render_arithmetic_zeta(IntPolynomial({1: -1, 0: -1})) == "1/(ζ(s)ζ(s-1))"
    assert render_arithmetic_zeta(IntPolynomial(0)) == "1"


# -- the limit toward one --------------------------------------------------------------


def test_limit_values():
    p1 = zeta_from_polynomial(projective(1))
    assert limit_check(p1, 3, 1.0001) == pytest.approx(1 / 6, abs=1e-3)
    a1 = zeta_from_polynomial(affine(1))
    assert limit_check(a1, 2, 1.0001) == pytest.approx(1.0, abs=1e-3)
    point = zeta_from_polynomial(IntPolynomial(1))
    assert limit_check(point, 1, 1.0001) == pytest.approx(1.0, abs=1e-3)


def test_limit_first_order_convergence():
    for p in (affine(1), projective(1), projective(2)):
        z = zeta_from_polynomial(p)
        target = z.value(3.5)
        coarse = abs(limit_check(z, 3.5, 1 + 1e-3) - target)
        fine = abs(limit_check(z, 3.5, 1 + 5e-4) - target)
        assert coarse >= 1.9 * fine


def test_limit_check_rejects_roots_and_bad_p():
    z = zeta_from_polynomial(projective(1))
    with pytest.raises(ValueError):
        limit_check(z, 1, 1.001)
    with pytest.raises(ValueError):
        local_zeta_value(z, 3.0, 0.5)
