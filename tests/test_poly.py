from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from f1zeta.poly import NEG_INFINITY, IntPolynomial

polys = st.dictionaries(st.integers(0, 6), st.integers(-50, 50), max_size=5).map(
    IntPolynomial
)


def test_zero_polynomial():
    zero = IntPolynomial()
    assert not zero
    assert zero.degree == NEG_INFINITY
    assert zero.to_coefficient_list() == []
    assert str(zero) == "0"


def test_construction_drops_zero_coefficients():
    p = IntPolynomial({3: 0, 1: 2})
    assert p.coefficients() == {1: 2}
    assert p.degree == 1


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        IntPolynomial({-1: 2})
    with pytest.raises(TypeError):
        IntPolynomial({0: 1.5})


def test_constants_hash_like_the_int_they_equal():
    assert IntPolynomial(5, var="L") == 5
    assert 5 in {IntPolynomial(5)}
    assert IntPolynomial(0) in {0}
    assert IntPolynomial({0: -3}, var="q") in {-3}
    assert {IntPolynomial(7): "seven"}[7] == "seven"
    line = IntPolynomial({1: 1, 0: 2})
    assert hash(line) == hash(frozenset({(1, 1), (0, 2)}))  # non-constants as before


@given(polys, polys)
def test_equal_polynomials_hash_equal(a, b):
    for p, q in ((a, b), (a, a(0)), (a, IntPolynomial(a, var="q"))):
        if p == q:
            assert hash(p) == hash(q)


def test_arithmetic_and_eval():
    L = IntPolynomial({1: 1}, var="L")
    p = (L + 1) * (L - 1)
    assert p == IntPolynomial({2: 1, 0: -1})
    assert p(5) == 24
    assert (L**3 + L**2 + 2)(2) == 14
    assert (L - 1)(5) == 4
    assert (L**3 + L**2 + 2)(1) == sum((L**3 + L**2 + 2).coefficients().values())
    assert (2 - L) == IntPolynomial({0: 2, 1: -1})


def test_pow():
    L = IntPolynomial({1: 1})
    assert (L - 1) ** 0 == IntPolynomial(1)
    assert (L - 1) ** 3 == IntPolynomial({3: 1, 2: -3, 1: 3, 0: -1})
    with pytest.raises(ValueError):
        (L - 1) ** -1


def test_render():
    L = IntPolynomial({1: 1}, var="L")
    assert (L**3 + L**2 + 2).render() == "L^3+L^2+2"
    assert (2 * L**3 + 2 * L**2 - 4 * L + 4).render() == "2L^3+2L^2-4L+4"
    assert (1 - L).render("q") == "-q+1"
    assert IntPolynomial(7).render() == "7"


def test_coefficient_list_round_trip():
    p = IntPolynomial({0: 1, 2: -3})
    assert p.to_coefficient_list() == [1, 0, -3]
    assert IntPolynomial.from_coefficient_list([1, 0, -3]) == p


def test_fraction_evaluation_is_exact():
    p = IntPolynomial({2: 1, 0: 1})
    assert p(Fraction(1, 2)) == Fraction(5, 4)


@given(polys, polys, st.integers(-9, 9))
def test_evaluation_is_a_ring_homomorphism(a, b, x):
    assert (a + b)(x) == a(x) + b(x)
    assert (a * b)(x) == a(x) * b(x)
    assert (a - b)(x) == a(x) - b(x)


@given(polys, polys, st.sampled_from("xLq"), st.sampled_from("xLq"), st.integers(-9, 9))
def test_difference_is_the_sum_with_the_negative(a, b, var_a, var_b, n):
    a, b = IntPolynomial(a, var=var_a), IntPolynomial(b, var=var_b)
    assert a - b == a + (-b)
    assert (a - b).var == var_a
    assert not a - a
    assert a - n == a + (-n) and (a - n).var == var_a
    assert n - a == -a + n and (n - a).var == var_a
