import math
import time
from random import Random

import pytest

from f1zeta.poly import IntPolynomial
from f1zeta.qanalog import (
    F1nVectorSpace,
    _MR_LIMIT,
    _integer_root,
    _prime_power_base,
    MonomialMatrix,
    count_subspaces,
    f1_subspace_count,
    gauss_binomial,
    gl_order,
    monomial_matrices,
    q_factorial,
    q_integer,
    restrict_scalars,
    restrict_scalars_point,
)


# -- q-integers, factorials, binomials ----------------------------------------


def test_q_integer():
    assert q_integer(0) == IntPolynomial(0)
    assert q_integer(1) == IntPolynomial(1)
    assert q_integer(3) == IntPolynomial({0: 1, 1: 1, 2: 1})
    with pytest.raises(ValueError):
        q_integer(-1)


def test_q_factorial():
    assert q_factorial(0) == IntPolynomial(1)
    assert q_factorial(3) == q_integer(1) * q_integer(2) * q_integer(3)
    assert q_factorial(3)(2) == 21  # 1 * 3 * 7
    # [n choose k]_q [k]_q! [n-k]_q! = [n]_q!, checked without division
    for n in range(13):
        for k in range(n + 1):
            assert gauss_binomial(n, k) * q_factorial(k) * q_factorial(n - k) == q_factorial(n)


def test_gauss_binomial_4_2():
    p = gauss_binomial(4, 2)
    assert p == IntPolynomial({4: 1, 3: 1, 2: 2, 1: 1, 0: 1})
    assert p.render("q") == "q^4+q^3+2q^2+q+1"
    assert p(2) == 35


def test_gauss_binomial_bounds():
    assert gauss_binomial(5, 0) == IntPolynomial(1)
    assert gauss_binomial(5, 5) == IntPolynomial(1)
    with pytest.raises(ValueError):
        gauss_binomial(3, 4)


def test_gauss_binomial_at_one_is_binomial():
    for n in range(11):
        for k in range(n + 1):
            assert gauss_binomial(n, k)(1) == math.comb(n, k)


def test_gauss_binomial_symmetry():
    for n in range(11):
        for k in range(n + 1):
            assert gauss_binomial(n, k) == gauss_binomial(n, n - k)


def test_q_pascal_recurrence():
    q = IntPolynomial({1: 1}, var="q")
    for n in range(2, 11):
        for k in range(1, n):
            assert gauss_binomial(n, k) == q**k * gauss_binomial(n - 1, k) + gauss_binomial(
                n - 1, k - 1
            )


@pytest.mark.parametrize("p", [2, 3])
def test_gauss_binomial_counts_subspaces(p):
    for n in range(5):
        for k in range(n + 1):
            assert gauss_binomial(n, k)(p) == count_subspaces(n, k, p)


def test_prime_power_base_by_definition():
    primes = [p for p in range(2, 400) if all(p % d for d in range(2, p))]
    powers = {p**e: p for p in primes for e in range(1, 9) if p**e < 400}
    for n in range(-2, 400):
        assert _prime_power_base(n) == powers.get(n), n
    assert _prime_power_base(11**5) == 11
    assert _prime_power_base(11**2 * 13) is None


def _base_by_trial_division(n):
    if n < 2:
        return None
    p = next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)
    while n % p == 0:
        n //= p
    return p if n == 1 else None


def test_prime_power_base_agrees_with_trial_division():
    for n in range(-2, 10**5):
        assert _prime_power_base(n) == _base_by_trial_division(n), n


@pytest.mark.parametrize("n, base", [
    (2**61 - 1, 2**61 - 1),  # a Mersenne prime
    (3**40, 3),
    ((2**31 - 1) ** 2, 2**31 - 1),
    (43**7, 43),  # the smallest base the small primes do not divide out
    (561, None),  # a Carmichael number
    (3215031751, None),  # a strong pseudoprime to bases 2, 3, 5 and 7
    (10**16 + 61, 10**16 + 61),
    ((10**8 + 7) * (10**8 + 37), None),
    (2**1000, 2),
])
def test_a_field_size_is_decided_fast(n, base):
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        assert _prime_power_base(n) == base
        best = min(best, time.perf_counter() - start)
    assert best < 0.01


def test_integer_root_is_the_floor_of_the_real_root():
    rng = Random(43)
    for _ in range(2000):
        n, e = rng.randrange(1, 10 ** rng.randrange(1, 60)), rng.randrange(1, 12)
        r = _integer_root(n, e)
        assert r**e <= n < (r + 1) ** e, (n, e)


def test_a_root_beyond_the_proven_bases_is_an_error():
    # The limit is the least strong pseudoprime to every base,
    # 1,287,836,182,261 · 2,575,672,364,521: the test would call it prime.
    big = 2**89 - 1  # a Mersenne prime above the limit
    for n in (_MR_LIMIT, big, big**2):
        message = f"^q = {n} is too large to decide whether it is a prime power$"
        with pytest.raises(ValueError, match=message):
            _prime_power_base(n)
    assert _prime_power_base(2 * big) is None  # a small factor decides it


def test_count_subspaces_validation():
    with pytest.raises(ValueError):
        count_subspaces(3, 4, 2)
    with pytest.raises(ValueError):
        count_subspaces(3, 1, 4)


# -- subspace counts over the one-element base ------------------------------------


def test_f1_subspace_counts():
    assert f1_subspace_count(2, 1) == 3  # the three sides of a triangle
    assert f1_subspace_count(4, 0) == 5
    assert f1_subspace_count(3, 3) == 1
    assert f1_subspace_count(3, -1) == 1
    with pytest.raises(ValueError):
        f1_subspace_count(3, 4)


# -- monomial matrix groups ----------------------------------------------------


def test_gl_order_values():
    assert gl_order(3, 1) == 6
    assert gl_order(2, 2) == 8
    assert gl_order(0, 5) == 1
    with pytest.raises(ValueError):
        gl_order(-1, 2)


def test_identity_is_neutral():
    ident = MonomialMatrix.identity(2, 3)
    for m in monomial_matrices(2, 3):
        assert ident * m == m
        assert m * ident == m


@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 2)])
def test_exhaustive_group_axioms(d, n):
    group = list(monomial_matrices(d, n))
    assert len(group) == gl_order(d, n)
    assert len(set(group)) == len(group)
    members = set(group)
    for a in group:
        assert a.invert() in members
        assert a * a.invert() == MonomialMatrix.identity(d, n)
    sample = group[:: max(1, len(group) // 6)]
    for a in sample:
        for b in sample:
            assert a * b in members
            for c in sample:
                assert (a * b) * c == a * (b * c)


def test_permutation_part_is_a_homomorphism_with_kernel_of_size_n_to_d():
    d, n = 2, 3
    group = list(monomial_matrices(d, n))
    for a in group[::5]:
        for b in group[::7]:
            composed = (a * b).sigma
            assert composed == tuple(a.sigma[b.sigma[i]] for i in range(d))
    kernel = [m for m in group if m.sigma == tuple(range(d))]
    assert len(kernel) == n**d


def test_weightless_matrices_are_permutations():
    group = list(monomial_matrices(3, 1))
    assert len(group) == math.factorial(3)
    assert all(w == 0 for m in group for w in m.weights)


def test_closure_of_generated_subgroup_divides_group_order():
    rng = Random(3)
    group = list(monomial_matrices(2, 3))
    gens = rng.sample(group, 2)
    generated = {MonomialMatrix.identity(2, 3)}
    frontier = list(generated)
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                prod = g * h
                if prod not in generated:
                    generated.add(prod)
                    nxt.append(prod)
        frontier = nxt
    assert gl_order(2, 3) % len(generated) == 0


def test_apply_moves_points_and_fixes_zero():
    m = MonomialMatrix(2, 3, (1, 0), (2, 1))
    assert m.apply(None) is None
    assert m.apply((0, 0)) == (1, 2)
    assert m.apply((1, 2)) == (0, 0)
    with pytest.raises(ValueError):
        m.apply((5, 0))


def test_apply_commutes_with_the_cyclic_action():
    space = F1nVectorSpace(2, 3)
    for m in monomial_matrices(2, 3):
        for point in space.points:
            assert m.apply(space.rotate(point)) == space.rotate(m.apply(point))


def test_compose_mismatch():
    with pytest.raises(ValueError):
        MonomialMatrix.identity(2, 2) * MonomialMatrix.identity(2, 3)


def test_entries_table():
    m = MonomialMatrix(2, 4, (1, 0), (3, 2))
    assert m.entries() == [[None, 2], [3, None]]


# -- vector spaces over extensions ----------------------------------------------


def test_space_points_and_free_action():
    space = F1nVectorSpace(2, 3)
    assert len(space.points) == 6
    for point in space.points:
        assert space.rotate(point) != point
    assert space.rotate(None) is None


def test_restrict_scalars_shapes():
    space = F1nVectorSpace(1, 4)
    down = restrict_scalars(space, 2)
    assert (down.d, down.n) == (2, 2)
    assert restrict_scalars(space, 4) == space
    flat = restrict_scalars(space, 1)
    assert (flat.d, flat.n) == (4, 1)
    with pytest.raises(ValueError):
        restrict_scalars(space, 3)


def test_restrict_scalars_preserves_points():
    space = F1nVectorSpace(3, 6)
    for m in (1, 2, 3, 6):
        down = restrict_scalars(space, m)
        assert down.d * down.n == space.d * space.n
        images = {restrict_scalars_point(space, m, p) for p in space.points}
        assert images == set(down.points)


def test_restrict_scalars_splits_orbits_along_the_subgroup():
    space = F1nVectorSpace(1, 4)
    r = space.n // 2
    for point in space.points:
        hopped = point
        for _ in range(r):
            hopped = space.rotate(hopped)
        a = restrict_scalars_point(space, 2, point)
        b = restrict_scalars_point(space, 2, hopped)
        assert a[0] == b[0]  # same new orbit under the index-r subgroup


@pytest.mark.parametrize("point", [(5, 9), (2, 0), (0, 4), (-1, 0), (0, -1)])
def test_points_outside_the_space_are_rejected(point):
    space = F1nVectorSpace(2, 4)
    message = r"point \(.*\) does not live in this space"
    with pytest.raises(ValueError, match=message):
        space.rotate(point)
    with pytest.raises(ValueError, match=message):
        restrict_scalars_point(space, 2, point)
    with pytest.raises(ValueError, match=message):
        MonomialMatrix.identity(2, 4).apply(point)
