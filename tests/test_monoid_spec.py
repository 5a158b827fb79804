import itertools
from random import Random

import pytest

from f1zeta import corpus
from f1zeta.monoid_spec import (
    ZERO,
    MonoidPresentation,
    PresentationError,
    PrimeIdeal,
    coordinate_monoid,
)


def free(n):
    return MonoidPresentation.free([f"x{i}" for i in range(n)])


def units_pair():
    return MonoidPresentation.parse("gens x y; rel x*y = 1;")


# -- parsing -----------------------------------------------------------------


def test_parse_and_render():
    pres = MonoidPresentation.parse("gens x y ; rel x * y = 1 ; rel x^2 = 0;")
    assert pres.generators == ("x", "y")
    assert pres.relations == (((1, 1), (0, 0)), ((2, 0), ZERO))
    assert pres.render() == "gens x y; rel x*y = 1; rel x^2 = 0;"
    assert MonoidPresentation.parse(pres.render()).relations == pres.relations


def test_construction_validates():
    assert MonoidPresentation(["xy"]).generators == ("xy",)
    assert MonoidPresentation.free(iter(["x", "y"])).generators == ("x", "y")
    # a string is not split into one-letter generators
    for generators, message in [
        ("xy", "generators 'xy' are not a sequence of names"),
        (5, "generators 5 are not a sequence of names"),
        (["x", "x"], "duplicate generator names"),
        (["x", 1], "invalid generator name 1"),
    ]:
        with pytest.raises(PresentationError, match=f"^{message}$"):
            MonoidPresentation(generators)
        with pytest.raises(PresentationError, match=f"^{message}$"):
            MonoidPresentation.free(generators)
    # relations are a sequence of pairs of sides, each side ZERO or a sequence
    for relations, message in [
        (5, "relations 5 are not a sequence of pairs"),
        ("ab", "relations 'ab' are not a sequence of pairs"),
        ([5], "relation 5 is not a pair of sides"),
        (["ab"], "relation 'ab' is not a pair of sides"),
        ([((1,),)], r"relation \(\(1,\),\) is not a pair of sides"),
        ([((1,), (1,), ZERO)], r"relation \(\(1,\), \(1,\), None\) is not a pair of sides"),
        ([(5, (1,))], "bad exponent vector 5"),
        ([((1,), 2.5)], "bad exponent vector 2.5"),
        ([((1, 0), ZERO)], r"bad exponent vector \(1, 0\)"),
    ]:
        with pytest.raises(PresentationError, match=f"^{message}$"):
            MonoidPresentation(["x"], relations)
    pres = MonoidPresentation(["x"], iter([[(1,), ZERO], iter([(2,), (1,)])]))
    assert pres.relations == (((1,), ZERO), ((2,), (1,)))


def test_parse_errors():
    with pytest.raises(PresentationError):
        MonoidPresentation.parse("gens x; rel x = y;")
    with pytest.raises(PresentationError):
        MonoidPresentation.parse("bogus;")
    with pytest.raises(PresentationError):
        MonoidPresentation.parse("gens x; rel x == 1;")
    with pytest.raises(PresentationError):
        MonoidPresentation.parse("gens x x;")
    # keywords are whole words, not prefixes
    for text in ("gensx y; relx = y", "gens x y; relx = y", "gens x; relation x = 1"):
        with pytest.raises(PresentationError, match="unknown statement"):
            MonoidPresentation.parse(text)


# -- spectra ------------------------------------------------------------------


@pytest.mark.parametrize("n", range(0, 5))
def test_spec_of_free_monoid_has_all_generator_subsets(n):
    pres = free(n)
    primes = pres.spec()
    assert len(primes) == 2**n
    assert PrimeIdeal(frozenset()) in primes
    assert PrimeIdeal(frozenset(pres.generators)) in primes


def test_spec_with_inverted_generators_collapses():
    assert units_pair().spec() == (PrimeIdeal(frozenset()),)


def test_spec_of_the_base_point():
    assert free(0).spec() == (PrimeIdeal(frozenset()),)


def test_spec_with_nilpotent_generator():
    pres = MonoidPresentation.parse("gens x; rel x^2 = 0;")
    # the zero ideal is not prime: x*x lands in it while x does not
    assert pres.spec() == (PrimeIdeal(frozenset({"x"})),)


def test_spec_identified_generators():
    pres = MonoidPresentation.parse("gens x y; rel x = y;")
    primes = pres.spec()
    assert PrimeIdeal(frozenset()) in primes
    assert PrimeIdeal(frozenset({"x", "y"})) in primes
    assert len(primes) == 2  # (x) and (y) coincide


def test_prime_str():
    assert str(PrimeIdeal(frozenset())) == "{0}"
    assert str(PrimeIdeal(frozenset({"y", "x"}))) == "(x,y)"


def random_presentation(rng, max_gens=6):
    n = rng.randint(0, max_gens)

    def side():
        if rng.random() < 0.15:
            return ZERO
        return tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(n))

    relations = [(side(), side()) for _ in range(rng.randint(0, 3))]
    return MonoidPresentation([f"x{i}" for i in range(n)], relations)


def test_prime_count_equals_morphisms_to_zero_one():
    # a morphism into ({0, 1}, *) is the indicator of a prime's complement
    rng = Random(11)
    for _ in range(300):
        pres = random_presentation(rng)
        assert len(pres.spec()) == pres.hom_count(2), pres


def test_maximal_ideal():
    assert free(1).maximal_ideal() == PrimeIdeal(frozenset({"x0"}))
    assert units_pair().maximal_ideal() == PrimeIdeal(frozenset())
    assert free(3).maximal_ideal() == PrimeIdeal(frozenset({"x0", "x1", "x2"}))


def test_maximal_ideal_without_primes_raises():
    pres = MonoidPresentation.parse("gens x; rel 1 = 0;")
    assert pres.spec() == ()
    with pytest.raises(PresentationError):
        pres.maximal_ideal()


def test_maximal_ideal_contains_every_prime():
    for pres in (free(3), units_pair(), MonoidPresentation.parse("gens x y; rel x*y=x;")):
        top = pres.maximal_ideal()
        primes = pres.spec()
        assert PrimeIdeal(frozenset()) in primes
        assert top in primes
        for prime in primes:
            assert prime.generators <= top.generators


def test_spec_of_a_high_power_unit():
    pres = MonoidPresentation.parse("gens x; rel x^9 = 1;")
    assert pres.spec() == (PrimeIdeal(frozenset()),)


def test_spec_of_five_generators_with_one_product_relation():
    # a*b = c ties c to the pair (a, b); d and e are free: 4 * 2 * 2 primes
    pres = MonoidPresentation.parse("gens a b c d e; rel a*b = c;")
    primes = pres.spec()
    assert len(primes) == 16
    assert pres.maximal_ideal() == PrimeIdeal(frozenset("abcde"))


# -- localization ----------------------------------------------------------------


def test_localize_at_maximal_is_identity_presentation():
    pres = free(1)
    loc = pres.localize(pres.maximal_ideal())
    assert loc.generators == pres.generators
    assert loc.relations == pres.relations


def test_localize_inverts_the_complement():
    pres = free(2)
    loc = pres.localize(PrimeIdeal(frozenset({"x0"})))
    assert loc.generators == ("x0", "x1", "x1_inv")
    assert loc.hom_count(5) == 5 * 4


def test_localize_rejects_non_primes():
    pres = MonoidPresentation.parse("gens x; rel x^2 = 0;")
    with pytest.raises(PresentationError):
        pres.localize(PrimeIdeal(frozenset()))
    with pytest.raises(PresentationError):
        free(1).localize(PrimeIdeal(frozenset({"zz"})))
    with pytest.raises(PresentationError, match="^'x' is not a PrimeIdeal$"):
        free(1).localize("x")


def test_localize_rejects_a_set_that_is_not_exactly_a_prime():
    # (x) also contains y = x; inverting y would invert a member of the prime
    pres = MonoidPresentation.parse("gens x y; rel x = y;")
    with pytest.raises(PresentationError):
        pres.localize(PrimeIdeal(frozenset({"x"})))
    assert pres.localize(PrimeIdeal(frozenset({"x", "y"}))).generators == ("x", "y")


@pytest.mark.parametrize("q", [2, 3, 5])
def test_localize_at_maximal_preserves_hom_counts(q):
    samples = [
        free(2),
        units_pair(),
        MonoidPresentation.parse("gens x y; rel x^2 = y;"),
        MonoidPresentation.parse("gens x y z; rel x*y = z;"),
    ]
    for pres in samples:
        loc = pres.localize(pres.maximal_ideal())
        assert loc.hom_count(q) == pres.hom_count(q)


# -- hom counting ------------------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("n", range(0, 5))
def test_hom_count_free_monoid(n, q):
    assert free(n).hom_count(q) == q**n


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_hom_count_units_pair(q):
    assert units_pair().hom_count(q) == q - 1


def test_hom_count_base_point():
    assert free(0).hom_count(5) == 1


def test_hom_count_with_zero_relation():
    pres = MonoidPresentation.parse("gens x; rel x^2 = 0;")
    # x must map to a square root of zero, hence to zero
    assert all(pres.hom_count(q) == 1 for q in (2, 3, 5, 7))


def test_hom_count_validation():
    with pytest.raises(PresentationError):
        free(1).hom_count(6)
    with pytest.raises(PresentationError):
        free(1).hom_count(11)
    with pytest.raises(PresentationError):
        free(7).hom_count(2)
    for pres in (free(1), free(7)):  # free(7) fails only at the field size check
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            pres.hom_count(4.0)


def test_hom_count_prime_power_model_is_multiplicative():
    # pairwise products of units stay units and hit each unit equally often
    pres = MonoidPresentation.parse("gens x y z; rel x*y = z;")
    for q in (4, 8, 9):
        assert pres.hom_count(q) == free(2).hom_count(q)


#: q -> (characteristic p, monic modulus, lowest coefficient first) of the
#: field F_p[x]/(modulus); None for the prime fields Z/p.
_FIELDS = {
    2: (2, None),
    3: (3, None),
    4: (2, (1, 1, 1)),  # x^2 + x + 1
    5: (5, None),
    7: (7, None),
    8: (2, (1, 1, 0, 1)),  # x^3 + x + 1
    9: (3, (1, 0, 1)),  # x^2 + 1
}


def _multiplication_table(q):
    """Literal field multiplication on 0..q-1, an element being the
    base-p digits of its polynomial's coefficients (so 1 is the unit)."""
    p, modulus = _FIELDS[q]
    if modulus is None:
        return [[a * b % q for b in range(q)] for a in range(q)]
    n = len(modulus) - 1

    def mul(a, b):
        prod = [0] * (2 * n - 1)
        for i in range(n):
            for j in range(n):
                prod[i + j] += (a // p**i % p) * (b // p**j % p)
        for k in range(2 * n - 2, n - 1, -1):  # x^n = -(lower terms of modulus)
            top, prod[k] = prod[k], 0
            for i in range(n):
                prod[k - n + i] -= top * modulus[i]
        return sum(c % p * p**i for i, c in enumerate(prod[:n]))

    return [[mul(a, b) for b in range(q)] for a in range(q)]


def _reference_hom_count(pres, q):
    table = _multiplication_table(q)

    def value(vec, point):
        if vec is ZERO:
            return 0
        out = 1
        for a, e in zip(point, vec):
            for _ in range(e):
                out = table[out][a]
        return out

    return sum(
        all(value(lhs, point) == value(rhs, point) for lhs, rhs in pres.relations)
        for point in itertools.product(range(q), repeat=len(pres.generators))
    )


@pytest.mark.parametrize("q", sorted(_FIELDS))
def test_reference_tables_are_fields(q):
    table = _multiplication_table(q)
    assert all(table[1][a] == a for a in range(q))
    assert all(1 in table[a][1:] for a in range(1, q))  # every unit inverts


@pytest.mark.parametrize("q", sorted(_FIELDS))
def test_hom_count_matches_literal_field_multiplication(q):
    rng = Random(1000 + q)
    for _ in range(25):
        n = rng.randint(0, 4)

        def side():
            if rng.random() < 0.15:
                return ZERO
            return tuple(rng.randint(0, 3) for _ in range(n))

        relations = [(side(), side()) for _ in range(rng.randint(0, 3))]
        pres = MonoidPresentation([f"x{i}" for i in range(n)], relations)
        assert pres.hom_count(q) == _reference_hom_count(pres, q), pres


# -- coordinate monoids ---------------------------------------------------------------


def test_coordinate_monoid_of_diamond_vertex():
    g = corpus.diamond()
    pres = coordinate_monoid(g, "u")
    assert len(pres.generators) == 3
    assert pres.hom_count(3) == 27


def test_coordinate_monoid_isolated_vertex():
    from f1zeta.loose_graph import LooseGraph

    pres = coordinate_monoid(LooseGraph(["a"], []), "a")
    assert pres.generators == ()
    assert pres.hom_count(2) == 1


def test_coordinate_monoid_counts_match_degree(corpus5):
    for g in corpus5[::17]:
        for v in sorted(g.vertices):
            pres = coordinate_monoid(g, v)
            if len(pres.generators) <= 6:
                for q in (2, 3):
                    assert pres.hom_count(q) == q ** g.degree(v)


def test_coordinate_monoid_unknown_vertex():
    with pytest.raises(PresentationError):
        coordinate_monoid(corpus.diamond(), "nope")
