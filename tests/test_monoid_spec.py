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


def test_parse_errors():
    with pytest.raises(PresentationError):
        MonoidPresentation.parse("gens x; rel x = y;")
    with pytest.raises(PresentationError):
        MonoidPresentation.parse("bogus;")
    with pytest.raises(PresentationError):
        MonoidPresentation.parse("gens x; rel x == 1;")
    with pytest.raises(PresentationError):
        MonoidPresentation.parse("gens x x;")


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


def test_hom_count_prime_power_model_is_multiplicative():
    # pairwise products of units stay units and hit each unit equally often
    pres = MonoidPresentation.parse("gens x y z; rel x*y = z;")
    for q in (4, 8, 9):
        assert pres.hom_count(q) == free(2).hom_count(q)


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
