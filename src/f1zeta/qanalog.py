"""q-analogs and linear algebra over extensions of the field with one element.

q-integers, q-factorials and Gaussian binomials are exact integer
polynomials in q; the Gaussian binomials are built by the q-Pascal rule,
so no polynomial division is needed.  Evaluated at a prime power they
count subspaces over F_q, and at q = 1 they collapse to ordinary
binomials, matching the subspace counts of combinatorial projective
spaces.  An independent brute-force
subspace counter (:func:`count_subspaces`) backs the polynomial identities
over prime fields.

Vector spaces over the degree-n extension are a zero point plus a free
action of the cyclic group of order n on d orbits; their linear
automorphisms are the monomial matrices (exactly one nonzero entry per row
and column), a wreath product of the cyclic group with the symmetric group,
of order n^d * d!.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from .poly import IntPolynomial

#: The indeterminate of the q-analog polynomials.
q = IntPolynomial({1: 1}, var="q")


def q_integer(n: int) -> IntPolynomial:
    """[n]_q = 1 + q + ... + q^(n-1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return IntPolynomial({k: 1 for k in range(n)}, var="q")


def q_factorial(n: int) -> IntPolynomial:
    """[n]_q! = [1]_q [2]_q ... [n]_q."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = IntPolynomial(1, var="q")
    for i in range(1, n + 1):
        out = out * q_integer(i)
    return out


def gauss_binomial(n: int, k: int) -> IntPolynomial:
    """Gaussian binomial [n choose k]_q by the q-Pascal rule.

    Row m of the triangle comes from row m-1 by
    [m, j] = [m-1, j-1] + q^j [m-1, j], starting from [0, 0] = 1; only the
    entries j <= k are kept, and [m-1, j] = 0 for j > m-1.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    powers = [q**j for j in range(k + 1)]
    row = [IntPolynomial(1, var="q")] + [IntPolynomial(var="q")] * k
    for _ in range(n):
        row = row[:1] + [row[j - 1] + powers[j] * row[j] for j in range(1, k + 1)]
    return row[k]


def f1_subspace_count(n: int, k: int) -> int:
    """Number of k-dimensional subspaces of the combinatorial projective
    n-space over F1: binomial(n+1, k+1).

    k = -1 (the empty subspace) counts once.
    """
    if not -1 <= k <= n:
        raise ValueError("need -1 <= k <= n")
    return math.comb(n + 1, k + 1)


def gl_order(d: int, n: int) -> int:
    """Order n^d * d! of the group of d x d monomial matrices over the
    cyclic group of order n."""
    if d < 0 or n < 1:
        raise ValueError("need d >= 0 and n >= 1")
    return n**d * math.factorial(d)


# -- brute-force subspace oracle -------------------------------------------


def _rref(rows, n, p):
    """Reduced row echelon form over Z/p; returns a tuple of nonzero rows."""
    rows = [list(r) for r in rows]
    pivot_row = 0
    for col in range(n):
        pivot = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        inv = pow(rows[pivot_row][col], p - 2, p)
        rows[pivot_row] = [(x * inv) % p for x in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] % p:
                factor = rows[r][col]
                rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
    return tuple(tuple(r) for r in rows[:pivot_row])


#: Miller–Rabin with these bases decides primality for every n below
#: ``_MR_LIMIT`` (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _prime_power_base(n: int):
    """The prime p with n = p^e for some e >= 1, or None if n is not a
    prime power.

    Small primes, the test's bases, are divided out first.  Otherwise
    p >= 43 is the exact e-th root of n for the largest such e, and a
    deterministic Miller–Rabin test decides it, in time polynomial in the
    digits of n.  Raise ``ValueError`` when that root is at least
    ``_MR_LIMIT``, beyond which the bases are not proven.
    """
    if n < 2:
        return None
    for b in _MR_BASES:
        if n % b == 0:
            while n % b == 0:
                n //= b
            return b if n == 1 else None
    root = n
    for e in range((n.bit_length() - 1) // 5, 1, -1):  # 43^e > 2^(5e)
        if (r := _integer_root(n, e)) ** e == n:
            root = r
            break
    if root >= _MR_LIMIT:
        raise ValueError(f"q = {n} is too large to decide whether it is a prime power")
    odd, twos = root - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for b in _MR_BASES:
        x = pow(b, odd, root)
        if x == 1 or x == root - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % root
            if x == root - 1:
                break
        else:
            return None
    return root


def _integer_root(n: int, e: int) -> int:
    """The largest r with r^e <= n, for n >= 1, by Newton's method from
    above."""
    r = 1 << -(-n.bit_length() // e)
    while True:
        s = ((e - 1) * r + n // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


def _check_field_size(q: int, error=ValueError):
    """Raise ``error`` unless q is a prime power, the size of a finite
    field.  A plain ``ValueError`` by default: a bad field size is an input
    error, not an enumeration too large to run.  A q that is not an integer
    raises ``TypeError`` first, as in :class:`~f1zeta.oracle.CountTable`."""
    if _prime_power_base(operator.index(q)) is None:
        raise error(f"q = {q} is not a prime power")


def count_subspaces(n: int, k: int, p: int) -> int:
    """Count k-dimensional subspaces of (Z/p)^n by exhaustive span growth.

    Subspaces are grown one generator at a time and deduplicated by their
    reduced-row-echelon basis; only prime p is supported.  This is the
    independent check behind the Gaussian binomial identities.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if _prime_power_base(p) != p:
        raise ValueError("p must be prime")
    vectors = [v for v in itertools.product(range(p), repeat=n) if any(v)]
    level = {()}
    for _ in range(k):
        grown = set()
        for basis in level:
            span = set()
            for coeffs in itertools.product(range(p), repeat=len(basis)):
                span.add(tuple(sum(c * row[i] for c, row in zip(coeffs, basis)) % p
                               for i in range(n)))
            for v in vectors:
                if v not in span:
                    grown.add(_rref(basis + (v,), n, p))
        level = grown
    return len(level)


# -- monomial matrices -------------------------------------------------------


@dataclass(frozen=True)
class MonomialMatrix:
    """A d x d matrix with exactly one cyclic-group entry per row and column.

    Column i holds the entry alpha^weights[i] in row sigma[i] (0-indexed), so
    the matrix sends basis vector b_i to b_sigma(i) twisted by alpha^weights[i].
    """

    d: int
    n: int
    sigma: tuple
    weights: tuple

    def __post_init__(self):
        if self.d < 0 or self.n < 1:
            raise ValueError("need d >= 0 and n >= 1")
        if sorted(self.sigma) != list(range(self.d)):
            raise ValueError("sigma must be a permutation of 0..d-1")
        if len(self.weights) != self.d or not all(0 <= w < self.n for w in self.weights):
            raise ValueError("weights must be d exponents in 0..n-1")

    @classmethod
    def identity(cls, d: int, n: int) -> "MonomialMatrix":
        return cls(d, n, tuple(range(d)), (0,) * d)

    def compose(self, other: "MonomialMatrix") -> "MonomialMatrix":
        """self after other."""
        if (self.d, self.n) != (other.d, other.n):
            raise ValueError("size or group order mismatch")
        sigma = tuple(self.sigma[other.sigma[i]] for i in range(self.d))
        weights = tuple(
            (other.weights[i] + self.weights[other.sigma[i]]) % self.n
            for i in range(self.d)
        )
        return MonomialMatrix(self.d, self.n, sigma, weights)

    __mul__ = compose

    def invert(self) -> "MonomialMatrix":
        inv_sigma = [0] * self.d
        for i, j in enumerate(self.sigma):
            inv_sigma[j] = i
        weights = tuple((-self.weights[inv_sigma[j]]) % self.n for j in range(self.d))
        return MonomialMatrix(self.d, self.n, tuple(inv_sigma), weights)

    def apply(self, point):
        """Act on a point (orbit, exponent) of a compatible space; 0 -> 0."""
        if point is None:
            return None
        j, u = _checked(point, self.d, self.n)
        return (self.sigma[j], (u + self.weights[j]) % self.n)

    def entries(self) -> list:
        """Dense d x d table of exponents, None where the matrix is zero."""
        table = [[None] * self.d for _ in range(self.d)]
        for i in range(self.d):
            table[self.sigma[i]][i] = self.weights[i]
        return table


def _checked(point, d: int, n: int) -> tuple:
    """The nonzero ``point`` (orbit, exponent) as a pair, if it lives in a
    d-dimensional space over the degree-n extension of F1."""
    j, u = point
    if not (0 <= j < d and 0 <= u < n):
        raise ValueError(f"point {point!r} does not live in this space")
    return j, u


def monomial_matrices(d: int, n: int):
    """All d x d monomial matrices over the order-n cyclic group, in a
    deterministic order; there are gl_order(d, n) of them."""
    for sigma in itertools.permutations(range(d)):
        for weights in itertools.product(range(n), repeat=d):
            yield MonomialMatrix(d, n, sigma, weights)


# -- vector spaces over F_{1^n} ----------------------------------------------


@dataclass(frozen=True)
class F1nVectorSpace:
    """A d-dimensional space over the degree-n extension of F1.

    The nonzero points are the d*n pairs (orbit, exponent); the cyclic group
    of order n acts freely by shifting exponents.  The zero point is None.
    """

    d: int
    n: int

    def __post_init__(self):
        if self.d < 0 or self.n < 1:
            raise ValueError("need d >= 0 and n >= 1")

    @property
    def points(self) -> tuple:
        return tuple((j, u) for j in range(self.d) for u in range(self.n))

    def rotate(self, point):
        """Action of the canonical cyclic generator; 0 -> 0."""
        if point is None:
            return None
        j, u = _checked(point, self.d, self.n)
        return (j, (u + 1) % self.n)


def restrict_scalars(space: F1nVectorSpace, m: int) -> F1nVectorSpace:
    """View a space over the degree-n extension as one over the degree-m
    subextension (m must divide n): d*r orbits of size m, with r = n/m."""
    if m < 1 or space.n % m:
        raise ValueError(f"{m} does not divide {space.n}")
    r = space.n // m
    return F1nVectorSpace(space.d * r, m)


def restrict_scalars_point(space: F1nVectorSpace, m: int, point):
    """Where a point lands under :func:`restrict_scalars`.

    The orbit of index j splits along the unique index-r subgroup of the
    acting cyclic group; the point (j, u) becomes orbit j*r + (u mod r) with
    exponent u div r.
    """
    if m < 1 or space.n % m:
        raise ValueError(f"{m} does not divide {space.n}")
    if point is None:
        return None
    r = space.n // m
    j, u = _checked(point, space.d, space.n)
    return (j * r + u % r, u // r)
