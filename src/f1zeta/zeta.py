"""Zeta functions attached to a counting polynomial.

A scheme whose F_q-point count is a polynomial N(q) = sum a_k q^k has

* an F1-zeta function  prod_k (s - k)^(-a_k), stored exactly as the
  exponent map ``k -> a_k`` (:class:`ZetaF1`);
* a local factor over F_p,  prod_k (1 - p^(k-s))^(-a_k);
* an arithmetic zeta, the formal product  prod_k zeta(s - k)^(a_k),
  rendered symbolically only.

The local factor admits two power-series expansions in T = p^(-s) which
must agree coefficient by coefficient: the Euler-product expansion
(:func:`local_zeta_series`) and exp of the point-count generating series
(:func:`counting_series`).  The first multiplies the closed-form binomial
expansions (1 - p^k T)^(-a_k) = sum_m C(a_k+m-1, m) p^(km) T^m in
integers, one series product per nonzero a_k, so it costs O(#k * order^2)
whatever the size of the a_k; the second solves Newton's identity
m e_m = sum_{j=1..m} N(p^j) e_(m-j) for the coefficients e_m, also in
integers and in O(order^2).
The only floating-point computation in this module is
:func:`limit_check`, which watches the local factor converge to the
F1-zeta value as p drops to 1.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .poly import IntPolynomial


@dataclass(frozen=True)
class ZetaF1:
    """The function prod_k (t - k)^(-a_k) as the exact map k -> a_k.

    ``factors`` holds ``(k, a_k)`` pairs with nonzero a_k, sorted by k.
    Positive a_k are poles, negative a_k zeros; the exponent sum is the
    point count over F1 (the Euler characteristic).
    """

    factors: tuple

    def __post_init__(self):
        exact = ((operator.index(k), operator.index(a)) for k, a in self.factors)
        pairs = tuple(sorted((k, a) for k, a in exact if a))
        if any(k < 0 for k, _ in pairs):
            raise ValueError("exponents must sit at nonnegative integers")
        if len({k for k, _ in pairs}) != len(pairs):
            raise ValueError("duplicate exponent keys")
        object.__setattr__(self, "factors", pairs)

    @property
    def exponents(self) -> dict:
        return dict(self.factors)

    @property
    def euler_characteristic(self) -> int:
        return sum(a for _, a in self.factors)

    def value(self, s: float) -> float:
        """Evaluate prod (s - k)^(-a_k); raises at a pole."""
        result = 1.0
        for k, a in self.factors:
            base = s - k
            if base == 0 and a > 0:
                raise ValueError(f"s = {k} is a pole")
            result *= float(base) ** (-a)
        return result

    def render(self, var: str = "t") -> str:
        """Factored string such as ``1/(t(t-1)(t-2))`` or ``(t-1)^2/t^3``."""

        def factor(k, e):
            base = var if k == 0 else f"({var}-{k})"
            return base if e == 1 else f"{base}^{e}"

        num = [factor(k, -a) for k, a in self.factors if a < 0]
        den = [factor(k, a) for k, a in self.factors if a > 0]
        return _quotient(num, den)

    def to_json(self) -> list:
        return [{"root": k, "multiplicity": a} for k, a in self.factors]


def zeta_from_polynomial(p: IntPolynomial) -> ZetaF1:
    """Read the exponent map straight off the counting polynomial."""
    return ZetaF1(tuple(p.coefficients().items()))


def polynomial_from_zeta(z: ZetaF1) -> IntPolynomial:
    """Inverse of :func:`zeta_from_polynomial`."""
    return IntPolynomial(z.exponents, var="L")


def euler_characteristic(p: IntPolynomial) -> int:
    """Coefficient sum; the number of points over F1."""
    return p(1)


@dataclass(frozen=True)
class PowerSeriesZ:
    """Truncated power series with exact rational coefficients.

    ``coefficients`` has length ``order + 1``: the terms T^0 … T^order.
    """

    order: int
    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(Fraction(c) for c in self.coefficients)
        if len(coeffs) != self.order + 1:
            raise ValueError("coefficient count must be order + 1")
        object.__setattr__(self, "coefficients", coeffs)


def local_zeta_series(p: IntPolynomial, prime: int, order: int = 10) -> PowerSeriesZ:
    """Expansion of prod_k (1 - prime^k T)^(-a_k) in T up to ``order``.

    T stands for prime^(-s).  Each factor has the closed form
    (1 - r T)^(-a) = sum_m C(a+m-1, m) r^m T^m with r = prime^k: for a > 0
    the geometric series raised to the a-th power, for a < 0 the
    polynomial sum_m C(|a|, m) (-r)^m T^m.  The factors are multiplied in
    integers, one series product per nonzero a_k, so the cost is
    O(#k * order^2) however large the a_k are.
    """
    prime, order = _check_series_args(prime, order)
    series = [1] + [0] * order
    for k, a in p.coefficients().items():
        ratio = prime**k
        factor = [1]
        for m in range(1, order + 1):
            # C(a+m-1, m) r^m = C(a+m-2, m-1) r^(m-1) * (a+m-1) r / m, exactly
            factor.append(factor[-1] * (a + m - 1) * ratio // m)
        # coefficient m is sum_j series[j] * factor[m - j], paired at C level
        factor.reverse()
        series = [
            sum(map(operator.mul, series[: m + 1], factor[order - m :]))
            for m in range(order + 1)
        ]
    return PowerSeriesZ(order, tuple(series))


def counting_series(p: IntPolynomial, prime: int, order: int = 10) -> PowerSeriesZ:
    """exp( sum_{m>=1} N(prime^m) T^m / m ) with N the counting polynomial.

    The series E = sum_m e_m T^m solves T E' = E * sum_j N(prime^j) T^j,
    that is m e_m = sum_{j=1..m} N(prime^j) e_(m-j) with e_0 = 1, so each
    coefficient is an integer sum divided by m.  The division is exact,
    because E is the Euler product of :func:`local_zeta_series`, whose
    coefficients are integers; a remainder raises ``ArithmeticError``.
    """
    prime, order = _check_series_args(prime, order)
    counts = [p(prime**j) for j in range(1, order + 1)]  # counts[j - 1] = N(prime^j)
    series = [1]
    for m in range(1, order + 1):
        e, rest = divmod(sum(counts[j] * series[m - 1 - j] for j in range(m)), m)
        if rest:
            raise ArithmeticError(f"coefficient {m} of the counting series is not an integer")
        series.append(e)
    return PowerSeriesZ(order, tuple(series))


def _check_series_args(prime: int, order: int) -> tuple:
    """``prime`` and ``order`` as ints, checked; a value that is not an
    integer raises ``TypeError``, as in :class:`ZetaF1`."""
    prime, order = operator.index(prime), operator.index(order)
    if prime < 2:
        raise ValueError("prime must be at least 2")
    if order < 1:
        raise ValueError("order must be at least 1")
    return prime, order


def render_arithmetic_zeta(p: IntPolynomial, ascii_zeta: bool = False) -> str:
    """Symbolic arithmetic zeta prod_k zeta(s-k)^(a_k).

    Factors are sorted by k ascending; exponents of magnitude one are
    omitted; negative exponents move to the denominator, e.g. the
    multiplicative group renders as ``ζ(s-1)/ζ(s)``.
    """
    sym = "zeta" if ascii_zeta else "ζ"

    def factor(k, e):
        base = f"{sym}(s)" if k == 0 else f"{sym}(s-{k})"
        return base if e == 1 else f"{base}^{e}"

    coeffs = sorted(p.coefficients().items())
    num = [factor(k, a) for k, a in coeffs if a > 0]
    den = [factor(k, -a) for k, a in coeffs if a < 0]
    return _quotient(num, den)


def _quotient(num, den) -> str:
    """Juxtaposed factors as ``num/den``: ``1`` on top when there is no
    numerator, the denominator bracketed when it has several factors."""
    top = "".join(num) if num else "1"
    if not den:
        return top
    bottom = "".join(den)
    if len(den) > 1:
        bottom = f"({bottom})"
    return f"{top}/{bottom}"


def local_zeta_value(z: ZetaF1, s: float, p: float) -> float:
    """The local factor prod_k (1 - p^(k-s))^(-a_k) at real s and p > 1."""
    if p <= 1:
        raise ValueError("p must exceed 1")
    result = 1.0
    for k, a in z.factors:
        g = -math.expm1((k - s) * math.log(p))
        if g == 0 and a > 0:
            raise ValueError(f"s = {k} is a pole of the local factor")
        result *= g ** (-a)
    return result


def limit_check(z: ZetaF1, s: float, p: float) -> float:
    """Evaluate local_factor(s, p) * (p - 1)^chi, chi the Euler characteristic.

    As p decreases to 1 this converges to ``z.value(s)`` with error O(p-1);
    ``s`` must avoid the integers 0..max k.
    """
    top = max((k for k, _ in z.factors), default=0)
    if s == int(s) and 0 <= int(s) <= top:
        raise ValueError(f"s = {s} lies on a root of the zeta function")
    return local_zeta_value(z, s, p) * (p - 1) ** z.euler_characteristic
