"""Sparse integer polynomials in one indeterminate, with exact arithmetic.

All coefficients are plain Python ints, so there is no precision ceiling.
The same class backs the Grothendieck classes (variable ``L``) and the
q-analog calculators (variable ``q``); the variable name only affects
rendering, never equality.
"""

from __future__ import annotations

NEG_INFINITY = float("-inf")


class IntPolynomial:
    """Immutable integer polynomial stored as a degree -> coefficient map.

    Zero coefficients are never stored.  The degree of the zero polynomial
    is the sentinel ``float("-inf")``.
    """

    __slots__ = ("_coeffs", "var")

    def __init__(self, coeffs=None, var: str = "x"):
        table = {}
        if coeffs is None:
            pass
        elif isinstance(coeffs, int):
            if coeffs:
                table[0] = coeffs
        elif isinstance(coeffs, IntPolynomial):
            table = dict(coeffs._coeffs)
        else:
            for deg, c in dict(coeffs).items():
                if not isinstance(deg, int) or deg < 0:
                    raise ValueError(f"invalid degree {deg!r}")
                if not isinstance(c, int):
                    raise TypeError(f"coefficient {c!r} is not an integer")
                if c:
                    table[deg] = c
        object.__setattr__(self, "_coeffs", table)
        object.__setattr__(self, "var", var)

    @classmethod
    def _of(cls, table: dict, var: str) -> "IntPolynomial":
        """The polynomial of a degree -> int ``table`` already known to be
        valid, as arithmetic builds it; zero entries are dropped and nothing
        is checked."""
        p = cls.__new__(cls)
        object.__setattr__(p, "_coeffs", {k: c for k, c in table.items() if c})
        object.__setattr__(p, "var", var)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    # -- inspection ---------------------------------------------------

    @property
    def degree(self):
        """Largest degree with a nonzero coefficient; -inf for zero."""
        return max(self._coeffs) if self._coeffs else NEG_INFINITY

    def coefficients(self) -> dict:
        """Copy of the degree -> coefficient map (nonzero entries only)."""
        return dict(self._coeffs)

    def to_coefficient_list(self) -> list:
        """Dense ascending coefficient list; empty for the zero polynomial."""
        if not self._coeffs:
            return []
        top = max(self._coeffs)
        return [self._coeffs.get(k, 0) for k in range(top + 1)]

    @classmethod
    def from_coefficient_list(cls, coeffs, var: str = "x") -> "IntPolynomial":
        return cls({k: c for k, c in enumerate(coeffs)}, var=var)

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, IntPolynomial):
            return other
        if isinstance(other, int):
            return IntPolynomial(other, var=self.var)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        table = dict(self._coeffs)
        for k, c in other._coeffs.items():
            table[k] = table.get(k, 0) + c
        return IntPolynomial._of(table, self.var)

    __radd__ = __add__

    def __neg__(self):
        return IntPolynomial._of({k: -c for k, c in self._coeffs.items()}, self.var)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        table = dict(self._coeffs)
        for k, c in other._coeffs.items():
            table[k] = table.get(k, 0) - c
        return IntPolynomial._of(table, self.var)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        table = {}
        for i, a in self._coeffs.items():
            for j, b in other._coeffs.items():
                table[i + j] = table.get(i + j, 0) + a * b
        return IntPolynomial._of(table, self.var)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = IntPolynomial(1, var=self.var)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __call__(self, x):
        """Evaluate at ``x``; exact for int and Fraction arguments."""
        total = 0
        for k, c in self._coeffs.items():
            total += c * x**k
        return total

    # -- comparison / hashing ------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        # a constant equals its int, so it must hash like it
        if self.degree <= 0:
            return hash(self._coeffs.get(0, 0))
        return hash(frozenset(self._coeffs.items()))

    def __bool__(self):
        return bool(self._coeffs)

    # -- rendering ------------------------------------------------------

    def render(self, var: str | None = None) -> str:
        """Descending-degree string such as ``q^4+q^3+2q^2+q+1``."""
        var = self.var if var is None else var
        if not self._coeffs:
            return "0"
        parts = []
        for k in sorted(self._coeffs, reverse=True):
            c = self._coeffs[k]
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else str(mag)
                body = f"{head}{var}" if k == 1 else f"{head}{var}^{k}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{sign}{body}")
        return "".join(parts)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"IntPolynomial({self._coeffs!r}, var={self.var!r})"
