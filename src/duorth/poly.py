"""Exact rational scalars and dense univariate polynomials.

The scalar type Rational is the kernel's Rat, the stdlib Fraction.
Polynomials store ascending coefficients with no trailing zeros; the zero
polynomial has an empty coefficient tuple and degree MINUS_INF.
"""
from __future__ import annotations

from typing import Iterable, Union

from .backend import Rat as Rational
from .backend import padd, pderiv, pmul, pneg, pnorm, pscale, psub

__all__ = ["Rational", "Polynomial", "MINUS_INF", "as_rational", "X", "ONE"]

# degree of the zero polynomial; orders below any integer, unusable as an index
MINUS_INF = float("-inf")

Scalar = Union[Rational, int, str]


def as_rational(value: Scalar) -> Rational:
    """Coerce an int, a "p/q" string, or a rational to Rational."""
    if type(value) is Rational:
        return value
    return Rational(value)


class Polynomial:
    """Immutable dense polynomial over the exact rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        object.__setattr__(self, "coeffs", pnorm([as_rational(c) for c in coeffs]))

    @staticmethod
    def _wrap(coeffs: tuple) -> "Polynomial":
        p = Polynomial.__new__(Polynomial)
        object.__setattr__(p, "coeffs", coeffs)
        return p

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._wrap(())

    @classmethod
    def constant(cls, c: Scalar) -> "Polynomial":
        return cls([c])

    @classmethod
    def monomial(cls, degree: int, c: Scalar = 1) -> "Polynomial":
        return cls([0] * degree + [c])

    @property
    def degree(self):
        """Degree as an int, or MINUS_INF for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else MINUS_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Rational:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __getitem__(self, i: int) -> Rational:
        if i < 0:
            raise IndexError("coefficient index must be nonnegative")
        return self.coeffs[i] if i < len(self.coeffs) else Rational(0)

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._wrap(padd(self.coeffs, other.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._wrap(psub(self.coeffs, other.coeffs))

    def __neg__(self) -> "Polynomial":
        return self._wrap(pneg(self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return self._wrap(pmul(self.coeffs, other.coeffs))
        return self._wrap(pscale(self.coeffs, as_rational(other)))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, scalar):
        s = as_rational(scalar)
        if s == 0:
            raise ZeroDivisionError("polynomial division by zero scalar")
        return self._wrap(pscale(self.coeffs, 1 / s))

    def derivative(self, order: int = 1) -> "Polynomial":
        """Exact order-th derivative; the degree drops by exactly order
        (or the result is zero)."""
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        return self._wrap(pderiv(self.coeffs, order))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                xi = "x" if i == 1 else f"x^{i}"
                parts.append(xi if c == 1 else f"({c}){xi}" if "/" in str(c) or c < 0 else f"{c}{xi}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Polynomial([{', '.join(map(str, self.coeffs))}])"


X = Polynomial([0, 1])
ONE = Polynomial([1])
