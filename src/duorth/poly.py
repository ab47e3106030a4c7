"""Exact rational scalars, dense univariate polynomials, and the exact
vector core that polynomials and moment forms share.

The scalar type Rational is the kernel's Rat, the stdlib Fraction.
Polynomial and forms.MomentForm both store integer numerators over one
shared denominator, as FLINT's fmpq_poly does, in the canonical pair
(nums, den): den > 0 and gcd(content(nums), den) = 1. One private base
class owns that pair, its reduce-once constructor from_pair, type-strict
equality and hashing, negation, the zero test and the Rational readout;
each subclass keeps its own arithmetic. A Polynomial's nums ascend with
no trailing zeros, and the zero polynomial is ((), 1) with degree
MINUS_INF. Arithmetic runs the kernel primitives on the integers and
reduces once per result; the coefficients are Rationals only at the
boundary (coeffs, __getitem__, leading), which no hot loop reads.
"""
from __future__ import annotations

from math import lcm
from typing import Iterable, Union

from .backend import Rat as Rational
from .backend import (padd, pderiv, pmul, pneg, pnorm, pscale, psub, qcommon,
                      qreduce)

__all__ = ["Rational", "Polynomial", "MINUS_INF", "as_rational", "X", "ONE"]

# degree of the zero polynomial; orders below any integer, unusable as an index
MINUS_INF = float("-inf")

Scalar = Union[Rational, int, str]


def as_rational(value: Scalar) -> Rational:
    """Coerce an int, a "p/q" string, or a rational to Rational."""
    if type(value) is Rational:
        return value
    return Rational(value)


def common_denominator(values) -> tuple:
    """(nums, den) with values[i] = nums[i] / den, den the lcm of the
    reduced denominators, so gcd(content(nums), den) = 1."""
    rs = [as_rational(v) for v in values]
    den = lcm(*(r.denominator for r in rs))
    return tuple([r.numerator * (den // r.denominator) for r in rs]), den


class _ExactVector:
    """An immutable vector of exact rationals stored as the canonical pair
    (nums, den); subclasses define what the vector means and its arithmetic."""

    __slots__ = ("nums", "den")

    @classmethod
    def _wrap(cls, nums: tuple, den: int):
        """Wrap a pair that is canonical already."""
        v = object.__new__(cls)
        v.nums, v.den = nums, den
        return v

    @classmethod
    def from_pair(cls, nums: tuple, den: int):
        """The vector nums/den (int nums, den != 0; a polynomial's nums
        without trailing zeros), reduced once to its canonical pair."""
        return cls._wrap(*qreduce(nums, den))

    def _rationals(self) -> tuple:
        """The entries as reduced Rationals."""
        return tuple([Rational(c, self.den) for c in self.nums])

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __eq__(self, other) -> bool:
        if type(other) is type(self):
            return self.nums == other.nums and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash((self.nums, self.den))

    def __neg__(self):
        return self._wrap(pneg(self.nums), self.den)

    def __rmul__(self, other):
        return self.__mul__(other)


class Polynomial(_ExactVector):
    """Immutable dense polynomial over the exact rationals, stored as the
    canonical pair (nums, den)."""

    __slots__ = ()

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        nums, den = common_denominator(coeffs)
        self.nums, self.den = pnorm(nums), den

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._wrap((), 1)

    @classmethod
    def constant(cls, c: Scalar) -> "Polynomial":
        return cls([c])

    @classmethod
    def monomial(cls, degree: int, c: Scalar = 1) -> "Polynomial":
        return cls([0] * degree + [c])

    coeffs = property(_ExactVector._rationals,
                      doc="The ascending coefficients as reduced Rationals.")

    @property
    def degree(self):
        """Degree as an int, or MINUS_INF for the zero polynomial."""
        return len(self.nums) - 1 if self.nums else MINUS_INF

    def leading(self) -> Rational:
        if not self.nums:
            raise ValueError("zero polynomial has no leading coefficient")
        return Rational(self.nums[-1], self.den)

    def is_monic(self) -> bool:
        return bool(self.nums) and self.nums[-1] == self.den

    def __getitem__(self, i: int) -> Rational:
        if i < 0:
            raise IndexError("coefficient index must be nonnegative")
        return Rational(self.nums[i], self.den) if i < len(self.nums) else Rational(0)

    def __iter__(self):
        return iter(self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b, den = qcommon(self.nums, self.den, other.nums, other.den)
        return self.from_pair(padd(a, b), den)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        a, b, den = qcommon(self.nums, self.den, other.nums, other.den)
        return self.from_pair(psub(a, b), den)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return self.from_pair(pmul(self.nums, other.nums), self.den * other.den)
        s = as_rational(other)
        return self.from_pair(pscale(self.nums, s.numerator), self.den * s.denominator)

    def __truediv__(self, scalar):
        s = as_rational(scalar)
        if s == 0:
            raise ZeroDivisionError("polynomial division by zero scalar")
        return self.from_pair(pscale(self.nums, s.denominator), self.den * s.numerator)

    def derivative(self, order: int = 1) -> "Polynomial":
        """Exact order-th derivative; the degree drops by exactly order
        (or the result is zero)."""
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        return self.from_pair(pderiv(self.nums, order), self.den)

    def __str__(self):
        if not self.nums:
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
