"""Linear functionals on polynomials as truncated moment sequences.

A MomentForm of order N stores the moments (u)_0 .. (u)_N as integer
numerators over one shared denominator, in the canonical pair (nums, den)
of the exact vector core it shares with poly.Polynomial (storage,
from_pair, equality, hash, negation, zero test): len(nums) = N + 1, so
the zero form of order N is ((0,) * (N + 1), 1). The form's own kernel
primitives (mleft, mderive, mact) run on the integers and each result is
reduced once; the moments are Rationals only at the boundary (moments,
moment, act's value).

Every operation records the exact largest reliable order of its result:
derivation keeps the order, left-multiplication by a polynomial of degree
d consumes d of it. Silent use of unreliable high moments is the main
correctness hazard in moment calculus, so identity checks clamp to the
valid range explicitly (require_equal refuses to compare past it).
"""
from __future__ import annotations

from typing import Iterable

from .backend import Rat as Rational
from .backend import mact, mderive, mleft, qcommon
from .errors import IdentityViolated, OrderExceeded
from .poly import Polynomial, Scalar, _ExactVector, as_rational, common_denominator

__all__ = ["MomentForm"]


class MomentForm(_ExactVector):
    """Truncated linear functional: moments (u)_n for 0 <= n <= order."""

    __slots__ = ()

    def __init__(self, moments: Iterable[Scalar]):
        nums, den = common_denominator(moments)
        if not nums:
            raise ValueError("a moment form needs at least the moment (u)_0")
        self.nums, self.den = nums, den

    @classmethod
    def zero(cls, order: int) -> "MomentForm":
        return cls._wrap((0,) * (order + 1), 1)

    moments = property(_ExactVector._rationals, doc="The moments as reduced Rationals.")

    @property
    def order(self) -> int:
        return len(self.nums) - 1

    def moment(self, n: int) -> Rational:
        if n > self.order:
            raise OrderExceeded(f"moment index {n} exceeds reliable order {self.order}")
        return Rational(self.nums[n], self.den)

    def act(self, p: Polynomial) -> Rational:
        """<u, p>; requires deg p <= order."""
        if p.degree > self.order:
            raise OrderExceeded(
                f"acting on degree {p.degree} needs moments past order {self.order}")
        return Rational(mact(p.nums, self.nums), p.den * self.den)

    def left_mul(self, f: Polynomial) -> "MomentForm":
        """The form f*u, with (fu)_n = sum_i f_i (u)_{n+i}.

        Consumes deg f orders; f = 0 gives the zero form of the same order.
        """
        if f.is_zero():
            return MomentForm.zero(self.order)
        if f.degree > self.order:
            raise OrderExceeded(
                f"left-multiplying by degree {f.degree} needs moments past order {self.order}")
        return self.from_pair(mleft(f.nums, self.nums), f.den * self.den)

    def derivative(self) -> "MomentForm":
        """The form Du with (Du)_n = -n (u)_{n-1}; order is preserved."""
        return self.from_pair(mderive(self.nums), self.den)

    def _common(self, other: "MomentForm") -> tuple:
        """Both moment vectors clamped to the common order, over one denominator."""
        n = min(self.order, other.order) + 1
        return qcommon(self.nums[:n], self.den, other.nums[:n], other.den)

    def __add__(self, other: "MomentForm") -> "MomentForm":
        a, b, den = self._common(other)
        return self.from_pair(tuple([x + y for x, y in zip(a, b)]), den)

    def __sub__(self, other: "MomentForm") -> "MomentForm":
        a, b, den = self._common(other)
        return self.from_pair(tuple([x - y for x, y in zip(a, b)]), den)

    def __mul__(self, scalar) -> "MomentForm":
        s = as_rational(scalar)
        return self.from_pair(tuple([m * s.numerator for m in self.nums]),
                          self.den * s.denominator)

    def __repr__(self):
        shown = ", ".join(str(self.moment(n)) for n in range(min(6, len(self.nums))))
        tail = ", ..." if len(self.nums) > 6 else ""
        return f"MomentForm([{shown}{tail}], order={self.order})"


def combine(pairs: Iterable[tuple]) -> MomentForm:
    """sum of f_i * u_i for (f_i, u_i) pairs, clamped to the common order
    (each sum clamps to the order of its shallower term). No pair raises
    ValueError."""
    terms = [u.left_mul(f) for f, u in pairs]
    if not terms:
        raise ValueError("combine needs at least one (f, u) pair")
    acc = terms[0]
    for t in terms[1:]:
        acc = acc + t
    return acc


def require_order(duals: Iterable[MomentForm], order: int) -> None:
    """Raise OrderExceeded unless every dual carries moments to order."""
    if any(u.order < order for u in duals):
        raise OrderExceeded(f"duals must carry order >= {order}")


def require_equal(lhs: MomentForm, rhs: MomentForm, upto: int, tag: str):
    """Exact moment-wise equality to order upto; raises IdentityViolated with
    the first differing moment, OrderExceeded if either side is too shallow."""
    if min(lhs.order, rhs.order) < upto:
        raise OrderExceeded(
            f"{tag}: comparison to order {upto} exceeds reliable orders "
            f"{lhs.order}/{rhs.order}")
    a, b, _ = qcommon(lhs.nums[: upto + 1], lhs.den, rhs.nums[: upto + 1], rhs.den)
    if a != b:
        j = next(j for j, (x, y) in enumerate(zip(a, b)) if x != y)
        raise IdentityViolated(tag, f"moment {j}", lhs.moment(j), rhs.moment(j))
