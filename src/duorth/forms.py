"""Linear functionals on polynomials as truncated moment sequences.

A MomentForm of order N stores the moments (u)_0 .. (u)_N as integer
numerators over one shared denominator, in the canonical pair (nums, den)
of the exact vector core it shares with poly.Polynomial (storage,
from_pair, equality, hash, negation, zero test): len(nums) = N + 1, so
the zero form of order N is ((0,) * (N + 1), 1). The kernel primitives
(mleft, mderive, mact), +, -, scalar * and DiffOperator.transpose_apply
run on the integers, and a result keeps its unreduced pair: the one
reduction runs when its canonical pair is first read (nums, den, ==,
hash, moments, moment, serialization). require_equal cross-multiplies
unreduced pairs, so a result compared once and dropped is never reduced.
The moments are Rationals only at the boundary (moments, moment, act).

Every operation records the exact largest reliable order of its result:
derivation keeps the order, left-multiplication by a polynomial of degree
d consumes d of it. Silent use of unreliable high moments is the main
correctness hazard in moment calculus, so identity checks clamp to the
valid range explicitly (require_equal refuses to compare past it).
"""
from __future__ import annotations

from typing import Iterable

from .backend import Rat as Rational
from .backend import mact, mderive, mleft, qcommon, qreduce
from .errors import IdentityViolated, OrderExceeded
from .poly import Polynomial, Scalar, _ExactVector, as_rational, common_denominator

__all__ = ["MomentForm"]


class MomentForm(_ExactVector):
    """Truncated linear functional: moments (u)_n for 0 <= n <= order."""

    __slots__ = ("_raw",)  # the pair arithmetic reads, unreduced until read

    def __init__(self, moments: Iterable[Scalar]):
        nums, den = common_denominator(moments)
        if not nums:
            raise ValueError("a moment form needs at least the moment (u)_0")
        self.nums, self.den = nums, den

    @classmethod
    def _result(cls, nums: tuple, den: int) -> "MomentForm":
        """The form nums/den (den > 0), reduced when first read."""
        u = object.__new__(cls)
        u._raw = nums, den
        return u

    def __getattr__(self, name):
        # an unset slot: a result's pair is reduced now and kept as _raw
        # too; a form built canonical takes its own pair as _raw
        if name == "_raw":
            self._raw = _ExactVector.nums.__get__(self), _ExactVector.den.__get__(self)
        elif name in ("nums", "den"):
            self.nums, self.den = self._raw = qreduce(*MomentForm._raw.__get__(self))
        else:
            raise AttributeError(name)
        return getattr(self, name)

    @classmethod
    def zero(cls, order: int) -> "MomentForm":
        return cls._wrap((0,) * (order + 1), 1)

    moments = property(_ExactVector._rationals, doc="The moments as reduced Rationals.")

    @property
    def order(self) -> int:
        return len(self._raw[0]) - 1

    def moment(self, n: int) -> Rational:
        if n > self.order:
            raise OrderExceeded(f"moment index {n} exceeds reliable order {self.order}")
        return Rational(self.nums[n], self.den)

    def act(self, p: Polynomial) -> Rational:
        """<u, p>; requires deg p <= order."""
        if p.degree > self.order:
            raise OrderExceeded(
                f"acting on degree {p.degree} needs moments past order {self.order}")
        nums, den = self._raw
        return Rational(mact(p.nums, nums), p.den * den)

    def left_mul(self, f: Polynomial) -> "MomentForm":
        """The form f*u, with (fu)_n = sum_i f_i (u)_{n+i}.

        Consumes deg f orders; f = 0 gives the zero form of the same order.
        """
        if f.is_zero():
            return MomentForm.zero(self.order)
        if f.degree > self.order:
            raise OrderExceeded(
                f"left-multiplying by degree {f.degree} needs moments past order {self.order}")
        nums, den = self._raw
        return self._result(mleft(f.nums, nums), f.den * den)

    def derivative(self) -> "MomentForm":
        """The form Du with (Du)_n = -n (u)_{n-1}; order is preserved."""
        nums, den = self._raw
        return self._result(mderive(nums), den)

    def _common(self, other: "MomentForm") -> tuple:
        """Both moment vectors clamped to the common order, over one denominator."""
        (a, da), (b, db) = self._raw, other._raw
        n = min(len(a), len(b))
        return qcommon(a[:n], da, b[:n], db)

    def __add__(self, other: "MomentForm") -> "MomentForm":
        a, b, den = self._common(other)
        return self._result(tuple([x + y for x, y in zip(a, b)]), den)

    def __sub__(self, other: "MomentForm") -> "MomentForm":
        a, b, den = self._common(other)
        return self._result(tuple([x - y for x, y in zip(a, b)]), den)

    def __mul__(self, scalar) -> "MomentForm":
        s = as_rational(scalar)
        nums, den = self._raw
        return self._result(tuple([m * s.numerator for m in nums]), den * s.denominator)

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
    (an, ad), (bn, bd) = lhs._raw, rhs._raw
    a, b, _ = qcommon(an[: upto + 1], ad, bn[: upto + 1], bd)
    if a != b:
        j = next(j for j, (x, y) in enumerate(zip(a, b)) if x != y)
        raise IdentityViolated(tag, f"moment {j}", lhs.moment(j), rhs.moment(j))
