"""Linear functionals on polynomials as truncated moment sequences.

A MomentForm of order N stores the moments (u)_0 .. (u)_N. Every operation
records the exact largest reliable order of its result: derivation keeps
the order, left-multiplication by a polynomial of degree d consumes d of
it. Silent use of unreliable high moments is the main correctness hazard
in moment calculus, so identity checks clamp to the valid range
explicitly (require_equal refuses to compare past it).
"""
from __future__ import annotations

from typing import Iterable, Sequence

from .backend import Rat as Rational
from .backend import mact, mderive, mleft
from .errors import IdentityViolated, OrderExceeded
from .poly import Polynomial, Scalar, as_rational

__all__ = ["MomentForm"]


class MomentForm:
    """Truncated linear functional: moments (u)_n for 0 <= n <= order."""

    __slots__ = ("moments",)

    def __init__(self, moments: Iterable[Scalar]):
        ms = tuple(as_rational(m) for m in moments)
        if not ms:
            raise ValueError("a moment form needs at least the moment (u)_0")
        object.__setattr__(self, "moments", ms)

    @staticmethod
    def _wrap(moments: tuple) -> "MomentForm":
        u = MomentForm.__new__(MomentForm)
        object.__setattr__(u, "moments", moments)
        return u

    @classmethod
    def zero(cls, order: int) -> "MomentForm":
        return cls._wrap((Rational(0),) * (order + 1))

    @property
    def order(self) -> int:
        return len(self.moments) - 1

    def moment(self, n: int) -> Rational:
        if n > self.order:
            raise OrderExceeded(f"moment index {n} exceeds reliable order {self.order}")
        return self.moments[n]

    def is_zero(self) -> bool:
        return all(m == 0 for m in self.moments)

    def act(self, p: Polynomial) -> Rational:
        """<u, p>; requires deg p <= order."""
        if p.degree > self.order:
            raise OrderExceeded(
                f"acting on degree {p.degree} needs moments past order {self.order}")
        return mact(p.coeffs, self.moments)

    def left_mul(self, f: Polynomial) -> "MomentForm":
        """The form f*u, with (fu)_n = sum_i f_i (u)_{n+i}.

        Consumes deg f orders; f = 0 gives the zero form of the same order.
        """
        if f.is_zero():
            return MomentForm.zero(self.order)
        if f.degree > self.order:
            raise OrderExceeded(
                f"left-multiplying by degree {f.degree} needs moments past order {self.order}")
        return self._wrap(mleft(f.coeffs, self.moments))

    def derivative(self) -> "MomentForm":
        """The form Du with (Du)_n = -n (u)_{n-1}; order is preserved."""
        return self._wrap(mderive(self.moments))

    def truncate(self, order: int) -> "MomentForm":
        if order > self.order:
            raise OrderExceeded(f"cannot extend order {self.order} to {order}")
        return self._wrap(self.moments[: order + 1])

    def __add__(self, other: "MomentForm") -> "MomentForm":
        n = min(self.order, other.order)
        return self._wrap(tuple(a + b for a, b in
                                zip(self.moments[: n + 1], other.moments[: n + 1])))

    def __sub__(self, other: "MomentForm") -> "MomentForm":
        n = min(self.order, other.order)
        return self._wrap(tuple(a - b for a, b in
                                zip(self.moments[: n + 1], other.moments[: n + 1])))

    def __neg__(self) -> "MomentForm":
        return self._wrap(tuple(-m for m in self.moments))

    def __mul__(self, scalar) -> "MomentForm":
        s = as_rational(scalar)
        return self._wrap(tuple(m * s for m in self.moments))

    def __rmul__(self, scalar) -> "MomentForm":
        return self.__mul__(scalar)

    def __eq__(self, other) -> bool:
        if isinstance(other, MomentForm):
            return self.moments == other.moments
        return NotImplemented

    def __hash__(self):
        return hash(self.moments)

    def __repr__(self):
        shown = ", ".join(str(m) for m in self.moments[:6])
        tail = ", ..." if len(self.moments) > 6 else ""
        return f"MomentForm([{shown}{tail}], order={self.order})"


def combine(pairs: Sequence[tuple]) -> MomentForm:
    """sum of f_i * u_i for (f_i, u_i) pairs, clamped to the common order."""
    terms = [u.left_mul(f) for f, u in pairs]
    n = min(t.order for t in terms)
    acc = terms[0].truncate(n)
    for t in terms[1:]:
        acc = acc + t.truncate(n)
    return acc


def require_equal(lhs: MomentForm, rhs: MomentForm, upto: int, tag: str):
    """Exact moment-wise equality to order upto; raises IdentityViolated with
    the first differing moment, OrderExceeded if either side is too shallow."""
    if min(lhs.order, rhs.order) < upto:
        raise OrderExceeded(
            f"{tag}: comparison to order {upto} exceeds reliable orders "
            f"{lhs.order}/{rhs.order}")
    for j in range(upto + 1):
        if lhs.moments[j] != rhs.moments[j]:
            raise IdentityViolated(tag, f"moment {j}", lhs.moments[j], rhs.moments[j])
