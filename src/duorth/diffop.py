"""Degree-non-increasing differential operators in normal form.

An operator is a finite list of polynomial coefficients a_nu with
deg a_nu <= nu, acting on polynomials as sum_nu a_nu(x) p^(nu)(x) / nu!.
The same coefficient list drives the action on polynomials, the shifted
operators, the transpose action on moment forms, and the lowering-order
classification with its lambda scalars.
"""
from __future__ import annotations

from math import comb, factorial
from typing import Sequence

from .backend import Rat as Rational
from .errors import OrderExceeded, ZeroLambda
from .forms import MomentForm
from .poly import Polynomial

__all__ = ["DiffOperator", "LoweringClass"]


class DiffOperator:
    """Immutable operator sum_nu a_nu(x)/nu! D^nu.

    Normal form requires deg a_nu <= nu. Operators produced by shifted()
    with m >= 1 break that bound (entry n may reach degree n+m); they are
    flagged and rejected by classify_order.
    """

    __slots__ = ("a", "shifted_form")

    def __init__(self, coefficients: Sequence[Polynomial], *, _shifted: bool = False):
        coeffs = list(coefficients)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        if not _shifted:
            for nu, a_nu in enumerate(coeffs):
                if a_nu.degree > nu:
                    raise ValueError(
                        f"normal form violated: deg a_{nu} = {a_nu.degree} > {nu}")
        object.__setattr__(self, "a", tuple(coeffs))
        object.__setattr__(self, "shifted_form", _shifted)

    @property
    def order(self) -> int:
        """Largest nu with a_nu nonzero (-1 for the zero operator)."""
        return len(self.a) - 1

    def coeff(self, nu: int) -> Polynomial:
        """a_nu(x), the zero polynomial beyond the stored list."""
        return self.a[nu] if 0 <= nu < len(self.a) else Polynomial.zero()

    def coef(self, i: int, nu: int) -> Rational:
        """a_i^[nu], the coefficient of x^i in a_nu(x)."""
        return self.coeff(nu)[i]

    def max_coeff_degree(self) -> int:
        degs = [p.degree for p in self.a if not p.is_zero()]
        return max(degs) if degs else 0

    def __eq__(self, other) -> bool:
        if isinstance(other, DiffOperator):
            return self.a == other.a
        return NotImplemented

    def __hash__(self):
        return hash(self.a)

    def __repr__(self):
        inner = "; ".join(f"a{nu}={p}" for nu, p in enumerate(self.a))
        return f"DiffOperator({inner})"

    def apply(self, p: Polynomial) -> Polynomial:
        """J(p) = sum_nu a_nu(x) p^(nu)(x) / nu!; never raises the degree."""
        out = Polynomial.zero()
        d = p
        for nu, a_nu in enumerate(self.a):
            if nu > 0:
                d = d.derivative()
            if d.is_zero():
                break
            if not a_nu.is_zero():
                out = out + (a_nu * d) / factorial(nu)
        return out

    def shifted(self, m: int) -> "DiffOperator":
        """The operator with coefficient list a_{n+m}; transposing it gives
        the J^(m) action on forms."""
        if m < 0:
            raise ValueError("shift must be nonnegative")
        if m == 0:
            return self
        return DiffOperator(self.a[m:], _shifted=True)

    def transpose_apply(self, u: MomentForm) -> MomentForm:
        """The transposed action sum_n ((-1)^n / n!) D^n(a_n u).

        The result is reliable to u.order - max coefficient degree.
        """
        need = max(self.order, 0) + self.max_coeff_degree()
        if u.order < need:
            raise OrderExceeded(
                f"transpose needs order >= {need}, form has {u.order}")
        out = None
        for n, a_n in enumerate(self.a):
            if a_n.is_zero():
                continue
            term = u.left_mul(a_n)
            for _ in range(n):
                term = term.derivative()
            term = term * Rational((-1) ** n, factorial(n))
            out = term if out is None else out + term
        if out is None:
            return MomentForm.zero(u.order)
        return out

    def lambda_seq(self, k: int, count: int) -> list:
        """[lambda_{n+k}^[k] for n = 0..count], the order-k normalization
        scalars sum_nu C(n+k, n+k-nu) a_{n-nu}^[n+k-nu]."""
        out = []
        for n in range(count + 1):
            acc = Rational(0)
            for nu in range(n + 1):
                c = self.coef(n - nu, n + k - nu)
                if c != 0:
                    acc = acc + comb(n + k, nu) * c
            out.append(acc)
        return out

    def classify_order(self, n_check: int) -> "LoweringClass":
        """Determine the lowering order k: a_0 = .. = a_{k-1} = 0,
        deg a_nu <= nu - k, and lambda_{n+k}^[k] != 0 for 0 <= n <= n_check."""
        if self.shifted_form:
            raise ValueError("classify_order requires a normal-form operator")
        if n_check < 1:
            raise ValueError("n_check must be >= 1")
        k = None
        for nu, a_nu in enumerate(self.a):
            if not a_nu.is_zero():
                k = nu
                break
        if k is None:
            return LoweringClass(None, (), n_check, "zero operator")
        for nu in range(k, len(self.a)):
            if self.a[nu].degree > nu - k:
                return LoweringClass(
                    None, (), n_check,
                    f"deg a_{nu} = {self.a[nu].degree} > {nu - k}")
        lambdas = tuple(self.lambda_seq(k, n_check))
        for n, lam in enumerate(lambdas):
            if lam == 0:
                return LoweringClass(
                    None, (), n_check, f"lambda_{n + k}^[{k}] = 0")
        return LoweringClass(k, lambdas, n_check, "")

    def jimage_mps(self, P: Sequence[Polynomial], k: int) -> list:
        """Normalized image sequence: (lambda_{n+k}^[k])^-1 J(P_{n+k}),
        monic of degree n, for n = 0..len(P)-1-k."""
        count = len(P) - 1 - k
        if count < 0:
            raise ValueError("MPS prefix shorter than the lowering order")
        lambdas = self.lambda_seq(k, count)
        out = []
        for n in range(count + 1):
            lam = lambdas[n]
            if lam == 0:
                raise ZeroLambda(f"lambda_{n + k}^[{k}] = 0")
            q = self.apply(P[n + k]) / lam
            if q.degree != n or not q.is_monic():
                raise ValueError(
                    f"image of P_{n + k} is not monic of degree {n}; "
                    f"operator does not lower by {k}")
            out.append(q)
        return out


class LoweringClass:
    """Classification result: the order k and its lambda scalars, or a
    not-classifiable marker with the failing reason."""

    __slots__ = ("k", "lambdas", "horizon", "reason")

    def __init__(self, k, lambdas, horizon, reason):
        self.k = k
        self.lambdas = lambdas
        self.horizon = horizon
        self.reason = reason

    @property
    def classified(self) -> bool:
        return self.k is not None

    def __repr__(self):
        if not self.classified:
            return f"LoweringClass(not classifiable: {self.reason})"
        return f"LoweringClass(k={self.k}, verified to n={self.horizon})"
