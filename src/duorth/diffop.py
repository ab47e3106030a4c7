"""Degree-non-increasing differential operators in normal form.

An operator is a finite list of polynomial coefficients a_nu with
deg a_nu <= nu, acting on polynomials as sum_nu a_nu(x) p^(nu)(x) / nu!.
The same coefficient list drives the action on polynomials, the transpose
actions on moment forms of J and of its shifts J^(m), and the operator's band:
its upper-triangular matrix in the monomial basis, whose diagonal and
superdiagonals hold the lambda scalars of the eigen-solve and of the
lowering-order classification. One fraction-free triangular solve of the
band (_band_solve) gives the eigenvector of lambda_k toward degree 0, the
monic eigenpolynomial P_k, or toward higher moments, its dual u_k. Only
this module and eigensolver read the band's layout.

integer_form() gives the coefficients as integer numerators over their
common denominator den, and both actions are one integer pass over den
with one reduction per result, through binomial weights instead of
derivative chains:
  * p^(nu)/nu! has the integer coefficient C(k, nu) p_k at x^(k-nu), so
    J(p) = sum_nu a_nu * (sum_k C(k, nu) p_k x^(k-nu));
  * ((-1)^nu/nu!) D^nu w has the moments C(m, nu) (w)_(m-nu), so
    (J^T u)_m = sum_nu C(m, nu) (a_nu u)_(m-nu).
"""
from __future__ import annotations

from math import comb, lcm
from typing import Sequence

# the coefficient products run as poly.pmul and forms.mleft, the module
# globals that perfbench's tracer wraps to count kernel work
from . import forms, poly
from .backend import Rat as Rational
from .backend import pnorm
from .errors import OrderExceeded
from .forms import MomentForm
from .poly import Polynomial

__all__ = ["DiffOperator", "LoweringClass"]


class DiffOperator:
    """Immutable operator sum_nu a_nu(x)/nu! D^nu in normal form,
    deg a_nu <= nu, so it never raises the degree of a polynomial."""

    __slots__ = ("a", "_integer", "_band")

    def __init__(self, coefficients: Sequence[Polynomial]):
        coeffs = list(coefficients)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        for nu, a_nu in enumerate(coeffs):
            if a_nu.degree > nu:
                raise ValueError(
                    f"normal form violated: deg a_{nu} = {a_nu.degree} > {nu}")
        object.__setattr__(self, "a", tuple(coeffs))
        object.__setattr__(self, "_integer", None)
        object.__setattr__(self, "_band", ())

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

    def integer_form(self) -> tuple:
        """(nums, den): nums[nu] holds the integer coefficients of a_nu over
        den, the common denominator of all a_nu. Built on first use, so an
        operator that is only drawn or compared never pays for it."""
        if self._integer is None:
            dens = [p.den for p in self.a]
            den = lcm(*dens)
            nums = tuple([p.nums if d == den
                          else tuple([c * (den // d) for c in p.nums])
                          for p, d in zip(self.a, dens)])
            object.__setattr__(self, "_integer", (nums, den))
        return self._integer

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
        """J(p) = sum_nu a_nu(x) p^(nu)(x) / nu!; never raises the degree.

        p^(nu)/nu! = sum_k C(k, nu) p_k x^(k-nu) has integer coefficients
        over p's denominator, so the image is the integer sum of one
        poly.pmul per nonzero a_nu with nu <= deg p, over den * p.den,
        reduced once."""
        nums, den = self.integer_form()
        terms = []
        for nu, a_nu in enumerate(nums[: len(p.nums)]):
            if a_nu:
                d = p.nums if nu == 0 else [
                    comb(k, nu) * c for k, c in enumerate(p.nums[nu:], nu)]
                terms.append(poly.pmul(a_nu, d))
        acc = [0] * max(map(len, terms), default=0)
        for t in terms:
            for i, c in enumerate(t):
                acc[i] += c
        return Polynomial.from_pair(pnorm(acc), den * p.den)

    def transpose_apply(self, u: MomentForm, m: int = 0) -> MomentForm:
        """The transpose of J^(m) = sum_nu a_(nu+m) D^nu / nu!, the action
        sum_nu ((-1)^nu / nu!) D^nu(a_(nu+m) u); m = 0 gives J's own.

        Since (D w)_i = -i (w)_(i-1), the term of a_(nu+m) has the moments
        C(i, nu) (a_(nu+m) u)_(i-nu): the result is one forms.mleft per
        nonzero a_(nu+m), read from J's integer form and summed with
        binomial weights over den * u.den, reduced once. It is reliable to
        u.order - max degree of the a_(nu+m).
        """
        if m < 0:
            raise ValueError("shift must be nonnegative")
        nums, den = self.integer_form()
        nums = nums[m:]
        top = max(map(len, nums), default=1) - 1
        need = max(len(nums) - 1, 0) + top
        if u.order < need:
            raise OrderExceeded(
                f"transpose needs order >= {need}, form has {u.order}")
        acc = [0] * (u.order - top + 1)
        for nu, a_nu in enumerate(nums):
            if not a_nu:
                continue
            w = forms.mleft(a_nu, u.nums)
            for i in range(nu, len(acc)):
                acc[i] += comb(i, nu) * w[i - nu]
        return MomentForm.from_pair(tuple(acc), den * u.den)

    def band(self, n_max: int) -> tuple:
        """(band, den): J's upper-triangular matrix in the monomial basis,
        M[tau][n] = coefficient of x^tau in J(x^n) for tau <= n <= n_max,
        from the closed monomial-image expansion
        M[tau][n] = sum_{nu<=tau} C(n, nu) a_{tau-nu}^[n-nu].
        A term needs n - nu <= order, so only the band
        n - order <= tau <= n can be nonzero; column n holds it as
        band[n][n - tau], integers over J's common denominator den. The
        diagonal holds lambda_n and the k-th superdiagonal lambda_{n+k}^[k].

        Columns are tuples, kept by the operator once built: a later call
        extends them when it reaches further and reads a prefix otherwise.
        Any n_max < 0 gives the empty band, however far the kept one reaches."""
        (a, den), order = self.integer_form(), max(self.order, 0)
        cols = []
        for n in range(len(self._band), n_max + 1):
            low = max(0, n - order)
            col = []
            for tau in range(n, low - 1, -1):
                acc = 0
                for nu in range(low, tau + 1):
                    # the coefficient of x^(tau-nu) in a_(n-nu)
                    coeffs = a[n - nu] if n - nu < len(a) else ()
                    if tau - nu < len(coeffs) and coeffs[tau - nu]:
                        acc += comb(n, nu) * coeffs[tau - nu]
                col.append(acc)
            cols.append(tuple(col))
        if cols:
            object.__setattr__(self, "_band", self._band + tuple(cols))
        return self._band[: max(n_max + 1, 0)], den

    def _band_solve(self, k: int, n: int) -> tuple:
        """(v, den): J's eigenvector for lambda_k on positions k..n of the
        monomial basis with v_k = 1, as integers over den (unreduced, den
        may be negative), indexed by position and 0 outside k..n. For n < k
        it holds the coefficients of the monic eigenpolynomial P_k; for
        n > k the moments of the dual u_k, read off J^T u_k = lambda_k u_k
        at k < m <= n, with u_k = 0 below k.

        Both are one triangular solve of the band: position p_i = k +- i
        couples to p_(i-d), 1 <= d <= order, through the matrix entry
        band[max(p_i, p_(i-d))][d], and (lambda_(p_i) - lambda_k) v_(p_i)
        = -sum_d entry v_(p_(i-d)). Fraction-free (Bareiss): x_i = v_(p_i)
        prod_{t<=i} (lambda_(p_t) - lambda_k) takes at most order
        small-by-big products per position."""
        band, order = self.band(max(k, n))[0], self.order
        s = 1 if n >= k else -1
        pos = range(k, n + s, s)
        diff = [band[p][0] - band[k][0] for p in pos]
        x = [1]
        for i in range(1, len(pos)):
            p, top = pos[i], min(order, i)
            ents = (band[p][1:top + 1] if s > 0
                    else [band[p + d][d] for d in range(1, top + 1)])
            acc, f = 0, 1
            for d, e in enumerate(ents, 1):
                if d > 1:
                    f *= diff[i - d + 1]
                acc -= e * f * x[i - d]
            x.append(acc)
        v, prod = [0] * (max(k, n) + 1), 1
        for i in range(len(pos) - 1, -1, -1):
            v[pos[i]] = x[i] * prod
            prod *= diff[i]
        return tuple(v), v[k]

    def lambda_seq(self, k: int, count: int) -> list:
        """[lambda_{n+k}^[k] for n = 0..count], the order-k normalization
        scalars: the k-th superdiagonal of band(count + k)."""
        band, den = self.band(count + k)
        return [Rational(col[k] if k < len(col) else 0, den) for col in band[k:]]

    def classify_order(self, n_check: int) -> "LoweringClass":
        """Determine the lowering order k: a_0 = .. = a_{k-1} = 0,
        deg a_nu <= nu - k, and lambda_{n+k}^[k] != 0 for 0 <= n <= n_check."""
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
