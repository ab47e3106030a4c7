"""The pure-Python kernel: dense polynomial and moment-vector primitives,
and the shared-denominator helpers of duorth's polynomials and forms.

Conventions:
  * Rat is an exact rational, the stdlib fractions.Fraction: the type of
    duorth's scalars (recurrence coefficients, lambdas, witnesses).
  * the vector primitives are ring-generic: they use only +, -, * and
    comparison with 0, and their accumulators start at the int 0, so they
    give equal results on tuples of int and on tuples of Rat. duorth passes
    integer numerators (poly.Polynomial, forms.MomentForm store a vector as
    (nums, den) and reduce once per result with qreduce); the kernel
    micro-benchmark passes Rat tuples.
  * a polynomial is a tuple of coefficients, ascending degree, with no
    trailing zeros; the zero polynomial is the empty tuple.
  * a moment vector is a tuple indexed by moment order (it may contain
    trailing zeros; length is meaningful).
  * results are built as lists and then tuples: tuple() of a generator
    allocates a guessed size and resizes, which drains CPython's free list
    of one tuple size into the others and so raises peak memory.
"""
from fractions import Fraction as Rat
from math import gcd

__all__ = [
    "Rat", "pnorm", "padd", "psub", "pneg", "pscale", "pmul", "pderiv",
    "mact", "mleft", "mderive", "qreduce", "qcommon",
]


def pnorm(coeffs):
    """Strip trailing zeros and return a tuple."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return pnorm(out)


def psub(a, b):
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = out[i] - c
    return pnorm(out)


def pneg(a):
    return tuple([-c for c in a])


def pscale(a, s):
    if s == 0:
        return ()
    return tuple([c * s for c in a])


def pmul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    # leading product of nonzero leadings is nonzero in an integral domain
    return tuple(out)


def pderiv(a, order=1):
    for _ in range(order):
        if len(a) <= 1:
            return ()
        a = tuple([i * a[i] for i in range(1, len(a))])
    return a


def mact(p, m):
    """<u, p> = sum_i p_i (u)_i; caller guarantees deg p < len(m)."""
    acc = 0
    for i, c in enumerate(p):
        if c != 0:
            acc += c * m[i]
    return acc


def mleft(f, m):
    """Moments of f*u: (fu)_n = sum_i f_i (u)_{n+i}, n <= len(m)-len(f)."""
    d = len(f) - 1
    out = []
    for n in range(len(m) - d):
        acc = 0
        for i, c in enumerate(f):
            if c != 0:
                acc += c * m[n + i]
        out.append(acc)
    return tuple(out)


def mderive(m):
    """Moments of Du: (Du)_0 = 0, (Du)_n = -n (u)_{n-1}."""
    return tuple([0] + [-(i + 1) * m[i] for i in range(len(m) - 1)])


def qreduce(nums, den):
    """The canonical pair of the vector nums/den (int nums, den != 0):
    den > 0 and gcd(content(nums), den) = 1, so an all-zero vector, the
    empty one included, gets den 1."""
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    if g == 1:
        return nums, den
    return tuple([c // g for c in nums]), den // g


def qcommon(a, da, b, db):
    """(a', b', den) with a/da = a'/den and b/db = b'/den, den = lcm(da, db)."""
    if da == db:
        return a, b, da
    g = gcd(da, db)
    fa, fb = db // g, da // g
    return (a if fa == 1 else pscale(a, fa)), (b if fb == 1 else pscale(b, fb)), da * fa
