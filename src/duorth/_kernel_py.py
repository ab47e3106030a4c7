"""The pure-Python kernel: exact rational scalars, dense polynomial and
moment-vector primitives.

Conventions:
  * Rat is an exact rational, the stdlib fractions.Fraction.
  * a polynomial is a tuple of Rat, ascending degree, with no trailing
    zeros; the zero polynomial is the empty tuple.
  * a moment vector is a tuple of Rat indexed by moment order (it may
    contain trailing zeros; length is meaningful).
"""
from fractions import Fraction as Rat

__all__ = [
    "Rat", "pnorm", "padd", "psub", "pneg", "pscale", "pmul", "pderiv",
    "mact", "mleft", "mderive",
]

_ZERO = Rat(0)


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
    out = list(a) + [_ZERO] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = out[i] - c
    return pnorm(out)


def pneg(a):
    return tuple(-c for c in a)


def pscale(a, s):
    if s == 0:
        return ()
    return tuple(c * s for c in a)


def pmul(a, b):
    if not a or not b:
        return ()
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    # leading product of nonzero leadings is nonzero over a field
    return tuple(out)


def pderiv(a, order=1):
    for _ in range(order):
        if len(a) <= 1:
            return ()
        a = tuple(i * a[i] for i in range(1, len(a)))
    return a


def mact(p, m):
    """<u, p> = sum_i p_i (u)_i; caller guarantees deg p < len(m)."""
    acc = _ZERO
    for i, c in enumerate(p):
        if c != 0:
            acc += c * m[i]
    return acc


def mleft(f, m):
    """Moments of f*u: (fu)_n = sum_i f_i (u)_{n+i}, n <= len(m)-len(f)."""
    d = len(f) - 1
    out = []
    for n in range(len(m) - d):
        acc = _ZERO
        for i, c in enumerate(f):
            if c != 0:
                acc += c * m[n + i]
        out.append(acc)
    return tuple(out)


def mderive(m):
    """Moments of Du: (Du)_0 = 0, (Du)_n = -n (u)_{n-1}."""
    return (_ZERO,) + tuple(-(i + 1) * m[i] for i in range(len(m) - 1))
