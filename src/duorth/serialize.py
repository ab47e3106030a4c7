"""String/tree serialization: rationals as "p/q" or "p" strings,
polynomials as ascending arrays of such strings, operators as
array-of-arrays a[nu][i], recurrences as beta/alpha/gamma arrays.
All I/O is exact; no floating point anywhere. Where an array is read, a
string is refused rather than read one character at a time."""
from __future__ import annotations

import re

from .backend import Rat as Rational
from .diffop import DiffOperator
from .forms import MomentForm
from .poly import Polynomial
from .two_orth import RecurrenceCoeffs

__all__ = [
    "rat_to_str", "rat_from_str", "poly_to_list", "poly_from_list",
    "operator_to_tree", "operator_from_tree", "rc_to_tree", "rc_from_tree",
    "form_to_list", "mps_to_tree",
]


_RAT_FORM = re.compile(r"^[+-]?\d+(/\d+)?$")


def rat_to_str(r) -> str:
    return str(r)


def rat_from_str(s) -> Rational:
    """Parse "p/q" or "p" (q != 0); JSON integers are accepted, floats are
    not."""
    if isinstance(s, float):
        raise ValueError(f"floating point is not accepted: {s!r}")
    if isinstance(s, int) and not isinstance(s, bool):
        return Rational(s)
    if isinstance(s, str) and _RAT_FORM.match(s.strip()):
        _, _, den = s.strip().partition("/")
        if den and int(den) == 0:
            raise ValueError(f"zero denominator in {s!r}")
        return Rational(s.strip())
    raise ValueError(f"not a p/q rational string: {s!r}")


def poly_to_list(p: Polynomial) -> list:
    return [str(c) for c in p.coeffs]


def _array(items, name: str):
    if not isinstance(items, (list, tuple)):
        raise ValueError(f"{name} must be an array, not {items!r}")
    return items


def poly_from_list(items) -> Polynomial:
    return Polynomial([rat_from_str(c) for c in _array(items, "a polynomial")])


def operator_to_tree(J: DiffOperator) -> list:
    return [poly_to_list(a) for a in J.a]


def operator_from_tree(tree) -> DiffOperator:
    return DiffOperator([poly_from_list(row) for row in _array(tree, "an operator")])


def rc_to_tree(rc: RecurrenceCoeffs) -> dict:
    return {
        "beta": [str(v) for v in rc.betas],
        "alpha": [str(v) for v in rc.alphas],
        "gamma": [str(v) for v in rc.gammas],
    }


def rc_from_tree(tree) -> RecurrenceCoeffs:
    keys = ("beta", "alpha", "gamma")
    if not isinstance(tree, dict):
        raise ValueError("a recurrence must be an object with beta, alpha and "
                         f"gamma arrays, not {tree!r}")
    for key in keys:
        if key not in tree:
            raise ValueError(f"missing \"{key}\" array")
    return RecurrenceCoeffs(*([rat_from_str(v) for v in _array(tree[key], key)]
                              for key in keys))


def form_to_list(u: MomentForm) -> list:
    return [str(m) for m in u.moments]


def mps_to_tree(P) -> list:
    return [poly_to_list(p) for p in P]
