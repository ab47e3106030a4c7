"""Exception types shared across the library."""


class DuorthError(Exception):
    """Base class for all library errors."""


class OrderExceeded(DuorthError):
    """A moment-form operation needed moments beyond the reliable order."""


class MissingCoefficient(DuorthError):
    """A recurrence was asked to run past its stored coefficients."""


class ZeroGamma(DuorthError):
    """A gamma recurrence coefficient required to be nonzero vanished."""


class NotTwoOrthogonal(DuorthError):
    """A sequence failed the four-term-recurrence fit.

    Attributes: index (first failing n), reason (human-readable cause).
    """

    def __init__(self, index, reason):
        super().__init__(f"not 2-orthogonal at index {index}: {reason}")
        self.index = index
        self.reason = reason


class NonInvertible(DuorthError):
    """An eigen-solve met lambda_n = 0 (the operator is no isomorphism)."""

    def __init__(self, n):
        super().__init__(f"lambda_{n} = 0: operator is not an isomorphism")
        self.n = n


class RepeatedEigenvalue(DuorthError):
    """An eigen-solve met lambda_n = lambda_m, m < n (monic eigenpolynomial
    of degree n is not guaranteed unique)."""

    def __init__(self, n, m):
        super().__init__(f"lambda_{n} = lambda_{m}: repeated eigenvalue")
        self.n = n
        self.m = m


class IdentityViolated(DuorthError):
    """An exact identity check failed.

    Attributes: tag (identity label used in reports), where (locator: a
    moment index, a coefficient name, "closed form", "degree"), lhs, rhs
    (string forms of both sides).
    """

    def __init__(self, tag, where, lhs, rhs):
        super().__init__(f"{tag} violated at {where}: {lhs} != {rhs}")
        self.tag = tag
        self.where = where
        self.lhs = str(lhs)
        self.rhs = str(rhs)


class HypothesisViolated(DuorthError):
    """A theorem-level hypothesis does not hold for the given instance.

    Attributes: hypothesis (short name), witness (string detail).
    """

    def __init__(self, hypothesis, witness=""):
        msg = hypothesis if not witness else f"{hypothesis} (witness: {witness})"
        super().__init__(msg)
        self.hypothesis = hypothesis
        self.witness = str(witness)

