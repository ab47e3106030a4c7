"""Seeded random generation of rationals, recurrence coefficients, and
operator families for sweeps and property suites.

Rationals draw numerator and denominator uniformly from [1, 20] with a
random sign, so they are never zero, rejection-resampled against every
admissibility constraint; small magnitudes keep intermediate values
compact.

Theorem sweeps draw a deterministic mixture of operator shapes: the
qualifying subfamily whose eigen-MPS is 2-orthogonal with matching
(beta_0, gamma_1), plus deliberate scope-miss shapes exercising the
hypotheses-unmet path (see the sample_theorem* docstrings).
"""
from __future__ import annotations

import random
from math import comb

from .backend import Rat as Rational
from .diffop import DiffOperator
from .hahn import _integer_reciprocal_m
from .poly import Polynomial
from .two_orth import RecurrenceCoeffs

__all__ = ["ParamSampler"]


class ParamSampler:
    """Deterministic rational/operator sampler over random.Random(seed)."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def rat(self) -> Rational:
        return Rational(self.rng.randint(1, 20) * self.rng.choice((1, -1)),
                        self.rng.randint(1, 20))

    def rat_avoiding(self, banned: Rational) -> Rational:
        while True:
            v = self.rat()
            if v != banned:
                return v

    def poly(self, max_degree: int) -> Polynomial:
        return Polynomial([self.rat() for _ in range(max_degree + 1)])

    def recurrence(self, depth: int) -> RecurrenceCoeffs:
        """A regular random rc with beta_0..beta_{depth-1}, alpha_1..alpha_depth,
        gamma_1..gamma_depth (all gammas nonzero)."""
        betas = [self.rat() for _ in range(depth)]
        alphas = [self.rat() for _ in range(depth)]
        gammas = [self.rat() for _ in range(depth)]
        return RecurrenceCoeffs(betas, alphas, gammas)

    def _a0_avoiding(self, nums: set, den: int) -> Rational:
        """A constant a_0 making every lambda_n = a_0 + nums_n / den nonzero:
        a_0 + nums_n / den = 0 iff -a_0 den is the integer nums_n."""
        while True:
            a0 = self.rat()
            v = -a0 * den
            if v.denominator != 1 or v.numerator not in nums:
                return a0

    def sample_theorem4(self, horizon: int) -> dict:
        """One seeded draw for the a_2 = 0 family.

        Shapes (deterministic mixture): 'qualifying' (a_3 = 1, whose
        eigen-MPS is 2-orthogonal with matching implied values),
        'const-offscale' (a_3 a nonunit constant: 2-orthogonal eigen-MPS
        but mismatched gamma_1), 'generic-cubic' (full random a_3: the
        eigen-MPS is not 2-orthogonal). All shapes keep lambda_n nonzero
        and pairwise distinct up to the horizon.
        """
        while True:
            c1 = self.rat()
            c0 = self.rat()
            roll = self.rng.random()
            if roll < 0.7:
                shape = "qualifying"
                a3 = Polynomial([1])
            elif roll < 0.85:
                shape = "const-offscale"
                a3 = Polynomial([self.rat_avoiding(Rational(1))])
            else:
                shape = "generic-cubic"
                a3 = self.poly(3)
                if a3.degree != 3:
                    continue
            t3 = a3[3]
            g1_implied = Rational(-1, 3) / c1
            if _integer_reciprocal_m(t3 * g1_implied) is not None:
                continue  # inadmissible a_3^[3]
            # lambda_n - a_0 = n c_1 + C(n, 3) t_3, over the denominator q1 q3
            (p1, q1), (p3, q3) = c1.as_integer_ratio(), t3.as_integer_ratio()
            base = {n * p1 * q3 + comb(n, 3) * p3 * q1 for n in range(horizon + 1)}
            if len(base) != horizon + 1:
                continue  # repeated eigenvalues
            a0 = self._a0_avoiding(base, q1 * q3)
            J = DiffOperator([Polynomial([a0]), Polynomial([c0, c1]),
                              Polynomial.zero(), a3])
            return {"J": J, "shape": shape}

    def sample_theorem5(self, horizon: int) -> dict:
        """One seeded draw for the a_3 = tau a_2 family.

        Shapes: 'qualifying' (a_2 = s_0 constant, tau = 1/s_0, so a_3 = 1),
        'tau-offscale' (constant a_2 but tau s_0 != 1: mismatched gamma_1),
        'linear-a2' (deg a_2 = 1: eigen-MPS not 2-orthogonal).
        """
        while True:
            c1 = self.rat()
            c0 = self.rat()
            s0 = self.rat()
            roll = self.rng.random()
            if roll < 0.7:
                shape = "qualifying"
                a2 = Polynomial([s0])
                tau = 1 / s0
            elif roll < 0.85:
                shape = "tau-offscale"
                a2 = Polynomial([s0])
                tau = self.rat_avoiding(1 / s0)
            else:
                shape = "linear-a2"
                a2 = Polynomial([s0, self.rat()])
                tau = self.rat()
            # a_2^[2] = a_3^[3] = 0 here, so lambda_n = a_0 + n c_1: distinct
            p1, q1 = c1.as_integer_ratio()
            a0 = self._a0_avoiding({n * p1 for n in range(horizon + 1)}, q1)
            J = DiffOperator([Polynomial([a0]), Polynomial([c0, c1]),
                              a2, tau * a2])
            return {"J": J, "tau": tau, "shape": shape}

