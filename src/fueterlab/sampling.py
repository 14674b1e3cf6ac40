"""Seeded random generators for the property suites.

All generators take an explicit random.Random so that every suite run is
reproducible from its seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .axial import TRIG_COS, TRIG_NONE, TRIG_SIN, AxialExpr
from .clifford import Multivector
from .cliffpoly import CliffPoly


def random_fraction(rng: random.Random) -> Fraction:
    num = rng.randint(-9, 9)
    den = rng.randint(1, 4)
    return Fraction(num, den)


def random_multivector(rng: random.Random, m: int, n_terms: int = 4) -> Multivector:
    coeffs = {}
    for _ in range(n_terms):
        mask = rng.randrange(1 << m)
        coeffs[mask] = coeffs.get(mask, 0) + random_fraction(rng)
    return Multivector(m, coeffs)


def random_vector(rng: random.Random, m: int) -> Multivector:
    return Multivector.vector(m, [random_fraction(rng) for _ in range(m)])


def random_poly(
    rng: random.Random,
    m: int,
    max_degree: int = 3,
    n_terms: int = 4,
    with_x0: bool = True,
) -> CliffPoly:
    terms = {}
    for _ in range(n_terms):
        exps = [0] * (m + 1)
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            j = rng.randint(0 if with_x0 else 1, m)
            exps[j] += 1
        coeff = random_multivector(rng, m, n_terms=2)
        key = tuple(exps)
        cur = terms.get(key)
        terms[key] = coeff if cur is None else cur + coeff
    return CliffPoly(m, terms)


def random_axial(rng: random.Random, trig: bool = True, exp_flag: bool = True, min_b: int = -3) -> AxialExpr:
    """Random member of the closed term algebra (possibly structurally zero)."""
    tags = [TRIG_NONE]
    if trig:
        tags += [TRIG_COS, TRIG_SIN]
    terms = {}
    for _ in range(3):
        key = (
            rng.randint(0, 3),
            rng.randint(min_b, 3),
            rng.randint(0, 2),
            rng.randint(0, 1) if exp_flag else 0,
            rng.choice(tags),
        )
        terms[key] = terms.get(key, 0) + random_fraction(rng)
    return AxialExpr(terms)
