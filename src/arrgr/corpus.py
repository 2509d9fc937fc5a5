"""The standard desk-scale test corpus used by the verification suite."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache

from .arrangement import (AffineForm, Arrangement, boolean, braid,
                          hyperplane_key, semiorder)


def single_hyperplane() -> Arrangement:
    """The origin in a line: one form x."""
    return Arrangement(1, [AffineForm((1,), 0)], ["x"])


def parallel_pair() -> Arrangement:
    """{x, x - 1} in the line."""
    return Arrangement(1, [AffineForm((1,), 0), AffineForm((1,), -1)], ["a", "b"])


def generic_three_lines() -> Arrangement:
    """Three pairwise crossing lines with no common point."""
    return Arrangement(
        2,
        [AffineForm((1, 0), 0), AffineForm((0, 1), 0), AffineForm((1, 1), -1)],
        ["a", "b", "c"],
    )


def random_rational_arrangement(seed: int = 20240809, n: int = 8, d: int = 3) -> Arrangement:
    """A deterministic pseudo-random arrangement with small rational forms."""
    rng = random.Random(seed)
    forms: list[AffineForm] = []
    keys = set()
    while len(forms) < n:
        lin = tuple(Fraction(rng.randint(-3, 3)) for _ in range(d))
        if not any(x != 0 for x in lin):
            continue
        const = Fraction(rng.randint(-2, 2), rng.choice((1, 2)))
        key = hyperplane_key(lin + (const,))[0]
        if key in keys:
            continue
        keys.add(key)
        forms.append(AffineForm(lin, const))
    return Arrangement(d, forms, [f"g{i + 1}" for i in range(n)])


@cache
def corpus() -> tuple:
    """(name, arrangement) pairs; cached so geometric caches are shared."""
    return (
        ("single", single_hyperplane()),
        ("parallel", parallel_pair()),
        ("braid2", braid(2)),
        ("braid3", braid(3)),
        ("braid4", braid(4)),
        ("semiorder2", semiorder(2)),
        ("semiorder3", semiorder(3)),
        ("boolean2", boolean(2)),
        ("boolean3", boolean(3)),
        ("boolean4", boolean(4)),
        ("generic3", generic_three_lines()),
        ("random8", random_rational_arrangement()),
    )


@cache
def central_corpus() -> tuple:
    return tuple((name, A) for name, A in corpus() if A.central)
