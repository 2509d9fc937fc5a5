"""Symmetric-group character machinery: partitions, cycle types, the
Murnaghan-Nakayama rule and inner-product decomposition."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from .errors import InputError, NotACharacterError


def partitions(n: int) -> tuple:
    """All partitions of n as weakly decreasing tuples, in descending
    lexicographic order: (n), (n-1,1), ..., (1,...,1)."""

    def gen(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(gen(n, n))


def partition_str(lam) -> str:
    return "(" + ",".join(str(p) for p in lam) + ")"


def cycle_type(perm) -> tuple:
    """Cycle type of a permutation given in one-line notation (0-based)."""
    n = len(perm)
    seen = [False] * n
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def class_size(mu) -> int:
    """Number of permutations with cycle type mu: n! / prod k^{m_k} m_k!."""
    n = sum(mu)
    z = 1
    counts: dict = {}
    for part in mu:
        counts[part] = counts.get(part, 0) + 1
    for k, m in counts.items():
        z *= k**m * factorial(m)
    return factorial(n) // z


@lru_cache(maxsize=None)
def _mn(lam: tuple, mu: tuple) -> int:
    if not mu:
        return 1 if not lam else 0
    k = mu[0]
    rest = mu[1:]
    m = len(lam)
    betas = sorted((lam[i] + (m - 1 - i) for i in range(m)), reverse=True)
    beta_set = set(betas)
    total = 0
    for b in betas:
        nb = b - k
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for c in betas if nb < c < b)
        new = sorted((beta_set - {b}) | {nb}, reverse=True)
        new_lam = tuple(c - (len(new) - 1 - i) for i, c in enumerate(new))
        new_lam = tuple(p for p in new_lam if p > 0)
        total += (-1) ** height * _mn(new_lam, rest)
    return total


def mn_character(lam, mu) -> int:
    """Irreducible character value chi_lambda(mu) by border-strip removal,
    implemented through beta-numbers (first-column hook lengths)."""
    lam = tuple(sorted((int(p) for p in lam), reverse=True))
    mu = tuple(sorted((int(p) for p in mu), reverse=True))
    if any(p <= 0 for p in lam + mu):
        raise InputError("partition parts must be positive")
    if sum(lam) != sum(mu):
        raise InputError("partition sizes differ")
    return _mn(lam, mu)


def sn_character_table(n: int) -> dict:
    """{partition: {cycle type: integer value}} over all pairs."""
    parts = partitions(n)
    return {lam: {mu: mn_character(lam, mu) for mu in parts} for lam in parts}


def decompose_character(values, n: int) -> dict:
    """Multiplicities of the S_n irreducibles in a class function.

    `values` maps cycle types to rational values.  Multiplicities must come
    out as nonnegative integers, otherwise the input was not the character
    of a genuine representation.
    """
    parts = partitions(n)
    if set(values) != set(parts):
        raise InputError("character must be defined on every cycle type")
    # class size times value, once per class, over one common denominator
    vals = [Fraction(values[mu]) for mu in parts]
    den = lcm(*(v.denominator for v in vals))
    weights = [class_size(mu) * v.numerator * (den // v.denominator)
               for mu, v in zip(parts, vals)]
    order = factorial(n) * den
    out = {}
    for lam in parts:
        # the partitions of `partitions(n)` are already normalized
        mult = Fraction(sum(w * _mn(lam, mu) for w, mu in zip(weights, parts)),
                        order)
        if mult.denominator != 1 or mult < 0:
            raise NotACharacterError(
                f"multiplicity of {partition_str(lam)} is {mult}")
        out[lam] = mult.numerator
    return out
