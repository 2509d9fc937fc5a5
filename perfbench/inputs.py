"""Seeded workload inputs.

An input is a plain `Spec` (dimension, forms, labels) so that every job can
build a fresh `Arrangement` from it: users pay cold caches on every `arrgr`
invocation, so no geometric cache may survive from one job to the next.

The seed draws a random presentation of each arrangement: a signed
permutation of the coordinates and an order of the forms, where the
workload allows them.  The numbers, sign vectors and enumeration orders
the library sees change with the seed; the combinatorial type does not.
The affine census itself is one fixed draw of the random8 shape.  Drawing
new types per seed would swing goodput between seeds by far more than any
change is allowed to, because roughly half of the random affine types hit
the circuit-axiom defect.

This module imports nothing from `arrgr` except in `build` and `digest`,
so the generators stay independent of the library's own.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction

CENSUS_SEED = 1
CENSUS_SIZE = 4


@dataclass(frozen=True)
class Spec:
    family: str   # "random", "braid", "boolean" or "semiorder"
    size: int     # n of braid n / boolean n / semiorder n, or the census index
    dim: int
    forms: tuple  # ((linear tuple, constant), ...)
    labels: tuple

    @property
    def name(self) -> str:
        return f"{self.family}{self.size}"


def _unit(d: int, i: int, j: int | None = None) -> tuple:
    """e_i - e_j (or e_i when j is None) as a tuple of Fractions."""
    v = [Fraction(0)] * d
    v[i] = Fraction(1)
    if j is not None:
        v[j] = Fraction(-1)
    return tuple(v)


def braid(n: int) -> Spec:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Spec("braid", n, n, tuple((_unit(n, i, j), Fraction(0)) for i, j in pairs),
                tuple(f"{i + 1}{j + 1}" for i, j in pairs))


def semiorder(n: int) -> Spec:
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    return Spec("semiorder", n, n,
                tuple((_unit(n, i, j), Fraction(-1)) for i, j in pairs),
                tuple(f"{i + 1}{j + 1}" for i, j in pairs))


def boolean(n: int) -> Spec:
    return Spec("boolean", n, n, tuple((_unit(n, i), Fraction(0)) for i in range(n)),
                tuple(str(i + 1) for i in range(n)))


def random_affine(rng: random.Random, index: int, n: int = 8, d: int = 3) -> Spec:
    """n forms in dimension d with entries in [-3, 3] and constants in
    {k/2 : |k| <= 4}; no zero linear part and no two proportional forms."""
    forms: list = []
    seen: set = set()
    while len(forms) < n:
        lin = tuple(Fraction(rng.randint(-3, 3)) for _ in range(d))
        if not any(lin):
            continue
        const = Fraction(rng.randint(-2, 2), rng.choice((1, 2)))
        vec = lin + (const,)
        lead = next(x for x in vec if x)
        key = tuple(x / lead for x in vec)
        if key in seen:
            continue
        seen.add(key)
        forms.append((lin, const))
    return Spec("random", index, d, tuple(forms), tuple(f"g{i + 1}" for i in range(n)))


def census() -> list:
    rng = random.Random(CENSUS_SEED)
    return [random_affine(rng, k + 1) for k in range(CENSUS_SIZE)]


def move_coordinates(spec: Spec, rng: random.Random) -> Spec:
    """The same arrangement after a random signed permutation of the
    coordinates: other numbers, the same oriented matroid and form order."""
    d = spec.dim
    perm = rng.sample(range(d), d)
    signs = [rng.choice((1, -1)) for _ in range(d)]
    forms = tuple((tuple(signs[k] * lin[perm[k]] for k in range(d)), const)
                  for lin, const in spec.forms)
    return Spec(spec.family, spec.size, d, forms, spec.labels)


def reorder(spec: Spec, rng: random.Random) -> Spec:
    """The same arrangement with its forms (and their labels) in random order."""
    rows = rng.sample(list(zip(spec.forms, spec.labels)), len(spec.forms))
    return Spec(spec.family, spec.size, spec.dim, tuple(f for f, _ in rows),
                tuple(label for _, label in rows))


def workload_specs(workload: str, seed: int) -> list:
    """The arrangements one pass of `workload` runs, drawn from `seed`.

    Forms keep their orientation everywhere: reversing forms changes how many
    terms every relation has.  central-scale keeps its form order too, since
    the elimination order of the presentation echelon follows it and moves
    the cost of a braid 5 job by half between seeds; symmetric-characters
    keeps its coordinates for the S_n coordinate action."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "affine-census":
        return [reorder(move_coordinates(s, rng), rng) for s in census() + [semiorder(3)]]
    if workload == "central-scale":
        return [move_coordinates(s, rng) for s in (braid(5), boolean(7))]
    if workload == "symmetric-characters":
        return [reorder(s, rng) for s in (braid(3), braid(4), boolean(4), semiorder(3))]
    if workload == "paper-suite":
        return []
    raise ValueError(f"unknown workload {workload!r}")


def build(spec: Spec):
    """A fresh Arrangement for one job."""
    from arrgr import AffineForm, Arrangement

    return Arrangement(spec.dim, [AffineForm(lin, c) for lin, c in spec.forms],
                       spec.labels)


def digest(arrangement) -> str:
    """Hash of the canonical JSON form, to show two commits ran the same input."""
    from arrgr import arrangement_to_json

    text = json.dumps(arrangement_to_json(arrangement), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
