"""The ring of locally constant functions on the arrangement complement,
filtered by Heaviside degree.

A chamber function is a tuple of rationals indexed by the canonical chamber
order.  The Heaviside generator of hyperplane i is 1 on chambers on its
positive side and 0 otherwise; P^k is the span of all products of at most k
generators.  Ideal-theoretic questions about the presentation are answered
on the Boolean cube: modulo e_i^2 - e_i a polynomial is a function on the
2^n subsets of the hyperplanes, and an ideal is fixed by its common zeros,
so no Groebner basis and no elimination over monomial multiples is needed.

The three relation families are built once, with the degree-2 parameter u,
by `rees_relation_families` (also exported by `rees`); the chamber-function
families are defined as their u = 1 specialization.  The graded families in
`cordovil` are built independently, from circuit boundaries and empty flats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

from .arrangement import Arrangement
from .circuits import SignedSet, canonical_circuits
from .errors import ConsistencyError, InputError, ResourceBoundError
from .linalg import SparseEchelon
from .polyring import Poly


_ZERO, _ONE = Fraction(0), Fraction(1)


def _heaviside_masks(A: Arrangement) -> tuple:
    """Per hyperplane i, the chambers on its positive side as a bitmask
    over the chamber order (bit c for chamber c)."""
    return A._memo("heaviside_masks", lambda: tuple(
        sum(1 << c for c, signs in enumerate(A.chambers()) if signs[i] == "+")
        for i in range(A.n)))


def monomial_mask(A: Arrangement, subset) -> int:
    """The chambers where the monomial of `subset` is 1, as a bitmask over
    the chamber order: the AND of its Heaviside masks, or every chamber
    for the empty subset."""
    masks = _heaviside_masks(A)
    out = (1 << len(A.chambers())) - 1
    for h in subset:
        out &= masks[A.form_index(h)]
    return out


def heaviside(A: Arrangement, h) -> tuple:
    """Value 1 on chambers with sign '+' at h, value 0 on sign '-'."""
    return monomial_eval(A, (h,))


def monomial_eval(A: Arrangement, subset) -> tuple:
    """Pointwise product of the Heaviside functions indexed by `subset`."""
    mask = monomial_mask(A, subset)
    return tuple(_ONE if mask >> c & 1 else _ZERO for c in range(len(A.chambers())))


def evaluate_on_chambers(A: Arrangement, poly: Poly) -> tuple:
    """Substitute the Heaviside functions into a u-free polynomial.

    A term contributes on the chambers of its monomial's chamber mask; the
    coefficients are scaled once to integers over their common
    denominator."""
    if not poly.is_u_free:
        raise InputError("cannot evaluate a polynomial still carrying u")
    terms = poly.terms.items()
    den = lcm(*(coeff.denominator for _, coeff in terms))
    scaled = [(monomial_mask(A, emon), coeff.numerator * (den // coeff.denominator))
              for (emon, _), coeff in terms]
    totals = (sum(k for mask, k in scaled if mask >> c & 1)
              for c in range(len(A.chambers())))
    return tuple(Fraction(t, den) if t else _ZERO for t in totals)


@dataclass(frozen=True)
class FiltrationProfile:
    """dims[k] = dim P^k for k = 0..n; gr_dims are successive differences."""

    dims: tuple
    gr_dims: tuple

    @property
    def top(self) -> int:
        return max((k for k, g in enumerate(self.gr_dims) if g), default=0)


def filtration_data(A: Arrangement, reverse: bool = False):
    """Pivot columns of the monomial-evaluation matrix, grade by grade.

    Returns (dims, bases) where bases[k] is the list of (subset, vector)
    pivot columns of degree exactly k; the union over grades <= k spans P^k.
    `reverse` flips the enumeration order inside each grade (used to confirm
    that derived quantities are basis-independent).
    """
    return A._memo(("filtration", reverse), lambda: _eliminate_grades(A, reverse))


def _eliminate_grades(A: Arrangement, reverse: bool):
    nch = len(A.chambers())
    ech = SparseEchelon()
    dims = []
    bases = []
    for k in range(A.n + 1):
        grade = []
        if ech.rank < nch:
            combos = combinations(range(A.n), k)
            if reverse:
                combos = reversed(list(combos))
            for subset in combos:
                vec = monomial_eval(A, subset)
                sparse = {i: v for i, v in enumerate(vec) if v}
                if ech.add(sparse):
                    grade.append((frozenset(subset), vec))
                    if ech.rank == nch:
                        break  # the span is full: later inserts add nothing
        dims.append(ech.rank)
        bases.append(grade)
    return (tuple(dims), bases)


def filtration_profile(A: Arrangement) -> FiltrationProfile:
    dims, _ = filtration_data(A)
    gr = tuple(dims[k] - (dims[k - 1] if k else 0) for k in range(len(dims)))
    return FiltrationProfile(tuple(dims), gr)


@dataclass(frozen=True)
class Relation:
    """One relation with its provenance: family tag and generating datum."""

    family: int
    source: object  # int for family 1, SignedSet for 2/3, frozenset for
                    # empty-flat monomial relations
    poly: Poly

    def source_str(self, labels) -> str:
        if isinstance(self.source, SignedSet):
            return self.source.pretty(labels)
        if isinstance(self.source, frozenset):
            return "{" + ",".join(labels[i] for i in sorted(self.source)) + "}"
        return labels[self.source]

    def pretty(self, labels) -> str:
        return f"({self.family}) [{self.source_str(labels)}]  {self.poly.to_str(labels)}"


def _product_poly(plus, minus, shift) -> Poly:
    """prod_{i in plus} e_i * prod_{j in minus} (e_j - shift)."""
    out = Poly.one()
    for i in sorted(plus):
        out = out * Poly.generator(i)
    for j in sorted(minus):
        out = out * (Poly.generator(j) - shift)
    return out


def _circuit_difference(X: SignedSet, shift) -> Poly:
    """The difference of the circuit's two opposite products,
    prod_{X+} e_i prod_{X-} (e_j - shift) minus the same with X negated."""
    return (_product_poly(X.plus, X.minus, shift)
            - _product_poly(X.minus, X.plus, shift))


def rees_relation_families(A: Arrangement) -> tuple:
    """The three u-relation families.

    (1) e_i (e_i - u);
    (2) prod e_i prod (e_j - u) per minimal infeasible signed set;
    (3) per signed circuit, the difference of the two opposite products
        divided by u (`Poly.divide_u` raises ConsistencyError should a term
        not carry u), in the orientation with +1 on the least support
        element.
    """
    return A._memo("rees_relations", lambda: _u_families(A))


def _u_families(A: Arrangement) -> tuple:
    u = Poly.u()
    rels = [Relation(1, i, Poly.generator(i) * (Poly.generator(i) - u))
            for i in range(A.n)]
    rels += [Relation(2, X, _product_poly(X.plus, X.minus, u))
             for X in A.minimal_infeasible_sign_sets()]
    rels += [Relation(3, X, _circuit_difference(X, u).divide_u())
             for X in canonical_circuits(A)]
    return tuple(rels)


def vg_relation_families(A: Arrangement) -> tuple:
    """The three relation families of the Heaviside presentation, defined as
    the u = 1 specialization of `rees_relation_families`, in its order:

    (1) e_i^2 - e_i for every i (emitted symbolically, pre-reduction);
    (2) prod e_i prod (e_j - 1) for every minimal infeasible signed set;
    (3) the difference of the two opposite products for every signed
        circuit.
    """
    return A._memo("vg_relations", lambda: tuple(
        Relation(r.family, r.source, r.poly.substitute_u(1))
        for r in rees_relation_families(A)))


@dataclass(frozen=True)
class RelationCheck:
    ok: bool
    span_dim: int
    chambers: int
    failures: tuple  # (family, source string, witness chamber signs)


def verify_relations(A: Arrangement) -> RelationCheck:
    """Evaluate every generated relation on the chambers and check that the
    monomial evaluations span all chamber functions."""
    failures = []
    chambers = A.chambers()
    for rel in vg_relation_families(A):
        values = evaluate_on_chambers(A, rel.poly)
        witness = next((c for c, v in zip(chambers, values) if v != 0), None)
        if witness is not None:
            failures.append((rel.family, rel.source_str(A.labels), witness))
    span = filtration_profile(A).dims[-1] if A.n else len(chambers)
    ok = not failures and span == len(chambers)
    return RelationCheck(ok, span, len(chambers), tuple(failures))


def _subset_masks(indices):
    """Bitmasks of all subsets of the given index list, empty set first."""
    masks = [0]
    for i in indices:
        bit = 1 << i
        masks += [m | bit for m in masks]
    return masks


def _poly_to_mask_vector(poly: Poly) -> dict:
    vec: dict = {}
    for (emon, uexp), coeff in poly.terms.items():
        if uexp:
            raise ConsistencyError("a chamber-function relation carries u")
        mask = 0
        for i in emon:
            mask |= 1 << i
        vec[mask] = vec.get(mask, Fraction(0)) + coeff
    return {m: c for m, c in vec.items() if c}


def _common_zeros(A: Arrangement, families) -> list:
    """The subsets s of the hyperplanes, as bitmasks in increasing order, at
    which every selected family-(2)/(3) relation vanishes under
    e_i(s) = [i in s].

    A relation with support mask S depends on s only through s & S, so it
    is evaluated once at each sub-mask t of S: its value there is the sum
    of the coefficients of the terms whose masks lie inside t.
    """
    zeros = range(2**A.n)
    for rel in vg_relation_families(A):
        if rel.family == 1 or rel.family not in families:
            continue
        vec = _poly_to_mask_vector(rel.poly)
        support = 0
        for m in vec:
            support |= m
        points = _subset_masks([i for i in range(A.n) if support >> i & 1])
        nonzero = {t for t in points
                   if sum(c for m, c in vec.items() if m & t == m) != 0}
        zeros = [s for s in zeros if s & support not in nonzero]
    return list(zeros)


def presentation_dimension(A: Arrangement, families=(1, 2), nmax: int = 14) -> int:
    """Dimension of Q[e]/<relations>, counted as the common zeros of the
    relations on the Boolean cube.

    Family (1) makes Q[e]/(e_i^2 - e_i) the ring of functions on the 2^n
    points of {0,1}^n: a point is a subset s with e_i(s) = [i in s], and
    f -> (f(s))_s is an isomorphism onto Q^(2^n), under which the monomial
    of s times prod_{i not in s} (1 - e_i) is the idempotent delta_s.  For
    a relation g with g(s) != 0, delta_s = delta_s * g / g(s) lies in the
    ideal; every element of the ideal vanishes where all relations do.  So
    the ideal is spanned by the delta_s off the common zeros, and the
    quotient has one dimension per common zero (for the full presentation
    these are the chambers' plus-sets, Varchenko-Gelfand 1987).  `families`
    selects which of (2) and (3) to use — for central arrangements families
    (1) and (3) alone must already give the chamber count.
    """
    if A.n > nmax:
        raise ResourceBoundError(
            f"presentation_dimension bound exceeded: n = {A.n} > {nmax}")
    return len(_common_zeros(A, families))
