"""The ring of locally constant functions on the arrangement complement,
filtered by Heaviside degree.

A chamber function is a tuple of rationals indexed by the canonical chamber
order.  The Heaviside generator of hyperplane i is 1 on chambers on its
positive side and 0 otherwise; P^k is the span of all products of at most k
generators.  Ideal-theoretic questions about the presentation are answered
on the Boolean cube: modulo e_i^2 - e_i a polynomial is a function on the
2^n subsets of the hyperplanes, and an ideal is fixed by its common zeros,
so no Groebner basis and no elimination over monomial multiples is needed.

The chambers are read into bitmasks once, as one tope value (`_topes`):
the chambers' plus-masks, the hyperplanes' Heaviside masks, every chamber
and a plus-mask index, read by every mask consumer here, in `symmetry` and
in `acceptance`.

Each relation at u = 1 is held as (support, nonzero): the mask of its
hyperplanes, and the sub-masks of the support at which it is nonzero, in
closed form (`_relation_points`).  A product prod_{X+} e_i prod_{X-}
(e_j - 1) at a 0/1 point of its support is nonzero iff the point is X+, so
a minimal infeasible set's relation is nonzero at X+ alone, a circuit's
difference at X+ and X-, and e_i^2 - e_i nowhere.  A relation's value at
a point s of the cube, or at a chamber's plus-mask, is its value at
s & support, so both halves of the presentation theorem read the same
sets through one evaluator (`_nonzero_at`): over points held as one
column bitmask per hyperplane, a relation is nonzero where, for one of its
points t, the AND over the support of the columns t holds and of the
complements of the others is set, so no point is visited one by one.
The certificate's columns are the Heaviside masks.  The presentation
count grows the common zeros one hyperplane at a time, its columns
doubled, c | c << L, and drops a point as soon as a relation whose
support ends at that hyperplane is nonzero there, so the work follows
the output instead of the 2^n cube (`_common_zeros`).

The filtration is read off the NBC monomials (`nbc_sets`), the basis of
gr P^* in the paper's main theorem (Varchenko-Gelfand 1987; Cordovil
2002), and certified exactly once per arrangement (`filtration_profile`,
`_nbc_dims`).  The NBC monomials' 0/1 chamber columns, eliminated over
GF(2) by XOR of Python ints, give the lower bound dim P^k >= |NBC_<=k|:
0/1 columns independent mod 2 are independent over Q.  The relations of
the circuits and of the minimal empty flats, checked to vanish on the
chambers, give the upper bound: through them every monomial rewrites into
NBC monomials of no larger degree.  When the bounds meet, the dims are the
NBC partial sums and the NBC sets of the default ordering are a basis.  By
the theorem they meet on a correct circuit scan, so a failed bound raises
`ConsistencyError`.  The certificate's
relations have the (support, point) pairs of every relation of the
presentation, so `verify_relations` reads it and evaluates none.  The
exact echelon of every monomial's chamber column, which assumes no basis
theorem, is criterion 3's oracle `acceptance.exact_filtration_oracle`.

The three relation families are built once, with the degree-2 parameter u,
by `rees_relation_families` (also exported by `rees`); the chamber-function
families are defined as their u = 1 specialization.  Families (2) and (3)
are expanded from one (P, M) = (mask of X+, mask of X-) pair per relation,
with no polynomial products (`_expand_masks`): the product
prod_{i in P} e_i prod_{j in M} (e_j - u) has one term per sub-mask T of
M, walked as T = (T - 1) & M, the monomial P | T with u-power |M - T| and
coefficient (-1)^|M - T|, one of two shared Fractions.  A circuit's
difference drops the one u-free term of each side, the two cancelling
copies of e_{P | M}, and lowers every other u-power by one in the same
pass; no two of its terms share a monomial (`rees_relation_families`), so
nothing is merged.  The u = 1 specialization re-keys each term
(m, k) -> (m, 0) (`Poly.substitute_u`), which sums nothing, since no two
terms of these families share an e-monomial.  `cordovil`'s leading-form
check reads the same expansion.  The graded families in `cordovil` are
built independently, from circuit boundaries and empty flats, with `Poly`
products.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress

from .arrangement import Arrangement
from .circuits import (SignedSet, _bits, _mask, canonical_circuits,
                       circuit_scan, nbc_counts, nbc_sets)
from .errors import ConsistencyError, InputError, ResourceBoundError
from .polyring import Poly


_BIT_VALUE = {"0": Fraction(0), "1": Fraction(1)}
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")  # '0'/'1' -> a false/true selector
_PLUS_BITS = str.maketrans("+-", "10")


@dataclass(frozen=True)
class _Topes:
    """The chambers as bitmasks, built once per arrangement by `_topes`."""

    plus: tuple       # per chamber, bit i set iff it is on the '+' side of form i
    heaviside: tuple  # per hyperplane, bit c set iff chamber c is on its '+' side
    full: int         # every chamber
    index: dict       # plus-mask -> chamber


def _topes(A: Arrangement) -> _Topes:
    """`A.chambers()` read once: each reversed sign string, and each of
    their reversed columns (one `zip(*chambers)`), as binary digits."""
    def build():
        chambers = A.chambers()
        plus = tuple(int(s[::-1].translate(_PLUS_BITS) or "0", 2) for s in chambers)
        heaviside = tuple(int("".join(col)[::-1].translate(_PLUS_BITS), 2)
                          for col in zip(*chambers))
        return _Topes(plus, heaviside, (1 << len(chambers)) - 1,
                      {m: c for c, m in enumerate(plus)})
    return A._memo("topes", build)


def monomial_mask(A: Arrangement, subset) -> int:
    """The chambers where the monomial of `subset` is 1, as a bitmask over
    the chamber order: the AND of its Heaviside masks (`_topes`), or
    every chamber for the empty subset."""
    topes = _topes(A)
    return _chamber_column(topes.heaviside, topes.full, map(A.form_index, subset))


def _chamber_column(heaviside, full: int, idxs) -> int:
    """The AND of the Heaviside masks `heaviside[i]` over the indices
    `idxs`, starting from `full`: the chambers where their monomial is 1."""
    col = full
    for i in idxs:
        col &= heaviside[i]
    return col


def heaviside(A: Arrangement, h) -> tuple:
    """Value 1 on chambers with sign '+' at h, value 0 on sign '-'."""
    return monomial_eval(A, (h,))


def monomial_eval(A: Arrangement, subset) -> tuple:
    """Pointwise product of the Heaviside functions indexed by `subset`."""
    bits = format(monomial_mask(A, subset), f"0{len(A.chambers())}b")
    return tuple(map(_BIT_VALUE.__getitem__, reversed(bits)))


@dataclass(frozen=True)
class FiltrationProfile:
    """dims[k] = dim P^k for k = 0..n; gr_dims are successive differences."""

    dims: tuple
    gr_dims: tuple


def _nbc_dims(A: Arrangement) -> tuple:
    """dim P^k for k = 0..n as the partial sums of the NBC counts of the
    default ordering, certified exactly; a failed bound raises
    `ConsistencyError`.

    Lower bound: the NBC monomials' 0/1 chamber columns are independent
    over GF(2) (`_independent_mod_2`).  Independent 0/1 columns have a
    maximal minor that is odd, hence nonzero, so they are independent over
    Q too, and dim P^k >= |NBC_<=k|.

    Upper bound: every family-(3) relation (one per canonical circuit) and
    the family-(2) relation of every minimal empty flat vanish on the
    chambers at u = 1 (`_relations_vanish`).  The top form of a circuit
    X's relation is its boundary sum_{i in X} X(i) e_{X - i} (the
    full-support monomial cancels), every coefficient +-1; that of an
    empty flat S's relation is e_S.  A relation times a monomial e_T is
    still zero on the chambers, where e_i^2 = e_i.  So a monomial M that
    contains the broken circuit X - x (x the largest index of X) equals,
    on the chambers, a combination of the monomials M - i + x for i in
    X - x and of monomials of lower degree, and a monomial that contains
    an empty flat S equals one of lower degree.  This Cordovil rewriting
    terminates: it keeps or lowers the degree, and when it keeps it, the
    sum of the indices grows, since x > i.  A monomial it cannot rewrite
    has no broken circuit and a nonempty flat: an NBC set (`nbc_sets`).
    So every monomial of degree <= k lies in the span of NBC_<=k on the
    chambers, and dim P^k <= |NBC_<=k|.

    Neither half trusts the circuit scan: the upper bound rewrites only
    with relations checked to vanish, the lower bound reads only the
    columns, and a missing circuit or empty flat that adds NBC sets leaves
    more columns than dim P^n, which cannot be independent.  The NBC sets
    are a Z-basis (Varchenko-Gelfand 1987), so on a correct scan both
    bounds hold: the NBC columns' determinant is +-1, which is odd.
    """
    if not _relations_vanish(A):
        raise ConsistencyError("NBC certificate failed: a circuit or empty-flat "
                               "relation is nonzero on the chambers")
    if not _independent_mod_2(A, nbc_sets(A)):
        raise ConsistencyError("NBC certificate failed: the NBC columns are "
                               "dependent mod 2")
    counts = nbc_counts(A)
    return tuple(accumulate(counts + (0,) * (A.n + 1 - len(counts))))


def _independent_mod_2(A: Arrangement, sets) -> bool:
    """True iff the chamber columns of the monomials of `sets`
    (`_chamber_column`, as `monomial_mask` builds them) are linearly
    independent over GF(2).

    Columns are eliminated by XOR of Python ints against the kept column
    of their highest set bit; one that reduces to zero is dependent.  The
    last chambers in the lexicographic order ('+' before '-') carry the
    most '-' signs, so few monomials hold them and the kept columns stay
    short: the last chamber of a central arrangement is all '-', held by
    the empty monomial alone."""
    topes = _topes(A)
    masks, full = topes.heaviside, topes.full
    pivots: dict = {}
    for s in sets:
        col = _chamber_column(masks, full, s)
        while col:
            top = col.bit_length()
            kept = pivots.get(top)
            if kept is None:
                pivots[top] = col
                break
            col ^= kept
        else:
            return False
    return True


def _relations_vanish(A: Arrangement) -> bool:
    """True iff the family-(3) relation of every canonical circuit and the
    family-(2) relation of every minimal empty flat (`circuit_scan(A)[1]`)
    vanish on the chambers at u = 1: the upper bound of `_nbc_dims`.  It
    reads no minimal infeasible set, only the circuit scan."""
    rels = ([(3, X) for X in canonical_circuits(A)]
            + [(2, X) for X in circuit_scan(A)[1]])
    topes = _topes(A)
    return not any(_nonzero_at(topes.heaviside, topes.full,
                               *_relation_points(family, X))
                   for family, X in rels)


def filtration_profile(A: Arrangement) -> FiltrationProfile:
    """dim P^k for k = 0..n and its successive differences, memoized: the
    partial sums of the NBC counts of the default ordering (`nbc_sets(A)`,
    which the jobs already build), certified by `_nbc_dims`.  A failed
    certificate raises `ConsistencyError` and caches nothing."""
    def build():
        dims = _nbc_dims(A)
        return FiltrationProfile(dims, tuple(d - (dims[k - 1] if k else 0)
                                             for k, d in enumerate(dims)))
    return A._memo("filtration", build)


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


_SIGNS = (Fraction(1), Fraction(-1))  # shared by every expanded term


def _expand_masks(out: dict, plus: int, minus: int, odd: int, drop: int,
                  names: dict) -> None:
    """Add (-1)^odd prod_{i in plus} e_i prod_{j in minus} (e_j - u), divided
    by u^drop (drop 0 or 1), to the terms dict `out`, leaving out the terms
    of u-power below drop.  For plus and minus disjoint bitmasks it has one
    term per sub-mask T of minus, walked as T = (T - 1) & minus: the
    monomial plus | T (its index tuple read from, or added to, the
    mask-keyed dict `names`) with u-power |minus - T| - drop and
    coefficient (-1)^(odd + |minus - T|), a shared Fraction."""
    t = minus
    while True:
        k = (minus ^ t).bit_count()
        if k >= drop:
            m = plus | t
            emon = names.get(m)
            if emon is None:
                emon = names[m] = tuple(_bits(m))
            out[(emon, k - drop)] = _SIGNS[(odd + k) & 1]
        if not t:
            return
        t = (t - 1) & minus


def rees_relation_families(A: Arrangement) -> tuple:
    """The three u-relation families.

    (1) e_i (e_i - u);
    (2) prod e_i prod (e_j - u) per minimal infeasible signed set;
    (3) per signed circuit, the difference of the two opposite products
        divided by u, in the orientation with +1 on the least support
        element.

    Family (1) is one `Poly` product per hyperplane; (2) and (3) are
    expanded from the masks P = mask(X+) and M = mask(X-) by
    `_expand_masks`, with one mask -> index-tuple dict per call.  Family
    (3) needs no merge and no division pass.  Each of the two products
    has one u-free term, T = M in prod_P e_i prod_M (e_j - u) and T = P in
    prod_M e_j prod_P (e_i - u); both are e_{P | M} with coefficient +1,
    so they cancel in the difference, and every other term carries u.  No
    two of the others share a monomial: P | T with T a proper sub-mask of
    M misses an element of M, while M | T' contains M.  So the relation
    is the plain union of the two expansions with their u-free terms left
    out and every u-power lowered by one, every coefficient +-1.
    """
    names: dict = {}
    return A._memo("rees_relations", lambda: tuple(
        Relation(family, source, _u_relation(family, source, names))
        for family, source in _relation_sources(A)))


def _relation_sources(A: Arrangement) -> list:
    """(family, source) of every relation, in the order of
    `rees_relation_families`: each hyperplane index, then each minimal
    infeasible set, then each canonical circuit.  The zero sets read only
    these, so they never expand a polynomial."""
    return ([(1, i) for i in range(A.n)]
            + [(2, X) for X in A.minimal_infeasible_sign_sets()]
            + [(3, X) for X in canonical_circuits(A)])


def _u_relation(family: int, source, names: dict) -> Poly:
    """The u-relation of one (family, source) of `_relation_sources`, the
    monomial keys of families (2) and (3) read through the mask-keyed dict
    `names` (see `_expand_masks`)."""
    if family == 1:
        e = Poly.generator(source)
        return e * (e - Poly.u())
    plus, minus = _mask(source.plus), _mask(source.minus)
    out: dict = {}
    if family == 2:
        _expand_masks(out, plus, minus, 0, 0, names)
    else:
        _expand_masks(out, plus, minus, 0, 1, names)
        _expand_masks(out, minus, plus, 1, 1, names)
    return Poly._of(out)


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


def verify_relations(A: Arrangement) -> RelationCheck:
    """Check that every relation of `vg_relation_families` vanishes on the
    chambers and that the monomial evaluations span all chamber functions,
    both read off the certified filtration (`_nbc_dims`), which raises
    `ConsistencyError` when a relation it checks is nonzero on a chamber.

    A relation's values on the chambers are fixed by its (support, point)
    pairs (`_relation_points`), and the certificate's relations have,
    together, exactly the pairs of all relations: a circuit's family-(3)
    points are the plus-parts of its two orientations; the family-(2)
    relations of those orientations are the minimal infeasible sets
    other than the empty flats, and the empty flats' family-(2)
    relations are the certificate's own; family (1) is zero on the cube.
    So no relation is evaluated here, and the span is dim P^n."""
    span = filtration_profile(A).dims[-1]
    chambers = len(A.chambers())
    return RelationCheck(span == chambers, span, chambers)


def _relation_points(family: int, source) -> tuple:
    """(support, nonzero) of one relation of `_relation_sources` at u = 1:
    its support mask, and the frozenset of the support's sub-masks at
    which it is nonzero.  With P = mask(X+) and M = mask(X-),
    prod_{i in P} e_i prod_{j in M} (e_j - 1) at a 0/1 point t of P | M is
    nonzero iff t contains P and misses M, i.e. iff t = P; a circuit's two
    products are nonzero at the distinct points P and M.  e_i^2 - e_i is
    zero on the cube."""
    if family == 1:
        return 0, frozenset()
    plus, minus = _mask(source.plus), _mask(source.minus)
    return plus | minus, frozenset({plus} if family == 2 else {plus, minus})


def _nonzero_at(cols, full: int, support: int, nonzero) -> int:
    """The points at which a relation with (support, nonzero)
    (`_relation_points`) is nonzero, as a bitmask: `cols[i]` holds the
    points that contain hyperplane i, `full` every point.  Per point t of
    `nonzero`, the AND over the support of cols[i] where t holds i and of
    full ^ cols[i] where it does not, stopped once empty; the OR over t.
    The work follows the support, not the number of points."""
    out = 0
    for t in nonzero:
        at, rest = full, support
        while rest and at:
            low = rest & -rest
            col = cols[low.bit_length() - 1]
            at &= col if t & low else full ^ col
            rest ^= low
        out |= at
    return out


def _common_zeros(A: Arrangement, families) -> list:
    """The subsets s of the hyperplanes, as bitmasks in increasing order, at
    which every selected family-(2)/(3) relation vanishes under
    e_i(s) = [i in s].

    The points are grown one hyperplane at a time: at bit d a point is
    kept unless a selected relation whose support has largest bit d is
    nonzero there.  A relation that is a nonzero constant kills every
    point.  The points kept after bit d are the common zeros of the
    relations supported on the first d + 1 hyperplanes, so the work follows
    the output, not the 2^n cube.

    The points are also held as one column bitmask per hyperplane i: bit
    k is set iff point k contains i.  Appending bit d to every point
    doubles the columns, c | c << L for L points, and adds the column of
    the new half.  A relation kills the points that `_nonzero_at` selects
    on these columns.  The survivors keep their order and are re-indexed,
    their columns rebuilt by `itertools.compress` on the columns' bit
    strings.
    """
    by_top = [[] for _ in range(A.n)]
    for family, source in _relation_sources(A):
        if family == 1 or family not in families:
            continue  # every family-(1) relation is zero on the cube
        support, nonzero = _relation_points(family, source)
        if not support:
            return []  # a nonzero constant
        by_top[support.bit_length() - 1].append((support, nonzero))
    last = max((d for d, rels in enumerate(by_top) if rels), default=-1)
    points, cols = [0], []
    for d, rels in enumerate(by_top):
        size, width = len(points), 2 * len(points)
        points += [p | 1 << d for p in points]
        if d > last:
            continue  # no relation left to test: the columns are not read
        cols = [c | c << size for c in cols]
        cols.append(((1 << size) - 1) << size)
        full = (1 << width) - 1
        dead = 0
        for support, nonzero in rels:
            dead |= _nonzero_at(cols, full, support, nonzero)
        if dead:
            keep = format(full ^ dead, f"0{width}b").encode()[::-1].translate(_BIT_BYTES)
            points = list(compress(points, keep))
            if not points:
                return points
            if d < last:
                cols = [int("".join(compress(format(c, f"0{width}b")[::-1], keep))[::-1], 2)
                        for c in cols]
    return points


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
    (1) and (3) alone must already give the chamber count; a member other
    than 1, 2 or 3 is an `InputError`.
    """
    try:
        chosen = frozenset(families)
    except TypeError:
        chosen = None
    if chosen is None or not chosen <= {1, 2, 3}:
        raise InputError(f"families must be drawn from 1, 2, 3, not {families!r}")
    if A.n > nmax:
        raise ResourceBoundError(
            f"presentation_dimension bound exceeded: n = {A.n} > {nmax}")
    return len(_common_zeros(A, chosen))
