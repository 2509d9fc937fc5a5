"""The graded algebra presented by squares, empty-flat monomials and circuit
boundaries, with its no-broken-circuit normal form.

Generators square to zero.  Every signed circuit X contributes the
alternating boundary sum_{a} phi(a) * x_{support - a} (normalized so the
ordering-minimal support element carries +1; `circuit_boundary` reads the
ground set off the ordering, so it takes no size), and in the affine case
every monomial whose support has empty flat dies.  Monomials are straightened
onto the NBC basis by solving each boundary relation for its broken-circuit
term; every rewrite swaps an element for the strictly larger dropped
maximum, so the process terminates.  Straightening does only the work the
normal form needs:

- *Grade bound.*  A rewrite swaps a in mono for mx not in mono, so it keeps
  the grade, and no NBC set has more elements than the rank r.  So every
  squarefree monomial of more than r generators straightens to 0: by
  induction along the rewrites, each one is zero (its flat is empty, or it
  holds a whole circuit support) or rewrites into monomials of its own
  size, and none is free of broken circuits, since such a set with a
  nonempty flat is an NBC set.  `straighten` answers a one-term
  polynomial of more than r valid indices and no u with 0 at once: no
  index set, no table lookup, no table entry (one with a bad index or a
  factor u goes through `_squarefree` like any other term and raises).
  Inside a sum or a product such a monomial is answered 0 without
  recursion.  An arrangement's
  circuit scan finds r, as the size of its largest independent set with
  a nonempty flat, checked against `linalg.rank`; a raw circuit system
  has no r and recurses in every grade.  Construction pays for the skipped work: the NBC sets must
  reach grade r exactly, else a `ConsistencyError`.  The NBC growth
  enumerates every set free of broken circuits with a nonempty flat, so
  this catches whatever the per-monomial guard ("a monomial free of broken
  circuits is not an NBC set") could have caught above r, and it checks
  the growth against independent linear algebra on every algebra.
- *Broken circuits by least element.*  The rewrite of a monomial comes
  from the first broken circuit b inside it in one order: the ascending
  tuple of b's ranks, descending.  The first entry of that key is the rank
  of b's least element, so the broken circuits are bucketed by that
  element, in that order within a bucket, and the buckets of the
  monomial's elements are walked by decreasing rank.  The first b found
  that way is the first of the linear scan, so the rewrite is the same; it
  costs no lookup per subset of the monomial.
- *Nothing per monomial that can be done once.*  The empty flats are read
  at construction, not asked of the source at every recursion, and
  `straighten` checks the indices of each input monomial once
  (`form_index`'s message for a bad one).

Each rewrite has coefficient +/-1, so a straightened monomial has integer
coordinates: they are kept as plain ints in one table per (source,
ordering), memoized on the source and shared by every algebra of that
pair.  There is one summation routine, `_combine`: `straighten` (one
pass over the terms, skipping squared monomials, for one term as for
many) and `multiply` (one pass over the pairs of disjoint basis sets,
`_disjoint_products`) feed it (monomial, numerator, denominator) triples,
and it sums the table's entries over a running common denominator, grown
(an lcm, the sums so far rescaled) only when a term's does not divide
it; a single term's denominator becomes the common one at once.  So the
Fractions are made only for the result (the small integers' come from
`polyring._FRACTIONS`, made once and shared with `Poly` products), which
is built through the trusted `AlgebraElement._of`, as are sums and
scalar multiples.
`AlgebraElement(algebra, coords)` takes Fraction values and frozenset
keys as they are (one set test on the keys' types), sends any other
value through `frac` and reads any other key as a collection of indices:
one that is not, that repeats an index or that names the same set as
another key is an `InputError`.  It
drops zeros and checks that each key is an NBC set.  Adding, subtracting or multiplying elements of different algebras is an
`InputError`, as is adding or subtracting anything but an element, or
scaling by anything but a rational number.  A raw circuit system is read
through the same calls as an arrangement, with no empty flat.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .arrangement import Arrangement
from .circuits import (GroundSet, SignedSet, _circuit_set, _grade_counts,
                       broken_circuit_map, canonical_circuits,
                       circuits_from_arrangement, nbc_sets, ordering_ranks)
from .errors import ConsistencyError, InputError
from .linalg import frac
from .polyring import _FRACTIONS, Poly
from .vgring import Relation, _u_relation


def circuit_boundary(X: SignedSet, ordering=None) -> Poly:
    """Alternating sum of codimension-one monomials of a circuit support.

    The orientation is renormalized (never rejected) so that the
    ordering-minimal support element has sign +1: the least index when no
    ordering is given.  An ordering must be a permutation of range(n) for
    its own length n, and one that misses a support element is refused
    with `ordering_ranks`' message.
    """
    # a support element past the ordering makes it no permutation
    ranks = ordering_ranks(max(len(ordering or ()), max(X.support) + 1), ordering)
    lead = min(X.support, key=ranks.__getitem__)
    if X.sign(lead) < 0:
        X = X.negate()
    out = Poly.zero()
    for a in sorted(X.support):
        rest = tuple(sorted(X.support - {a}))
        out = out + Poly.monomial(rest, coeff=X.sign(a))
    return out


def minimal_empty_flat_subsets(A: Arrangement) -> tuple:
    """Inclusion-minimal index sets whose hyperplanes have empty intersection,
    ordered by size, then lexicographically; the circuit scan finds them."""
    return circuits_from_arrangement(A).empty_flats


def cordovil_relation_families(A: Arrangement) -> tuple:
    """Relations presenting the graded algebra: squares, minimal empty-flat
    monomials, and one boundary per circuit pair.  The boundary orientation
    matches `circuit_boundary`, i.e. the telescoped two-sided product sum
    normalized with +1 on the least support element."""
    rels = [Relation(1, i, Poly.monomial((i, i))) for i in range(A.n)]
    for ss in minimal_empty_flat_subsets(A):
        rels.append(Relation(2, ss, Poly.monomial(tuple(sorted(ss)))))
    for X in canonical_circuits(A):
        rels.append(Relation(3, X, circuit_boundary(X)))
    return tuple(rels)


class CordovilAlgebra:
    """Straightening context for an arrangement or a raw circuit system."""

    def __init__(self, source, ordering=None):
        if not isinstance(source, GroundSet):
            raise InputError("source must be an Arrangement or a CircuitSet")
        self.n = source.n
        self.labels = source.labels
        self.source = source
        self.ordering = tuple(ordering) if ordering is not None else tuple(range(self.n))
        self._buckets = source._memo(("rewrite buckets", self.ordering),
                                     lambda: _rewrite_buckets(source, self.ordering))
        circuits = _circuit_set(source)
        self._empty_flats = circuits.empty_flats
        self._indices = frozenset(range(self.n))
        self.nbc = nbc_sets(source, self.ordering)
        self._top = circuits._rank
        if self._top is not None and len(self.nbc[-1]) != self._top:
            raise ConsistencyError(
                f"the NBC sets stop at grade {len(self.nbc[-1])}, but the "
                f"circuit scan found rank {self._top}")
        self._nbc_lookup = set(self.nbc)
        self._table = source._memo(("straightened", self.ordering), dict)

    # -- elements ------------------------------------------------------------

    def element(self, coords) -> "AlgebraElement":
        return AlgebraElement(self, coords)

    def one(self) -> "AlgebraElement":
        return self.element({frozenset(): Fraction(1)})

    def generator(self, h) -> "AlgebraElement":
        return self.straighten(Poly.generator(self.source.form_index(h)))

    def hilbert_series(self) -> tuple:
        return _grade_counts(self.nbc)

    # -- straightening ---------------------------------------------------------

    def _straighten_monomial(self, mono: frozenset) -> dict:
        """The NBC coordinates of a squarefree monomial of valid indices,
        as plain `int`s: each rewrite has coefficient -phi(a) * phi(mx) =
        +/-1.  The table is shared by every algebra of this source and
        ordering."""
        hit = self._table.get(mono)
        if hit is not None:
            return hit
        result: dict = {}
        if ((self._top is None or len(mono) <= self._top)
                and not any(map(mono.issuperset, self._empty_flats))):
            rule = next((rule for e, bucket in self._buckets if e in mono
                         for rule in bucket if rule[0] <= mono), None)
            if rule is None:
                if mono not in self._nbc_lookup:
                    raise ConsistencyError(
                        "a monomial free of broken circuits is not an NBC set")
                result = {mono: 1}
            elif rule[1] not in mono:
                # (a monomial holding the whole circuit support is zero)
                _, mx, steps = rule
                for a, scale in steps:
                    _add_into(result, self._straighten_monomial((mono - {a}) | {mx}), scale)
        self._table[mono] = result
        return result

    def _squarefree(self, emon: tuple, u: int):
        """The index set of a u-free monomial, None if a generator repeats;
        an index outside the ground set is `form_index`'s `InputError`."""
        if u:
            raise InputError("cannot straighten a polynomial carrying u")
        mono = frozenset(emon)
        if len(mono) != len(emon):
            return None
        if not mono <= self._indices:
            mono = self.source._index_set(mono)
        return mono

    def _combine(self, terms) -> "AlgebraElement":
        """The sum of (num / den) * straightened(mono) over (mono, num, den)
        triples: the table's ints are summed over a running common
        denominator, which grows (an lcm, the sums so far rescaled) only
        when a term's does not divide it, and each nonzero sum becomes one
        Fraction."""
        table = self._table
        sums: dict = {}
        den = 1
        for mono, k, d in terms:
            coords = table.get(mono)
            if coords is None:
                coords = self._straighten_monomial(mono)
            if d != den:
                if den % d:
                    grown = lcm(den, d)
                    scale = grown // den
                    for basis in sums:
                        sums[basis] *= scale
                    den = grown
                k *= den // d
            for basis, c in coords.items():
                sums[basis] = sums.get(basis, 0) + k * c
        if den == 1:
            return AlgebraElement._of(self, {b: _FRACTIONS[v] for b, v in sums.items() if v})
        return AlgebraElement._of(self, {b: Fraction(v, den) for b, v in sums.items() if v})

    def straighten(self, poly: Poly) -> "AlgebraElement":
        """Normal form of a polynomial on the NBC basis.  Monomials with a
        repeated generator are zero; u must not appear.  A u-free one-term
        polynomial of more valid indices than the rank is 0 at once (the
        grade bound); every other polynomial has each term checked by
        `_squarefree` and is summed by `_combine`, as products are."""
        if len(poly.terms) == 1:
            [(emon, u)] = poly.terms
            if (not u and self._top is not None and len(emon) > self._top
                    and self._indices.issuperset(emon)):
                return AlgebraElement._of(self, {})
        terms = []
        for (emon, u), c in poly.terms.items():
            mono = self._squarefree(emon, u)
            if mono is not None:
                terms.append((mono, c.numerator, c.denominator))
        return self._combine(terms)

    def multiply(self, a: "AlgebraElement", b: "AlgebraElement") -> "AlgebraElement":
        if a.algebra is not self or b.algebra is not self:
            raise InputError("elements belong to different algebra contexts")
        return self._combine(_disjoint_products(a.coords, b.coords))


def _rewrite_buckets(source, ordering: tuple) -> tuple:
    """The rewrite rules (b, mx, ((a, -phi(a) * phi(mx)) for a in b)) of the
    broken circuits b, bucketed by b's least element: (element, rules)
    pairs by decreasing rank of the element, the rules of a bucket in
    descending order of the ascending tuple of their ranks."""
    ranks = ordering_ranks(source.n, ordering)
    broken = broken_circuit_map(source, ordering)
    buckets: dict = {}
    for b in sorted(broken, key=lambda b: tuple(sorted(ranks[i] for i in b)),
                    reverse=True):
        _, phi, mx = broken[b]
        steps = tuple((a, -phi[a] * phi[mx]) for a in sorted(b))
        buckets.setdefault(min(b, key=ranks.__getitem__), []).append((b, mx, steps))
    return tuple((e, tuple(buckets[e])) for e in reversed(ordering) if e in buckets)


def _disjoint_products(x: dict, y: dict):
    """(s | t, numerator, denominator) of each product of a term of x and
    a term of y on disjoint basis sets: a repeated generator squares to
    zero."""
    for s, cx in x.items():
        num, den = cx.numerator, cx.denominator
        for t, cy in y.items():
            if s.isdisjoint(t):
                yield s | t, num * cy.numerator, den * cy.denominator


def _add_into(coords: dict, terms: dict, scale) -> None:
    """coords += scale * terms, dropping the coefficients that become zero
    (ints stay ints, Fractions stay Fractions)."""
    for basis, c in terms.items():
        val = coords.get(basis, 0) + scale * c
        if val:
            coords[basis] = val
        else:
            coords.pop(basis, None)


_FROZEN = frozenset({frozenset})  # the fast path of coordinates: all keys frozensets


def _keyed_by_sets(items) -> list:
    """(frozenset, coefficient) pairs for coordinates keyed by other
    collections of indices: a key that is not a collection of ints, that
    repeats an index, or that names the same basis set as another key is
    an `InputError`."""
    named: dict = {}
    out = []
    for key, c in items:
        try:
            idxs = tuple(key)
        except TypeError:
            idxs = None
        if idxs is None or not all(type(i) is int for i in idxs):
            raise InputError(f"coordinate key {key!r} is not a set of indices")
        basis = frozenset(idxs)
        if len(basis) != len(idxs):
            raise InputError(f"coordinate key {key!r} repeats an index")
        if basis in named:
            raise InputError(f"coordinate keys {named[basis]!r} and {key!r} "
                             "name one basis set")
        named[basis] = key
        out.append((basis, c))
    return out


class AlgebraElement:
    """Rational combination of NBC basis monomials in a fixed context."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: CordovilAlgebra, coords):
        self.algebra = algebra
        items = coords.items()
        if not _FROZEN.issuperset(map(type, coords)):
            items = _keyed_by_sets(items)
        nbc = algebra._nbc_lookup
        clean = {}
        for basis, c in items:
            if type(c) is not Fraction:
                c = frac(c)
            if not c:
                continue
            if basis not in nbc:
                raise InputError("coordinates indexed by a non-NBC set")
            clean[basis] = c
        self.coords = clean

    @classmethod
    def _of(cls, algebra: CordovilAlgebra, coords: dict) -> "AlgebraElement":
        """An element from coordinates already keyed by NBC sets, with
        nonzero Fraction values: no checks, no copy."""
        el = cls.__new__(cls)
        el.algebra = algebra
        el.coords = coords
        return el

    @property
    def is_zero(self) -> bool:
        return not self.coords

    def _add_scaled(self, other, scale) -> "AlgebraElement":
        """self + scale * other for an element of the same context."""
        if not isinstance(other, AlgebraElement):
            raise InputError("only an algebra element can be added to or "
                             "subtracted from an algebra element")
        if other.algebra is not self.algebra:
            raise InputError("elements belong to different algebra contexts")
        out = dict(self.coords)
        _add_into(out, other.coords, scale)
        return AlgebraElement._of(self.algebra, out)

    def __add__(self, other):
        return self._add_scaled(other, 1)

    def __sub__(self, other):
        return self._add_scaled(other, -1)

    def __rmul__(self, scalar):
        try:
            scalar = frac(scalar)
        except InputError:
            raise
        except (TypeError, ValueError) as exc:
            raise InputError(f"cannot scale an algebra element by {scalar!r}: "
                             "not a rational number") from exc
        coords = {b: scalar * c for b, c in self.coords.items()} if scalar else {}
        return AlgebraElement._of(self.algebra, coords)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return self.algebra.multiply(self, other)
        return self.__rmul__(other)

    def __eq__(self, other):
        return (isinstance(other, AlgebraElement) and self.algebra is other.algebra
                and self.coords == other.coords)

    def sorted_coords(self):
        return sorted(self.coords.items(), key=lambda kv: (len(kv[0]), tuple(sorted(kv[0]))))

    def to_json(self) -> dict:
        labels = self.algebra.labels
        basis, coeffs = [], []
        for b, c in self.sorted_coords():
            basis.append([labels[i] for i in sorted(b)])
            coeffs.append(str(c))
        return {"basis": basis, "coeffs": coeffs}

    def to_poly(self) -> Poly:
        """The element as a polynomial in its NBC monomials."""
        return Poly._of({(tuple(sorted(b)), 0): c for b, c in self.coords.items()})

    def to_str(self) -> str:
        return self.to_poly().to_str(self.algebra.labels)

    def __repr__(self):
        return f"AlgebraElement({self.to_str()})"


@dataclass(frozen=True)
class LeadingFormReport:
    ok: bool
    signs: tuple      # (circuit, +1/-1) per circuit, in canonical order
    mismatches: tuple

    def sign_lines(self, labels):
        return [f"{X.pretty(labels)}: sign {s:+d}" for X, s in self.signs]


def leading_form_check(A: Arrangement, ordering=None) -> LeadingFormReport:
    """Compare the top-degree part of each degree-filtered circuit relation
    with the circuit boundary; a global sign per circuit is allowed and
    recorded."""
    signs = []
    mismatches = []
    names: dict = {}
    for X in canonical_circuits(A, ordering):
        # at u = 1 the family-(3) u-relation is the difference of products
        top = _u_relation(3, X, names).substitute_u(1).top_e_part()
        db = circuit_boundary(X, ordering)
        if top == db:
            signs.append((X, 1))
        elif top == -db:
            signs.append((X, -1))
        else:
            mismatches.append(X)
    return LeadingFormReport(not mismatches, tuple(signs), tuple(mismatches))
