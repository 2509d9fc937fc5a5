"""The end-to-end verification battery.

Each criterion function returns a CriterionResult; `run_all` executes the
whole battery.  The oracles used here (monomial-space quotients, the exact
filtration echelon, permutation-character bootstrap) are deliberately
independent of the code paths they certify.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial

from .arrangement import cone, delete, restrict
from .characters import class_size, mn_character, partitions
from .circuits import (CircuitSet, SignedSet, _mask, circuits_from_arrangement,
                       nbc_counts, validate_circuit_axioms)
from .cordovil import (CordovilAlgebra, cordovil_relation_families,
                       leading_form_check, minimal_empty_flat_subsets)
from .corpus import central_corpus, corpus
from .errors import ConsistencyError
from .linalg import SparseEchelon, affine_system_consistent
from .polyring import Poly
from .rees import rees_relation_families, rees_hilbert_check, specialize
from .symmetry import coordinate_action, graded_character
from .vgring import (_topes, filtration_profile, monomial_mask,
                     presentation_dimension, verify_relations)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{status} criterion {self.number}: {self.name} — {self.detail}"


def _trim(counts) -> tuple:
    counts = list(counts)
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


# -- criterion 1 & 2: character tables --------------------------------------

_B4_EXPECTED = [
    {(4,): 1},
    {(3, 1): 1, (2, 1, 1): 1},
    {(3, 1): 1, (2, 1, 1): 1, (2, 2): 2, (1, 1, 1, 1): 1},
    {(3, 1): 1, (2, 1, 1): 1},
]

_S3_CHAMBER_EXPECTED = {(3,): 5, (1, 1, 1): 2, (2, 1): 6}
_S3_GRADED_EXPECTED = [
    {(3,): 1},
    {(3,): 1, (1, 1, 1): 1, (2, 1): 2},
    {(3,): 3, (1, 1, 1): 1, (2, 1): 4},
]


def _nonzero(d: dict) -> dict:
    return {k: v for k, v in d.items() if v}


def criterion_1() -> CriterionResult:
    A = dict(corpus())["braid4"]
    gc = graded_character(A, coordinate_action(A))
    per_grade, total = gc.decompositions()
    ok = [_nonzero(d) for d in per_grade] == _B4_EXPECTED
    regular = tuple(Fraction(24) if mu == (1, 1, 1, 1) else Fraction(0)
                    for mu in gc.group.cycle_types)
    ok = ok and gc.chamber_values == regular
    detail = ("B4 grade multiplicities and regular chamber character verified"
              if ok else f"braid4: got {[_nonzero(d) for d in per_grade]}, "
                         f"chamber {gc.chamber_values}")
    return CriterionResult(1, "B4 representation table", ok, detail)


def criterion_2() -> CriterionResult:
    A = dict(corpus())["semiorder3"]
    gc = graded_character(A, coordinate_action(A))
    per_grade, total = gc.decompositions()
    ok = (_nonzero(total) == _S3_CHAMBER_EXPECTED
          and [_nonzero(d) for d in per_grade] == _S3_GRADED_EXPECTED)
    detail = ("chamber 5t+2s+6r and graded tables verified" if ok
              else f"semiorder3: chamber {_nonzero(total)}, "
                   f"grades {[_nonzero(d) for d in per_grade]}")
    return CriterionResult(2, "semiorder S3 tables", ok, detail)


# -- criterion 3: three-way dimension identity --------------------------------


def straightening_span_dims(A) -> tuple:
    """Grade-wise dimension of the span of straightened squarefree monomials."""
    alg = CordovilAlgebra(A)
    nbc_index = {s: k for k, s in enumerate(alg.nbc)}
    top = max((len(s) for s in alg.nbc), default=0)
    echelons = [SparseEchelon() for _ in range(top + 1)]
    for size in range(A.n + 1):
        for supp in combinations(range(A.n), size):
            el = alg.straighten(Poly.monomial(supp))
            if el.is_zero:
                continue
            if any(len(b) != size for b in el.coords):
                raise ConsistencyError("straightening changed the degree")
            if size <= top:
                echelons[size].add({nbc_index[b]: c for b, c in el.coords.items()})
    return tuple(e.rank for e in echelons)


def _chamber_keys(A) -> tuple:
    """Per chamber c, its rank in the order (number of '+' signs, chamber
    index): the column key of chamber c in `exact_filtration_oracle`."""
    plus = _topes(A).plus
    order = sorted(range(len(plus)), key=lambda c: (plus[c].bit_count(), c))
    keys = [0] * len(order)
    for rank, c in enumerate(order):
        keys[c] = rank
    return tuple(keys)


def _keyed_column(mask: int, keys) -> dict:
    """The 0/1 chamber function of a chamber bitmask as an integer dict
    {keys[c]: 1} over the chambers c in `mask`."""
    out = {}
    while mask:
        low = mask & -mask
        out[keys[low.bit_length() - 1]] = 1
        mask ^= low
    return out


def exact_filtration_oracle(A):
    """(dims, bases) of the filtration by an exact echelon that assumes no
    basis theorem: every monomial's 0/1 chamber column, each grade scanned
    backwards in lexicographic order, into a `SparseEchelon` until the span
    is full; dims[k] = dim P^k and bases[k] the pivot subsets of degree k.
    Columns are keyed by chamber plus-count (`_chamber_keys`), so a
    column's least key is a chamber few other monomials contain and the
    pivot rows stay sparse.

    On a certified arrangement dims is `filtration_profile(A).dims` and
    bases[k] the grade-k sets of `nbc_sets(A)`, reversed.  Rewriting a
    monomial M through a broken circuit X - x (x the largest index of X)
    gives, besides monomials of lower degree, the monomials M - i + x for
    i in X - x; since x > i, M - i + x comes first in the backward scan.
    So every other monomial lies in the span of the NBC monomials scanned
    before it, and those are independent: they are the pivots, in scan
    order."""
    nch = len(A.chambers())
    keys = _chamber_keys(A)
    ech = SparseEchelon()
    dims = []
    bases = []
    for k in range(A.n + 1):
        grade = []
        if ech.rank < nch:
            for subset in reversed(list(combinations(range(A.n), k))):
                if ech.add(_keyed_column(monomial_mask(A, subset), keys)):
                    grade.append(frozenset(subset))
                    if ech.rank == nch:
                        break  # the span is full: later inserts add nothing
        dims.append(ech.rank)
        bases.append(grade)
    return (tuple(dims), bases)


def criterion_3() -> CriterionResult:
    """gr P^k, the NBC counts and the straightening span agree, grade by
    grade, and sum to the chamber count.  `filtration_profile` reads its
    dims from the NBC sets, so they are also compared with the exact echelon
    of every monomial (`exact_filtration_oracle`), which assumes no basis
    theorem."""
    bad = []
    for name, A in corpus():
        profile = filtration_profile(A)
        gr = _trim(profile.gr_dims)
        nbc = _trim(nbc_counts(A))
        span = _trim(straightening_span_dims(A))
        total = len(A.chambers())
        exact = exact_filtration_oracle(A)[0]
        if not (gr == nbc == span and sum(gr) == total):
            bad.append(f"{name}: gr={gr} nbc={nbc} span={span} chambers={total}")
        if profile.dims != exact:
            bad.append(f"{name}: dims={profile.dims} exact echelon={exact}")
    ok = not bad
    detail = "gr = NBC = straightening-span with chamber total on all corpus members" \
        if ok else "; ".join(bad)
    return CriterionResult(3, "filtration/NBC/straightening dimension identity", ok, detail)


def criterion_4() -> CriterionResult:
    bad = []
    for name, A in corpus():
        want = len(A.chambers())
        got = presentation_dimension(A, families=(1, 2))
        if got != want:
            bad.append(f"{name}: families(1,2) dim {got} != {want}")
        if A.central:
            got13 = presentation_dimension(A, families=(1, 3))
            if got13 != want:
                bad.append(f"{name}: families(1,3) dim {got13} != {want}")
    ok = not bad
    detail = ("presentation dimension equals chamber count everywhere "
              "(central members also with families 1+3)") if ok else "; ".join(bad)
    return CriterionResult(4, "presentation completeness", ok, detail)


def _poly_sum(p, q):
    return tuple(a + b for a, b in
                 zip(list(p) + [0] * (len(q) - len(p)),
                     list(q) + [0] * (len(p) - len(q))))


def _poly_shift(p):
    return (0,) + tuple(p)


def criterion_5() -> CriterionResult:
    bad = []
    for name, A in corpus():
        base = _trim(nbc_counts(A))
        for lab in A.labels:
            dele = _trim(nbc_counts(delete(A, lab))) if A.n > 1 else (1,)
            rest_arr = restrict(A, lab)
            rest = _trim(nbc_counts(rest_arr))
            want = _trim(_poly_sum(dele, _poly_shift(rest)))
            if base != want:
                bad.append(f"{name}/{lab}: {base} != {dele} + t^2*{rest}")
        coned = _trim(nbc_counts(cone(A)))
        want = _trim(_poly_sum(base, _poly_shift(base)))
        if coned != want:
            bad.append(f"{name}: cone {coned} != (1+t^2)*{base}")
    ok = not bad
    detail = ("deletion-restriction and coning recursions hold for every "
              "hyperplane of every corpus member") if ok else "; ".join(bad)
    return CriterionResult(5, "deletion-restriction recursions", ok, detail)


def minimal_empty_flats_oracle(A) -> tuple:
    """Inclusion-minimal index sets with empty flat, by one consistency test
    of the flat's equations per support of every size (no rank cap, no
    circuit pruning); the library reads them off its circuit scan instead."""
    rows = A.integer_forms()
    found: list[frozenset] = []
    for size in range(2, A.n + 1):
        for supp in combinations(range(A.n), size):
            ss = frozenset(supp)
            if any(f <= ss for f in found):
                continue
            if not affine_system_consistent([rows[j][:-1] for j in supp],
                                            [-rows[j][-1] for j in supp]):
                found.append(ss)
    return tuple(found)


def criterion_6() -> CriterionResult:
    bad = []
    for name, A in corpus():
        rees = rees_relation_families(A)
        cord = {(r.family, r.source): r.poly for r in cordovil_relation_families(A)}
        alg = CordovilAlgebra(A)
        # u = 1: the chamber-function families (the u = 1 specialization by
        # definition) vanish on every chamber, which the NBC certificate
        # checks (a nonzero relation raises `ConsistencyError`), and their
        # monomials span
        if not verify_relations(A).ok:
            bad.append(f"{name}: u=1 relations fail on the chambers")
        # u = 0: squares and circuit boundaries term for term
        for r in rees:
            at0 = specialize(r.poly, 0)
            if r.family == 1:
                if at0 != cord[(1, r.source)]:
                    bad.append(f"{name}: u=0 family-1 mismatch")
            elif r.family == 3:
                if at0 != cord[(3, r.source)]:
                    bad.append(f"{name}: u=0 family-3 mismatch")
            else:
                X = r.source
                if A.flat_nonempty(X.support):
                    if not alg.straighten(at0).is_zero:
                        bad.append(f"{name}: u=0 support monomial not zero "
                                   f"in the graded algebra")
                elif at0 != Poly.monomial(tuple(sorted(X.support))):
                    bad.append(f"{name}: u=0 family-2 image malformed")
        # empty-flat family-2 supports coincide with the minimal empty flats,
        # and both with the flat-test oracle
        empty_supports = {X.support for X in A.minimal_infeasible_sign_sets()
                          if not A.flat_nonempty(X.support)}
        oracle = minimal_empty_flats_oracle(A)
        if not empty_supports == set(oracle) == set(minimal_empty_flat_subsets(A)):
            bad.append(f"{name}: empty-flat supports differ from minimal empty flats")
        for r in rees:
            if not r.poly.is_homogeneous:
                bad.append(f"{name}: inhomogeneous relation in family {r.family}")
        if not rees_hilbert_check(A).ok:
            bad.append(f"{name}: filtration dims disagree with NBC partial sums")
    ok = not bad
    detail = ("u=0/u=1 specializations and filtration freeness table verified"
              if ok else "; ".join(bad))
    return CriterionResult(6, "one-parameter specializations", ok, detail)


def criterion_7() -> CriterionResult:
    bad = []
    for name, A in corpus():
        report = leading_form_check(A)
        if not report.ok:
            bad.append(f"{name}: {len(report.mismatches)} mismatching circuits")
    ok = not bad
    detail = ("top-degree parts match the circuit boundaries (up to recorded "
              "sign) on the whole corpus") if ok else "; ".join(bad)
    return CriterionResult(7, "leading-form identity", ok, detail)


def criterion_8() -> CriterionResult:
    bad = []
    for name, A in central_corpus():
        report = validate_circuit_axioms(circuits_from_arrangement(A))
        if not report.ok:
            bad.append(f"{name}: {report.violations[:1]}")
    # negative controls must be flagged
    broken1 = CircuitSet(["a", "b"], [SignedSet(frozenset({0}), frozenset())])
    r1 = validate_circuit_axioms(broken1)
    if r1.ok or not any(a == 1 for a, _ in r1.violations):
        bad.append("singleton circuit not flagged by axiom (1)")
    broken2 = CircuitSet(["a", "b"], [SignedSet(frozenset({0}), frozenset({1}))])
    r2 = validate_circuit_axioms(broken2)
    if r2.ok or not any(a == 2 for a, _ in r2.violations):
        bad.append("dropped negation not flagged by axiom (2)")
    ok = not bad
    detail = ("axioms pass on all central members; negative controls flagged"
              if ok else "; ".join(bad))
    return CriterionResult(8, "circuit axioms", ok, detail)


# -- criterion 9: oracle-backed property suites --------------------------------


def _oracle_ideal_span(A) -> dict:
    """Monomial multiples of the graded relations in the 2^n squarefree
    space, one `SparseEchelon` per grade: the relations are homogeneous,
    so their span is the direct sum of its graded parts, and a grade with
    no echelon holds no relation."""
    by_grade: dict = {}
    n = A.n
    gens = [r.poly for r in cordovil_relation_families(A) if r.family != 1]
    all_masks = range(2**n)
    for g in gens:
        gvec = {_mask(emon): coeff for (emon, _), coeff in g.terms.items()}
        for mask in all_masks:
            vec = {}
            for m, c in gvec.items():
                if m & mask:
                    continue  # x^2 = 0 kills overlapping products
                vec[m | mask] = vec.get(m | mask, Fraction(0)) + c
            if vec:
                grade = bin(next(iter(vec))).count("1")
                by_grade.setdefault(grade, SparseEchelon()).add(vec)
    return by_grade


def _in_graded_span(by_grade: dict, poly) -> bool:
    """Whether a squarefree, u-free polynomial lies in the span of
    `_oracle_ideal_span`: each homogeneous part in its grade's echelon."""
    parts: dict = {}
    for (emon, _), coeff in poly.terms.items():
        parts.setdefault(len(emon), {})[_mask(emon)] = coeff
    return all(grade in by_grade and by_grade[grade].contains(vec)
               for grade, vec in parts.items())


def straightening_oracle_check(A) -> list:
    """Certify straightening against the brute-force quotient: the
    quotient's dimension in each grade and in total (2^n less the ranks of
    the graded echelons) is the NBC count, straightening is idempotent,
    and each monomial differs from its normal form by a relation."""
    from math import comb

    problems = []
    alg = CordovilAlgebra(A)
    by_grade = _oracle_ideal_span(A)
    n = A.n
    counts = nbc_counts(A)
    expected_corank = sum(counts)
    corank = 2**n - sum(ech.rank for ech in by_grade.values())
    if corank != expected_corank:
        problems.append(f"oracle corank {corank} != NBC total {expected_corank}")
    for k in range(n + 1):
        rank_k = by_grade[k].rank if k in by_grade else 0
        nbc_k = counts[k] if k < len(counts) else 0
        if comb(n, k) - rank_k != nbc_k:
            problems.append(f"grade {k} quotient {comb(n, k) - rank_k} != "
                            f"NBC count {nbc_k}")
    for size in range(n + 1):
        for supp in combinations(range(n), size):
            el = alg.straighten(Poly.monomial(supp))
            # idempotence and linear consistency
            back = el.to_poly()
            if alg.straighten(back).coords != el.coords:
                problems.append(f"not idempotent on {supp}")
            if not _in_graded_span(by_grade, back - Poly.monomial(supp)):
                problems.append(f"straighten({supp}) differs by a non-relation")
    return problems


def _permutation_character(mu, nu) -> int:
    """Number of ways to distribute cycles of type nu into blocks of
    sizes mu; the character of the Young permutation module."""

    def count(cycles, blocks):
        if not blocks:
            return 1 if not cycles else 0
        first, rest = blocks[0], blocks[1:]
        total = 0
        m = len(cycles)
        for select in range(2**m):
            chosen = tuple(cycles[i] for i in range(m) if select >> i & 1)
            if sum(chosen) != first:
                continue
            remaining = [cycles[i] for i in range(m) if not select >> i & 1]
            total += count(remaining, rest)
        return total

    return count(list(nu), list(mu))


def sn_character_oracle(n: int) -> dict:
    """Irreducible characters of S_n bootstrapped from permutation modules
    by inner-product triangularization (no border strips involved)."""
    parts = partitions(n)  # descending lex refines dominance
    order = factorial(n)

    def inner(f, g):
        return sum(class_size(nu) * f[nu] * g[nu] for nu in parts) // order

    chars: dict = {}
    for lam in parts:
        eta = {nu: _permutation_character(lam, nu) for nu in parts}
        for mu, chi in chars.items():
            mult = inner(eta, chi)
            if mult:
                eta = {nu: eta[nu] - mult * chi[nu] for nu in parts}
        chars[lam] = eta
    return chars


# criterion 9(d)'s coefficients: `choice` of these seven draws what
# `Fraction(randint(-3, 3))` drew (one `_randbelow(7)` either way), without
# building a Fraction for each
_COEFFS = tuple(Fraction(k) for k in range(-3, 4))


def _law_products(alg, basis: list, rng) -> tuple:
    """One draw of criterion 9(d): three elements, each of at most two
    basis sets with coefficients drawn from -3..3, and the products ab,
    ba, (ab)c, bc and a(bc), made in that order."""
    a, b, c = (alg.element({s: rng.choice(_COEFFS)
                            for s in rng.sample(basis, k=min(2, len(basis)))})
               for _ in range(3))
    ab = a * b
    ba = b * a
    ab_c = ab * c
    bc = b * c
    return ab, ba, ab_c, bc, a * bc


def criterion_9() -> CriterionResult:
    bad = []
    rng = random.Random(987654)
    # (a) NBC grade counts do not depend on the ordering
    for name, A in corpus():
        base = nbc_counts(A)
        for _ in range(5):
            ordering = list(range(A.n))
            rng.shuffle(ordering)
            if nbc_counts(A, tuple(ordering)) != base:
                bad.append(f"{name}: NBC counts depend on ordering {ordering}")
    # (b) straightening agrees with the quotient oracle
    for name, A in corpus():
        if A.n <= 8:
            for p in straightening_oracle_check(A):
                bad.append(f"{name}: {p}")
    # (c) border-strip characters against the permutation-module bootstrap
    for n in range(1, 6):
        oracle = sn_character_oracle(n)
        for lam in partitions(n):
            for mu in partitions(n):
                if mn_character(lam, mu) != oracle[lam][mu]:
                    bad.append(f"MN mismatch at {lam}, {mu}")
    # (d) multiplication is associative and commutative
    for name, A in corpus():
        alg = CordovilAlgebra(A)
        basis = list(alg.nbc)
        for _ in range(200):
            ab, ba, ab_c, _, a_bc = _law_products(alg, basis, rng)
            if ab.coords != ba.coords:
                bad.append(f"{name}: multiplication not commutative")
                break
            if ab_c.coords != a_bc.coords:
                bad.append(f"{name}: multiplication not associative")
                break
    ok = not bad
    detail = ("ordering independence, straightening oracle, character oracle "
              "and algebra laws all verified") if ok else "; ".join(bad[:4])
    return CriterionResult(9, "property suites with independent oracles", ok, detail)


ALL_CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4,
                criterion_5, criterion_6, criterion_7, criterion_8, criterion_9)


def run_all() -> list:
    return [fn() for fn in ALL_CRITERIA]
