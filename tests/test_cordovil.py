import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

import arrgr.circuits as circuits_module
import arrgr.cordovil as cordovil_module
from arrgr.acceptance import (_in_graded_span, _oracle_ideal_span,
                              minimal_empty_flats_oracle,
                              straightening_oracle_check,
                              straightening_span_dims)
from arrgr.arrangement import boolean, braid, semiorder
from arrgr.circuits import (CircuitSet, SignedSet, _mask, broken_circuit_map,
                            circuits_from_arrangement, nbc_counts, nbc_sets,
                            ordering_ranks)
from arrgr.cordovil import (CordovilAlgebra, circuit_boundary,
                            cordovil_relation_families, leading_form_check,
                            minimal_empty_flat_subsets)
from arrgr.corpus import (parallel_pair, random_rational_arrangement,
                          single_hyperplane)
from arrgr.errors import ConsistencyError, InputError
from arrgr.linalg import SparseEchelon
from arrgr.polyring import Poly
from test_polyring import kill_squares_oracle


def test_circuit_boundary_braid3():
    X = SignedSet(frozenset({0, 2}), frozenset({1}))
    want = (Poly.monomial((1, 2)) - Poly.monomial((0, 2)) + Poly.monomial((0, 1)))
    assert circuit_boundary(X) == want
    # a negated circuit renormalizes to the same boundary
    assert circuit_boundary(X.negate()) == want


def test_circuit_boundary_two_element():
    X = SignedSet(frozenset({0}), frozenset({1}))
    assert circuit_boundary(X) == Poly.generator(1) - Poly.generator(0)


def test_circuit_boundary_ordering_changes_normalization():
    X = SignedSet(frozenset({0}), frozenset({1}))
    # under the ordering 1 < 0 the minimal element is 1, so signs flip
    assert circuit_boundary(X, ordering=(1, 0)) \
        == Poly.generator(0) - Poly.generator(1)


def test_circuit_boundary_refuses_an_ordering_that_misses_the_support():
    """The ground set is the ordering's own: a support element past it is
    the permutation `InputError`, not a `KeyError`, as is an ordering that
    is no permutation."""
    X = SignedSet(frozenset({0, 2}), frozenset({1}))
    for ordering in ((1, 0), (0, 2, 3)):
        with pytest.raises(InputError) as exc:
            circuit_boundary(X, ordering)
        assert str(exc.value) == "ordering must be a permutation of the ground indices"
    # a longer ordering is a larger ground set; here 1 leads, with sign -1
    assert circuit_boundary(X, (3, 1, 0, 2)) == -circuit_boundary(X)


def test_straighten_nbc_monomial_is_fixed():
    alg = CordovilAlgebra(braid(3))
    el = alg.straighten(Poly.monomial((0, 2)))
    assert el.coords == {frozenset({0, 2}): Fraction(1)}


def test_straighten_braid3_broken_circuit():
    alg = CordovilAlgebra(braid(3))
    el = alg.straighten(Poly.monomial((0, 1)))  # x12 * x13
    assert el.coords == {frozenset({0, 2}): Fraction(1),
                         frozenset({1, 2}): Fraction(-1)}


def test_straighten_empty_flat_monomial():
    alg = CordovilAlgebra(parallel_pair())
    assert alg.straighten(Poly.monomial((0, 1))).is_zero


def test_straighten_kills_squares():
    alg = CordovilAlgebra(braid(3))
    assert alg.straighten(Poly.monomial((0, 0))).is_zero


def test_multiply_unit_and_consistency():
    alg = CordovilAlgebra(braid(3))
    one = alg.one()
    a = alg.straighten(Poly.generator(0) + 2 * Poly.monomial((1, 2)))
    assert (one * a).coords == a.coords
    x12, x13 = alg.generator("12"), alg.generator("13")
    assert (x12 * x13).coords == alg.straighten(Poly.monomial((0, 1))).coords
    # repeated generators vanish
    assert (x12 * x12).is_zero


def test_algebra_input_errors():
    """The algebra takes only an arrangement or a circuit system, and an
    element only coordinates on NBC sets: on braid 3, {0, 1} is the broken
    circuit of its one circuit {0, 1, 2}."""
    with pytest.raises(InputError) as exc:
        CordovilAlgebra("x")
    assert str(exc.value) == "source must be an Arrangement or a CircuitSet"
    alg = CordovilAlgebra(braid(3))
    with pytest.raises(InputError) as exc:
        alg.element({frozenset({0, 1}): 1})
    assert str(exc.value) == "coordinates indexed by a non-NBC set"


@pytest.mark.parametrize("coords, message", [
    ({(0, 2): 1, (2, 0): 2}, "coordinate keys (0, 2) and (2, 0) name one basis set"),
    ({frozenset({0, 2}): 1, (2, 0): 0},
     "coordinate keys frozenset({0, 2}) and (2, 0) name one basis set"),
    ({(0,): 1, (0, 0): 2}, "coordinate key (0, 0) repeats an index"),
    ({0: 1}, "coordinate key 0 is not a set of indices"),
    ({(0, True): 1}, "coordinate key (0, True) is not a set of indices"),
], ids=["two-orders", "frozenset-and-tuple", "repeat", "int", "bool"])
def test_element_keys_name_distinct_sets_of_indices(coords, message):
    """A coordinate key other than a frozenset is read as a collection of
    indices: two keys naming one basis set, a repeated index or a key that
    is not a collection of ints is a one-line `InputError`, where the
    coefficients were overwritten, e_0^2 read as e_0, or a bare
    `TypeError` raised."""
    alg = CordovilAlgebra(braid(3))
    with pytest.raises(InputError) as info:
        alg.element(coords)
    assert str(info.value) == message
    assert alg.element({(2, 0): 1, (1,): "-1/2"}).coords \
        == {frozenset({0, 2}): Fraction(1), frozenset({1}): Fraction(-1, 2)}


def test_multiply_rejects_mixed_contexts():
    a = CordovilAlgebra(braid(3)).one()
    b = CordovilAlgebra(braid(4)).one()
    with pytest.raises(InputError):
        a.algebra.multiply(a, b)


@pytest.mark.parametrize("op", ["+", "-"], ids=["add", "sub"])
def test_add_and_sub_reject_mixed_contexts(op):
    """Two orderings of one arrangement, and two algebras of equal
    arrangements, are different contexts for + and - as for *; within
    one context both still work."""
    A = braid(3)
    pairs = [(CordovilAlgebra(A), CordovilAlgebra(A, (2, 1, 0))),
             (CordovilAlgebra(braid(3)), CordovilAlgebra(braid(3)))]
    apply = (lambda x, y: x + y) if op == "+" else (lambda x, y: x - y)
    for alg, other in pairs:
        a, b = alg.generator("12"), other.generator("12")
        with pytest.raises(InputError, match="different algebra contexts"):
            apply(a, b)
    a, b = alg.generator("12"), alg.generator("13")
    want = {frozenset({0}): Fraction(1), frozenset({1}): Fraction(1 if op == "+" else -1)}
    assert apply(a, b).coords == want
    assert apply(a, a).coords == ({frozenset({0}): Fraction(2)} if op == "+" else {})


@pytest.mark.parametrize("other", [1, Fraction(1, 2), "1", None, Poly.one()],
                         ids=["int", "fraction", "str", "none", "poly"])
@pytest.mark.parametrize("op", ["+", "-"], ids=["add", "sub"])
def test_add_and_sub_reject_non_elements(op, other):
    """Only an element of the same algebra adds to an element: a number or
    a polynomial is a one-line `InputError`, not a bare Python error."""
    one = CordovilAlgebra(braid(3)).one()
    with pytest.raises(InputError, match="only an algebra element") as info:
        one + other if op == "+" else one - other
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("scalar", ["x", None, [1], 0.5, True],
                         ids=["str", "none", "list", "float", "bool"])
def test_scaling_by_a_non_rational_is_an_input_error(scalar):
    alg = CordovilAlgebra(braid(3))
    x = alg.generator("12")
    for scale in (lambda: x * scalar, lambda: scalar * x):
        with pytest.raises(InputError) as info:
            scale()
        assert "\n" not in str(info.value)
    assert (x * "1/2").coords == {frozenset({0}): Fraction(1, 2)}
    assert ("-3" * x).coords == {frozenset({0}): Fraction(-3)}


def test_element_product_is_the_traced_multiply(monkeypatch):
    """`a * b` on elements goes through `CordovilAlgebra.multiply`, the
    layer a tracer patches by name."""
    calls = []
    multiply = CordovilAlgebra.multiply
    monkeypatch.setattr(CordovilAlgebra, "multiply",
                        lambda self, a, b: calls.append(1) or multiply(self, a, b))
    alg = CordovilAlgebra(braid(3))
    x12, x13 = alg.generator("12"), alg.generator("13")
    assert (x12 * x13).coords == alg.straighten(Poly.monomial((0, 1))).coords
    assert calls == [1]


def test_products_above_top_grade_vanish(corpus_map):
    rng = random.Random(99)
    for name in ("braid3", "semiorder2", "boolean3", "parallel"):
        A = corpus_map[name]
        alg = CordovilAlgebra(A)
        top = len(nbc_counts(A)) - 1
        for _ in range(20):
            k1 = rng.randint(1, max(1, top))
            k2 = top + 1 - k1
            m1 = rng.sample(range(A.n), min(A.n, k1))
            m2 = rng.sample(range(A.n), min(A.n, k2))
            a = alg.straighten(Poly.monomial(tuple(m1)))
            b = alg.straighten(Poly.monomial(tuple(m2)))
            if len(m1) + len(m2) > top:
                assert (a * b).is_zero


def test_hilbert_series_examples():
    assert CordovilAlgebra(braid(4)).hilbert_series() == (1, 6, 11, 6)
    assert CordovilAlgebra(single_hyperplane()).hilbert_series() == (1, 1)
    assert CordovilAlgebra(semiorder(3)).hilbert_series() == (1, 6, 12)


def test_relation_families():
    rels = cordovil_relation_families(parallel_pair())
    by_family = {}
    for r in rels:
        by_family.setdefault(r.family, []).append(r)
    assert [r.poly for r in by_family[2]] == [Poly.monomial((0, 1))]
    assert 3 not in by_family

    rels3 = [r for r in cordovil_relation_families(braid(3)) if r.family == 3]
    X = SignedSet(frozenset({0, 2}), frozenset({1}))
    assert [r.poly for r in rels3] == [circuit_boundary(X)]

    single = cordovil_relation_families(single_hyperplane())
    assert {r.family for r in single} == {1}

    # an empty flat's source is a frozenset, printed as its labels
    S = semiorder(3)
    rels2 = [r for r in cordovil_relation_families(S) if r.family == 2]
    assert rels2[3].pretty(S.labels) == "(2) [{12,13,23}]  e12*e13*e23"


def test_minimal_empty_flats_semiorder3():
    S = semiorder(3)
    got = minimal_empty_flat_subsets(S)
    # the three ij/ji pairs plus the two directed triangles
    lab = {frozenset(S.labels[i] for i in s) for s in got}
    assert {frozenset({"12", "21"}), frozenset({"13", "31"}),
            frozenset({"23", "32"})} <= lab
    assert frozenset({"12", "23", "31"}) in lab
    assert frozenset({"13", "32", "21"}) in lab


def test_minimal_empty_flats_match_flat_test_oracle(corpus_map):
    """The circuit scan's empty flats, against one flat test per support of
    every size."""
    for name, A in dict(corpus_map, semiorder4=semiorder(4)).items():
        assert minimal_empty_flat_subsets(A) == minimal_empty_flats_oracle(A), name


def test_leading_form_braid3_and_braid4():
    r3 = leading_form_check(braid(3))
    assert r3.ok and [s for _, s in r3.signs] == [1]
    r4 = leading_form_check(braid(4))
    assert r4.ok and len(r4.signs) == 7


def test_leading_form_records_negated_and_mismatched_boundaries(monkeypatch):
    """A leading form equal to minus the circuit boundary is recorded with
    sign -1, and one equal to neither sign is a mismatch."""
    A = braid(4)
    circuits = list(circuits_module.canonical_circuits(A))
    negated, wrong = circuits[0], circuits[1]

    def faulty(X, ordering=None):
        db = circuit_boundary(X, ordering)
        if X == negated:
            return -db
        return db + Poly.monomial((0,)) if X == wrong else db
    monkeypatch.setattr(cordovil_module, "circuit_boundary", faulty)
    report = leading_form_check(A)
    assert not report.ok
    assert report.mismatches == (wrong,)
    assert report.signs == tuple((X, -1 if X == negated else 1)
                                 for X in circuits if X != wrong)


def test_leading_form_two_element_circuit_by_hand():
    # e1(e2-1) - (e1-1)e2 has degree-1 part e2 - e1, the boundary of ({1},{2})
    e1, e2 = Poly.generator(0), Poly.generator(1)
    diff = e1 * (e2 - 1) - (e1 - 1) * e2
    X = SignedSet(frozenset({0}), frozenset({1}))
    assert diff.top_e_part() == circuit_boundary(X)


def test_straightening_matches_quotient_oracle(corpus_map):
    for name in ("parallel", "braid3", "semiorder2", "generic3", "boolean3"):
        assert straightening_oracle_check(corpus_map[name]) == [], name


def _vector(poly) -> dict:
    return {_mask(emon): c for (emon, _), c in poly.terms.items()}


def total_ideal_span_oracle(A) -> SparseEchelon:
    """Every monomial multiple of the graded relations (families 2 and 3)
    in the 2^n squarefree monomials, all grades in one echelon: the span
    that `_oracle_ideal_span` keeps as one echelon per grade."""
    ech = SparseEchelon()
    for r in cordovil_relation_families(A):
        if r.family == 1:
            continue
        gvec = _vector(r.poly)
        for mask in range(2**A.n):
            vec = {}
            for m, c in gvec.items():
                if not m & mask:  # x^2 = 0 kills overlapping products
                    vec[m | mask] = vec.get(m | mask, Fraction(0)) + c
            if vec:
                ech.add(vec)
    return ech


def test_graded_oracle_span_is_the_total_span(corpus_map):
    """On the corpus and braid 5 the total echelon's rank is the sum of the
    graded ranks, and each straightening difference lies in it iff each of
    its homogeneous parts lies in its grade's echelon (they all do).  One
    NBC monomial per grade, alone or added to a difference in another
    grade, is a non-relation for both; in braid 3's grades 0 and 1 there is
    no echelon at all."""
    cases = dict(corpus_map, braid5=braid(5))
    for name, A in cases.items():
        total = total_ideal_span_oracle(A)
        by_grade = _oracle_ideal_span(A)
        assert total.rank == sum(ech.rank for ech in by_grade.values()), name
        alg = CordovilAlgebra(A)
        diffs = {}
        for size in range(A.n + 1):
            for supp in combinations(range(A.n), size):
                mono = Poly.monomial(supp)
                diff = alg.straighten(mono).to_poly() - mono
                assert total.contains(_vector(diff)), (name, supp)
                assert _in_graded_span(by_grade, diff), (name, supp)
                if diff.terms:
                    diffs.setdefault(size, diff)
        for grade in range(len(nbc_counts(A))):
            planted = Poly.monomial(tuple(sorted(
                next(s for s in alg.nbc if len(s) == grade))))
            others = [d for k, d in diffs.items() if k != grade][:1]
            for poly in [planted] + [d + planted for d in others]:
                assert not total.contains(_vector(poly)), (name, grade)
                assert not _in_graded_span(by_grade, poly), (name, grade)
    assert sorted(_oracle_ideal_span(braid(3))) == [2, 3]


def test_one_term_straightening_goes_through_combine(monkeypatch):
    """A one-term polynomial is summed by `_combine`, as a sum of terms and
    a product are: 3/2 and -2 times e12 e13, a squared generator (zero,
    with no term to sum), and a factor u or a bad index, which raise as
    before.  Only a monomial above the rank skips `_combine`."""
    calls = []
    combine = CordovilAlgebra._combine
    monkeypatch.setattr(CordovilAlgebra, "_combine",
                        lambda self, terms: calls.append(1) or combine(self, terms))
    alg = CordovilAlgebra(braid(3))
    for c in (Fraction(3, 2), Fraction(-2)):
        el = alg.straighten(Poly.monomial((0, 1), coeff=c))
        assert el.coords == {frozenset({0, 2}): c, frozenset({1, 2}): -c}
        assert all(type(v) is Fraction for v in el.coords.values())
    assert alg.straighten(Poly.monomial((1, 1))).is_zero
    assert len(calls) == 3
    with pytest.raises(InputError) as info:
        alg.straighten(Poly.monomial((0,), uexp=1))
    assert str(info.value) == "cannot straighten a polynomial carrying u"
    with pytest.raises(InputError) as info:
        alg.straighten(Poly.monomial((0, 7)))
    assert str(info.value) == "form index 7 out of range"
    assert alg.straighten(Poly.monomial((0, 1, 2))).is_zero
    assert len(calls) == 3


def test_generators_and_monomials_refuse_indices_that_are_not_ints():
    """An index is a label or an int that is not a bool: `generator` refuses
    any other value with one line naming it, where 0.9 and 1.7 were
    truncated and True read as 1.  `straighten` refuses a value that equals
    no index the same way, below the rank, above it and inside a sum (an
    index set passes one subset test, so 1.0 or True, which equal the int
    1, are read as e_1 there)."""
    alg = CordovilAlgebra(braid(3))

    def refused(call, index):
        with pytest.raises(InputError) as info:
            call()
        assert str(info.value) == f"form index {index!r} is not an int or a label"

    for index in (0.9, 1.7, 1.0, Fraction(3, 2), True):
        refused(lambda: alg.generator(index), index)
    for index in (0.5, 0.9, 1.7, Fraction(3, 2)):
        for poly in (Poly.monomial((index,)), Poly.monomial((0, 2, index), coeff=2),
                     Poly.monomial((index,)) + Poly.generator(0)):
            refused(lambda: alg.straighten(poly), index)
    assert alg.generator(1) == alg.generator("13")


def test_straightening_on_raw_circuit_set():
    # the braid(3) circuit system handed over as an abstract oriented matroid
    C = CircuitSet(["12", "13", "23"],
                   [SignedSet(frozenset({0, 2}), frozenset({1})),
                    SignedSet(frozenset({1}), frozenset({0, 2}))])
    alg = CordovilAlgebra(C)
    assert alg.hilbert_series() == (1, 3, 2)
    el = alg.straighten(Poly.monomial((0, 1)))
    assert el.coords == {frozenset({0, 2}): Fraction(1),
                         frozenset({1, 2}): Fraction(-1)}


def test_bad_generators_and_monomials_are_input_errors():
    """A bad label or index is the caller's error, reported with
    `form_index`'s one-line message, on a raw circuit system as on an
    arrangement; a label names the same generator as its index."""
    C = circuits_from_arrangement(braid(3))
    for source in (CircuitSet(C.ground, C.circuits), braid(3)):
        alg = CordovilAlgebra(source)
        with pytest.raises(InputError, match=r"^form index 99 out of range$"):
            alg.generator(99)
        with pytest.raises(InputError, match=r"^no hyperplane labelled 'nope'$"):
            alg.generator("nope")
        with pytest.raises(InputError, match=r"^form index 7 out of range$"):
            alg.straighten(Poly.monomial((0, 7)))
        # above the top grade too, where the grade bound answers zero
        with pytest.raises(InputError, match=r"^form index 7 out of range$"):
            alg.straighten(Poly.monomial((0, 1, 2, 7)) + Poly.monomial((1,)))
        assert alg.generator("13") == alg.generator(1)


def test_straighten_answers_zero_above_the_rank_before_the_table():
    """A u-free one-term polynomial of more valid indices than the scan's
    rank is zero without a table entry; a repeated index there is zero as
    well; an out-of-range index or a factor u still raises as below the
    rank.  A raw circuit system has no rank and still recurses."""
    alg = CordovilAlgebra(braid(3))
    assert alg._top == 2
    alg._table.clear()
    assert alg.straighten(Poly.monomial((0, 1, 2))).is_zero
    assert alg.straighten(Poly.monomial((0, 1, 2), coeff=Fraction(-3, 4))).is_zero
    assert alg.straighten(Poly.monomial((0, 0, 1))).is_zero
    assert not alg._table
    with pytest.raises(InputError, match=r"^form index 7 out of range$"):
        alg.straighten(Poly.monomial((0, 1, 7)))
    with pytest.raises(InputError, match=r"^cannot straighten a polynomial carrying u$"):
        alg.straighten(Poly.monomial((0, 1, 2), uexp=1))
    assert not alg._table
    C = circuits_from_arrangement(braid(3))
    raw = CordovilAlgebra(CircuitSet(C.ground, C.circuits))
    assert raw.straighten(Poly.monomial((0, 1, 2))).is_zero
    assert frozenset({0, 1, 2}) in raw._table


def test_element_json():
    alg = CordovilAlgebra(braid(3))
    el = alg.straighten(Poly.monomial((0, 1)))
    assert el.to_json() == {"basis": [["12", "23"], ["13", "23"]],
                            "coeffs": ["1", "-1"]}


def test_multiplication_commutative_associative_random():
    rng = random.Random(31415)
    alg = CordovilAlgebra(braid(3))
    basis = list(alg.nbc)
    for _ in range(200):
        els = []
        for _ in range(3):
            coords = {b: Fraction(rng.randint(-2, 2))
                      for b in rng.sample(basis, 2)}
            els.append(alg.element(coords))
        a, b, c = els
        assert (a * b).coords == (b * a).coords
        assert ((a * b) * c).coords == (a * (b * c)).coords


class FractionStraightening:
    """The straightening and product of an algebra by the old linear scan,
    with Fraction arithmetic throughout and one memo per instance: the
    oracle for the shared integer table.  It reads only the algebra's
    source and ordering.  Its broken-circuit order is its own: the broken
    circuits sorted by the ascending tuple of their ranks, in descending
    order, the first one inside a monomial giving the rewrite.  It asks the
    source's flat test on every monomial and has no grade bound, so it
    recurses through the monomials above the top grade too."""

    def __init__(self, alg):
        self.source, ordering = alg.source, alg.ordering
        ranks = ordering_ranks(self.source.n, ordering)
        self.broken = broken_circuit_map(self.source, ordering)
        self.order = sorted(self.broken, reverse=True,
                            key=lambda b: tuple(sorted(ranks[i] for i in b)))
        self.nbc = nbc_sets(self.source, ordering)
        self.memo: dict = {}

    def monomial(self, mono: frozenset) -> dict:
        if mono in self.memo:
            return self.memo[mono]
        result: dict = {}
        if self.source.flat_nonempty(mono):
            broken = next((b for b in self.order if b <= mono), None)
            if broken is None:
                assert mono in self.nbc
                result = {mono: Fraction(1)}
            elif self.broken[broken][2] not in mono:
                _, phi, mx = self.broken[broken]
                for a in sorted(broken):
                    self.add_into(result, self.monomial(frozenset((mono - {a}) | {mx})),
                                  Fraction(-phi[a], phi[mx]))
        self.memo[mono] = result
        return result

    @staticmethod
    def add_into(coords: dict, terms: dict, scale) -> None:
        for basis, c in terms.items():
            val = coords.get(basis, Fraction(0)) + scale * c
            if val:
                coords[basis] = val
            else:
                coords.pop(basis, None)

    def straighten(self, poly) -> dict:
        coords: dict = {}
        for (emon, _), coeff in kill_squares_oracle(poly).terms.items():
            self.add_into(coords, self.monomial(frozenset(emon)), coeff)
        return coords

    def multiply(self, a, b) -> dict:
        coords: dict = {}
        for s, ca in a.coords.items():
            for t, cb in b.coords.items():
                if not s & t:
                    self.add_into(coords, self.monomial(s | t), ca * cb)
        return coords


_COEFFS = (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), Fraction(3), Fraction(-1))


def _random_poly(rng, n) -> Poly:
    """A few monomials of degree at most 3, squares allowed, with
    non-integer coefficients."""
    out = Poly.zero()
    for _ in range(rng.randint(1, 4)):
        mono = [rng.randrange(n) for _ in range(rng.randint(0, min(3, n)))]
        out = out + Poly.monomial(mono, coeff=rng.choice(_COEFFS))
    return out


def _oracle_cases(corpus_map):
    """(name, algebra, largest grade to straighten): the corpus, braid 5,
    semiorder 4 and boolean 7 in every grade; braid 6 up to two grades
    above its top grade; a raw circuit system, which has no grade bound;
    two reversed orderings; and random arrangements for seeds 1-9."""
    cases = [(name, CordovilAlgebra(A), A.n) for name, A in corpus_map.items()]
    for name, A in (("braid5", braid(5)), ("semiorder4", semiorder(4)),
                    ("boolean7", boolean(7))):
        cases.append((name, CordovilAlgebra(A), A.n))
    B6 = braid(6)
    cases.append(("braid6", CordovilAlgebra(B6), len(nbc_counts(B6)) + 1))
    C = circuits_from_arrangement(braid(5))
    cases.append(("raw braid5", CordovilAlgebra(CircuitSet(C.ground, C.circuits)), C.n))
    for name, A in (("braid5", braid(5)), ("semiorder4", semiorder(4))):
        cases.append((f"reversed {name}",
                      CordovilAlgebra(A, tuple(reversed(range(A.n)))), A.n))
    for seed in range(1, 10):
        A = random_rational_arrangement(seed=seed)
        cases.append((f"random seed {seed}", CordovilAlgebra(A), A.n))
    return cases


def test_integer_straightening_matches_fraction_oracle(corpus_map):
    """The straightening table holds plain ints and equals the old scan's
    Fraction arithmetic on every monomial up to a case's grade, and
    `straighten` and `multiply` equal it on 200 seeded products per case
    with coefficients 1/2, -2/3, 5/7, 3 and -1; the results' coefficients
    are nonzero Fractions.  Products whose pairs cancel over mixed
    denominators are zero.  Up to the top grade the rewrites are the old
    scan's: from an empty table, the table and the oracle's memo hold the
    same monomials after each one.  Above it an algebra with a scan rank
    answers 0 before the table, so its table holds exactly the oracle's
    monomials of size at most the top grade; a raw system's holds them
    all."""
    rng = random.Random(20261018)
    for name, alg, grades in _oracle_cases(corpus_map):
        n = alg.n
        oracle = FractionStraightening(alg)
        top = len(oracle.nbc[-1])
        alg._table.clear()
        for size in range(grades + 1):
            for supp in combinations(range(n), size):
                el = alg.straighten(Poly.monomial(supp))
                assert el.coords == oracle.monomial(frozenset(supp)), (name, supp)
                if size <= top:
                    assert len(alg._table) == len(oracle.memo), (name, supp)
        kept = {m for m in oracle.memo if alg._top is None or len(m) <= top}
        assert alg._table.keys() == kept, name
        assert all(type(c) is int for terms in alg._table.values() for c in terms.values())
        basis = list(alg.nbc)
        for _ in range(200):
            poly = _random_poly(rng, n)
            el = alg.straighten(poly)
            assert el.coords == oracle.straighten(poly), (name, poly)
            a, b = (alg.element({s: rng.choice(_COEFFS)
                                 for s in rng.sample(basis, min(3, len(basis)))})
                    for _ in range(2))
            prod = alg.multiply(a, b)
            assert prod.coords == oracle.multiply(a, b), name
            for c in (*el.coords.values(), *prod.coords.values()):
                assert type(c) is Fraction and c != 0, name
        # (p e_i + q e_j)(r e_i + s e_j) = (ps + qr) e_i e_j, zero for
        # s = -qr/p: the two pairs' terms cancel over their denominators
        singletons = [s for s in basis if len(s) == 1]
        for _ in range(20 if len(singletons) > 1 else 0):
            i, j = rng.sample(singletons, 2)
            p, q, r = (rng.choice(_COEFFS) for _ in range(3))
            a, b = alg.element({i: p, j: q}), alg.element({i: r, j: -q * r / p})
            assert alg.multiply(a, b).is_zero and not oracle.multiply(a, b), name
        other = CordovilAlgebra(alg.source, tuple(reversed(range(n))))
        with pytest.raises(InputError, match="different algebra contexts"):
            alg.multiply(alg.one(), other.one())


@pytest.mark.parametrize("fault", ["nbc", "rank"])
def test_nbc_top_grade_must_equal_the_scan_rank(monkeypatch, fault):
    """The grade bound skips the monomials above the scan's rank r, so
    construction certifies it: the NBC sets must reach grade r exactly.
    NBC growth that loses its top grade, or a scan rank one too high, is a
    `ConsistencyError`."""
    A = braid(4)
    if fault == "nbc":
        grow = circuits_module._grow_nbc
        monkeypatch.setattr(circuits_module, "_grow_nbc",
                            lambda source, ordering: tuple(
                                s for s in grow(source, ordering) if len(s) < 3))
    else:
        C = circuits_from_arrangement(A)
        monkeypatch.setattr(C, "_rank", C._rank + 1)
    with pytest.raises(ConsistencyError, match="NBC sets stop at grade"):
        CordovilAlgebra(A)


def test_straightening_span_dims_refuses_a_degree_change(monkeypatch):
    """A straightening keeps the degree; one that does not (here every
    monomial straightens to 1) raises in the span dimensions."""
    monkeypatch.setattr(CordovilAlgebra, "straighten", lambda self, poly: self.one())
    with pytest.raises(ConsistencyError) as exc:
        straightening_span_dims(braid(3))
    assert str(exc.value) == "straightening changed the degree"


def test_straightening_refuses_a_set_free_of_broken_circuits_outside_the_basis():
    """A monomial with no broken circuit and a nonempty flat is an NBC set;
    were the basis to miss one, straightening it raises rather than
    keeping a coordinate outside the basis."""
    alg = CordovilAlgebra(braid(3))
    alg._nbc_lookup.discard(frozenset({0, 2}))
    with pytest.raises(ConsistencyError) as exc:
        alg.straighten(Poly.monomial((0, 2)))
    assert str(exc.value) == "a monomial free of broken circuits is not an NBC set"


def test_straightening_table_is_shared_per_ordering():
    """Every algebra of one (source, ordering) pair shares one table, a
    reversed ordering gets its own, and the straightening oracle check
    after the span dimensions of criterion 3 straightens nothing anew."""
    A = braid(4)
    alg = CordovilAlgebra(A)
    assert CordovilAlgebra(A)._table is alg._table
    assert CordovilAlgebra(A, range(A.n))._table is alg._table
    reverse = CordovilAlgebra(A, tuple(reversed(range(A.n))))
    assert reverse._table is not alg._table
    straightening_span_dims(A)
    filled = len(alg._table)
    # every monomial up to the top grade; the ones above are answered 0
    # before the table
    assert filled == sum(comb(A.n, k) for k in range(alg._top + 1))
    assert straightening_oracle_check(A) == []
    assert len(alg._table) == filled
    assert not reverse._table

    C = circuits_from_arrangement(A)
    raw = CircuitSet(C.ground, C.circuits)
    raw_alg = CordovilAlgebra(raw)
    assert CordovilAlgebra(raw, range(raw.n))._table is raw_alg._table
    assert raw_alg._table is not alg._table
    assert CordovilAlgebra(raw, tuple(reversed(range(raw.n))))._table is not raw_alg._table
