import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

import arrgr.vgring
from arrgr.acceptance import exact_filtration_oracle, _chamber_keys
from arrgr.arrangement import (Arrangement, arrangement_from_json, boolean,
                               braid, cone, delete, restrict, semiorder)
from arrgr.circuits import (_mask, canonical_circuits, circuit_scan, nbc_counts,
                            nbc_sets)
from arrgr.cordovil import (CordovilAlgebra, LeadingFormReport,
                            circuit_boundary, leading_form_check)
from arrgr.corpus import (parallel_pair, random_rational_arrangement,
                          single_hyperplane)
from arrgr.errors import ConsistencyError, InputError, ResourceBoundError
from arrgr.linalg import SparseEchelon
from arrgr.polyring import Poly
from arrgr.rees import rees_relation_families, specialize
from arrgr.symmetry import coordinate_action, graded_character
from arrgr.vgring import (Relation, filtration_profile,
                          heaviside, monomial_eval, monomial_mask,
                          presentation_dimension, vg_relation_families,
                          verify_relations, _common_zeros,
                          _independent_mod_2, _nbc_dims, _relation_points)
from test_linalg import nbc_filtration, nbc_grades
from test_polyring import squarefree_reduce_oracle


def evaluate_on_chambers(A, poly):
    """Oracle: substitute the Heaviside functions into a u-free polynomial,
    one Fraction per chamber.  A term contributes on the chambers of its
    monomial's chamber mask; the coefficients are scaled once to integers
    over their common denominator."""
    if not poly.is_u_free:
        raise InputError("cannot evaluate a polynomial still carrying u")
    terms = poly.terms.items()
    den = lcm(*(coeff.denominator for _, coeff in terms))
    scaled = [(monomial_mask(A, emon), coeff.numerator * (den // coeff.denominator))
              for (emon, _), coeff in terms]
    totals = (sum(k for mask, k in scaled if mask >> c & 1)
              for c in range(len(A.chambers())))
    return tuple(Fraction(t, den) if t else Fraction(0) for t in totals)


def mask_vector_oracle(terms):
    """u-free terms {(monomial, 0): coefficient} modulo e_i^2 - e_i, as
    {subset bitmask: coefficient} with the zero sums dropped."""
    vec = {}
    for (emon, uexp), coeff in terms.items():
        assert not uexp, "a chamber-function relation carries u"
        mask = _mask(emon)
        vec[mask] = vec.get(mask, 0) + coeff
    return {m: c for m, c in vec.items() if c}


def nonzero_points_oracle(terms):
    """Oracle for `_relation_points`: (support, nonzero) of u-free terms
    modulo e_i^2 - e_i, the union of the term masks and the frozenset of
    the support's sub-masks t at which the function is nonzero.  The value
    at t is the sum of the coefficients of the terms inside t; all of them
    come from one zeta transform over the support bits."""
    vec = mask_vector_oracle(terms)
    support = 0
    for m in vec:
        support |= m
    points = [0]
    for i in range(support.bit_length()):
        if support >> i & 1:
            points += [t | 1 << i for t in points]
    values = [vec.get(t, 0) for t in points]
    step = 1
    while step < len(values):
        for k in range(len(values)):
            if k & step:
                values[k] += values[k ^ step]
        step <<= 1
    return support, frozenset(t for t, v in zip(points, values) if v)


def test_heaviside_point_in_a_line():
    A = single_hyperplane()
    assert heaviside(A, 0) == (Fraction(1), Fraction(0))


def test_heaviside_idempotent(corpus_map):
    for A in (corpus_map["braid3"], corpus_map["parallel"]):
        for i in range(A.n):
            h = heaviside(A, i)
            assert tuple(x * x for x in h) == h


def test_braid3_circuit_monomial_vanishes():
    # x12 * x23 * (1 - x13) is zero: its support pattern is infeasible
    A = braid(3)
    poly = (Poly.generator(0) * Poly.generator(2)
            * (Poly.one() - Poly.generator(1)))
    assert set(evaluate_on_chambers(A, poly)) == {0}


def test_monomial_eval():
    A = parallel_pair()
    assert monomial_eval(A, ()) == (1, 1, 1)
    # both heavisides positive only on the chamber x > 1, which is "++"
    assert monomial_eval(A, (0, 1)) == (1, 0, 0)
    B = braid(3)
    assert sum(monomial_eval(B, (0, 1, 2))) == 1


def test_powers_do_not_enlarge_the_span():
    A = braid(3)
    assert evaluate_on_chambers(A, Poly.monomial((1, 1))) == heaviside(A, 1)


def test_filtration_point_in_a_line():
    p = filtration_profile(single_hyperplane())
    assert p.dims == (1, 2)
    assert p.gr_dims == (1, 1)


def test_filtration_matches_nbc(corpus_map):
    for name, A in corpus_map.items():
        gr = filtration_profile(A).gr_dims
        counts = nbc_counts(A)
        assert gr[: len(counts)] == counts, name
        assert all(g == 0 for g in gr[len(counts):]), name


def fraction_tuple_filtration(A, reverse):
    """Oracle: every monomial's Fraction tuple, keyed by chamber index,
    inserted grade by grade with no early stop.  Returns (dims, pivot
    subsets per grade)."""
    ech = SparseEchelon()
    dims, bases = [], []
    for k in range(A.n + 1):
        subsets = list(combinations(range(A.n), k))
        if reverse:
            subsets.reverse()
        bases.append([frozenset(s) for s in subsets
                      if ech.add(dict(enumerate(monomial_eval(A, s))))])
        dims.append(ech.rank)
    return tuple(dims), bases


def test_filtration_stops_inserting_at_full_rank(monkeypatch):
    """The exact echelon `exact_filtration_oracle`: braid 5 reaches full
    rank inside grade 4; no monomial is inserted after that, and dims and
    bases equal those of inserting every one."""
    A = braid(5)
    nch = len(A.chambers())
    ranks_at_add = []
    add = SparseEchelon.add

    def counted_add(self, vec):
        ranks_at_add.append(self.rank)
        return add(self, vec)

    monkeypatch.setattr(SparseEchelon, "add", counted_add)
    dims, bases = exact_filtration_oracle(A)
    monkeypatch.undo()
    assert ranks_at_add and max(ranks_at_add) < nch
    want_dims, want_bases = fraction_tuple_filtration(A, True)
    assert dims == want_dims
    assert bases == want_bases
    assert all(type(s) is frozenset for grade in bases for s in grade)


@pytest.mark.parametrize("name", ("semiorder4", "boolean7"))
def test_plus_count_keys_match_fraction_tuple_oracle(name):
    """The exact echelon (`exact_filtration_oracle`), keyed by chamber
    plus-count, accepts the same monomials as the Fraction-tuple echelon
    keyed by chamber index."""
    A = semiorder(4) if name == "semiorder4" else boolean(7)
    dims, bases = exact_filtration_oracle(A)
    want_dims, want_bases = fraction_tuple_filtration(A, True)
    assert dims == want_dims
    assert bases == want_bases


def test_chamber_keys_order_by_plus_count(corpus_map):
    """The keys of the exact echelon (`exact_filtration_oracle`) rank the
    chambers by number of '+' signs, then by chamber index: a chamber that
    many monomials hold gets a late key."""
    for name, A in corpus_map.items():
        keys = _chamber_keys(A)
        by_key = sorted(range(len(keys)), key=keys.__getitem__)
        assert sorted(keys) == list(range(len(keys))), name
        assert by_key == sorted(by_key, key=lambda c: (A.chambers()[c].count("+"), c)), name


def test_filtration_basis_is_nbc(corpus_map):
    """The paper's basis statement: scanning each grade backwards picks the
    NBC monomials, and scanning forwards (the Fraction oracle) picks the
    NBC monomials of the reversed hyperplane ordering."""
    cases = dict(corpus_map, braid5=braid(5),
                 random_seed1=random_rational_arrangement(seed=1))
    for name, A in cases.items():
        assert exact_filtration_oracle(A) == nbc_filtration(A), name
        _, forward = fraction_tuple_filtration(A, False)
        assert forward == nbc_grades(A, tuple(reversed(range(A.n)))), name


def test_certified_filtration_matches_the_exact_echelon(corpus_map):
    """On every input the NBC certificate holds, and the dims and bases it
    gives equal those of the exact all-monomial echelon; so do the
    `filtration_profile` dims."""
    cases = dict(corpus_map, braid5=braid(5), semiorder4=semiorder(4),
                 boolean7=boolean(7),
                 random_seed1=random_rational_arrangement(seed=1))
    for name, A in cases.items():
        want = exact_filtration_oracle(A)
        assert _nbc_dims(A) == want[0], name
        assert nbc_filtration(A) == want, name


def test_one_filtration_per_arrangement():
    """The characters, the profile, the NBC counts, the Cordovil algebra,
    the relations and the presentation counts read one basis and one set of
    relations: the arrangement caches one filtration, one tope value, the
    two relation families and the canonical circuits, broken circuits and
    NBC sets of one ordering, and no other named table."""
    for A in (braid(4), semiorder(3)):
        graded_character(A, coordinate_action(A))
        filtration_profile(A)
        nbc_counts(A)
        CordovilAlgebra(A)
        verify_relations(A)
        vg_relation_families(A)
        rees_relation_families(A)
        presentation_dimension(A, (1, 2))
        presentation_dimension(A, (1, 3))
        keys = [k for k in A._cache if isinstance(k, tuple)]
        for table in ("nbc", "canonical", "broken"):
            assert [k for k in keys if k[0] == table] == [(table, tuple(range(A.n)))]
        assert sorted(k for k in A._cache if isinstance(k, str)) == sorted((
            "chambers", "min_infeasible", "circuits", "topes", "filtration",
            "rees_relations", "vg_relations"))


def test_certified_dims_match_the_exact_echelon_at_braid6():
    A = braid(6)
    assert filtration_profile(A).dims == exact_filtration_oracle(A)[0]


RELATION_NONZERO = ("NBC certificate failed: a circuit or empty-flat "
                    "relation is nonzero on the chambers")
DEPENDENT_MOD_2 = "NBC certificate failed: the NBC columns are dependent mod 2"


def assert_certificate_raises(A, message):
    """`filtration_profile`, `verify_relations` and `graded_character` each
    raise `ConsistencyError` with exactly `message`."""
    group = coordinate_action(A)
    for call in (lambda: filtration_profile(A), lambda: verify_relations(A),
                 lambda: graded_character(A, group)):
        with pytest.raises(ConsistencyError) as exc:
            call()
        assert str(exc.value) == message
    assert "filtration" not in A._cache


def test_filtration_raises_when_a_relation_is_nonzero(monkeypatch):
    """A certificate relation forced nonzero on the chambers breaks the
    upper bound: the filtration, its profile and the characters raise,
    while the exact echelon still gives the true answer.  braid 4 loses a
    circuit's family-(3) relation, semiorder 3 (no circuit) an empty
    flat's family-(2) relation."""
    for make in (lambda: braid(4), lambda: semiorder(3)):
        want = nbc_filtration(make())
        B = make()
        first = ([(3, X) for X in canonical_circuits(B)]
                 + [(2, X) for X in circuit_scan(B)[1]])[0]
        points = arrgr.vgring._relation_points

        def forced(family, source):
            if (family, source) == first:
                return 0, frozenset({0})  # a nonzero constant
            return points(family, source)

        monkeypatch.setattr(arrgr.vgring, "_relation_points", forced)
        assert_certificate_raises(B, RELATION_NONZERO)
        assert exact_filtration_oracle(B) == want
        monkeypatch.undo()


def test_filtration_raises_when_the_lower_bound_fails(monkeypatch):
    """With one chamber dropped the relations still vanish, but the NBC
    columns outnumber the chambers, so they are dependent over GF(2) and
    the filtration, its profile and the characters raise; the exact
    echelon still answers, with the chamber count as its top dimension."""
    for make, want in ((lambda: braid(4), (1, 7, 18, 23, 23, 23, 23)),
                       (lambda: semiorder(3), (1, 7, 18, 18, 18, 18, 18)),
                       (lambda: boolean(3), (1, 4, 7, 7))):
        A = make()
        A._cache["chambers"] = make().chambers()[1:]
        assert_certificate_raises(A, DEPENDENT_MOD_2)
        dims, _ = exact_filtration_oracle(A)
        assert dims == want
        assert dims[-1] == len(A.chambers()) < sum(nbc_counts(A))
    # a GF(2) dependence the bounds cannot see: forced, same exact answer
    A = braid(4)
    want = exact_filtration_oracle(A)
    monkeypatch.setattr(arrgr.vgring, "_independent_mod_2", lambda A, sets: False)
    assert_certificate_raises(A, DEPENDENT_MOD_2)
    monkeypatch.undo()
    assert nbc_filtration(A) == want


def test_independent_mod_2_reads_the_monomial_columns():
    """Independence of the chamber columns over GF(2): the NBC monomials
    are independent; a repeated monomial, or one more column than there
    are chambers, is not."""
    A = braid(4)
    sets = nbc_sets(A)
    assert _independent_mod_2(A, sets)
    assert not _independent_mod_2(A, sets + (frozenset({0, 1, 2}),))
    assert not _independent_mod_2(A, (frozenset(), frozenset({0}), frozenset({0})))
    B = boolean(2)
    assert _independent_mod_2(B, [frozenset(), frozenset({0}), frozenset({1})])
    assert _independent_mod_2(B, nbc_sets(B))


def test_graded_character_runs_no_minimal_infeasible_scan(monkeypatch):
    """The certificate reads circuits and empty flats from the circuit
    scan: a graded character on semiorder 3 (which has empty flats) never
    asks for the minimal infeasible sets."""
    A = semiorder(3)
    calls = []
    monkeypatch.setattr(Arrangement, "minimal_infeasible_sign_sets",
                        lambda self: calls.append(1))
    graded_character(A, coordinate_action(A))
    assert calls == []


def test_vg_families_point_in_a_line():
    rels = vg_relation_families(single_hyperplane())
    assert [r.family for r in rels] == [1]
    assert rels[0].poly == Poly.monomial((0, 0)) - Poly.generator(0)


def test_vg_family2_parallel_pair():
    rels = [r for r in vg_relation_families(parallel_pair()) if r.family == 2]
    assert len(rels) == 1
    want = Poly.generator(1) * (Poly.generator(0) - 1)
    assert rels[0].poly == want


def test_vg_family3_braid3():
    rels = [r for r in vg_relation_families(braid(3)) if r.family == 3]
    assert len(rels) == 1
    e12, e13, e23 = (Poly.generator(i) for i in range(3))
    want = e12 * e23 * (e13 - 1) - (e12 - 1) * (e23 - 1) * e13
    assert rels[0].poly == want


def test_verify_relations(corpus_map):
    for name in ("braid4", "semiorder3", "random8"):
        assert verify_relations(corpus_map[name]).ok, name
    assert verify_relations(corpus_map["braid4"]).span_dim == 24
    assert verify_relations(corpus_map["semiorder3"]).span_dim == 19


@pytest.mark.parametrize("make", [lambda: braid(4), lambda: semiorder(3),
                                  lambda: random_rational_arrangement()],
                         ids=["braid4", "semiorder3", "random8"])
def test_verify_relations_reads_the_certificate(monkeypatch, make):
    """Once the filtration is certified, `verify_relations` evaluates no
    relation on the chambers."""
    A = make()
    filtration_profile(A)
    calls = []
    scan = arrgr.vgring._nonzero_at
    monkeypatch.setattr(arrgr.vgring, "_nonzero_at",
                        lambda *args: calls.append(1) or scan(*args))
    check = verify_relations(A)
    assert calls == []
    assert check == arrgr.vgring.RelationCheck(True, len(A.chambers()),
                                               len(A.chambers()))


def points_of_every_relation(A):
    """`_relation_points` of every relation, in the order of
    `_relation_sources` (which `rees_relation_families` and
    `vg_relation_families` keep)."""
    return tuple(_relation_points(*rel) for rel in arrgr.vgring._relation_sources(A))


def certificate_pairs(A):
    """The (support, nonzero point) pairs of the relations `_nbc_dims`
    checks: every canonical circuit's family-(3) relation and every
    minimal empty flat's family-(2) relation."""
    rels = ([(3, X) for X in canonical_circuits(A)]
            + [(2, X) for X in circuit_scan(A)[1]])
    return {(support, t) for support, points
            in (arrgr.vgring._relation_points(*rel) for rel in rels) for t in points}


def test_certificate_covers_every_relation(corpus_map):
    """The family-(2)/(3) relations of `_relation_sources` have, together,
    exactly the certificate's (support, nonzero point) pairs, so they vanish
    on the chambers iff the certificate's do: what lets `verify_relations`
    read the certificate instead of evaluating them."""
    cases = dict(corpus_map, braid5=braid(5), semiorder4=semiorder(4),
                 boolean5=boolean(5))
    cases.update((f"random{k}", random_rational_arrangement(seed=k))
                 for k in range(1, 40))
    cases.update((f"cone_random{k}", cone(random_rational_arrangement(seed=k)))
                 for k in range(1, 10))
    for name, A in cases.items():
        pairs = {(support, t) for (family, _), (support, points)
                 in zip(arrgr.vgring._relation_sources(A), points_of_every_relation(A))
                 if family != 1 for t in points}
        assert pairs == certificate_pairs(A), name


def empty_flat_difference(S):
    """The family-3 difference of products built from a parallel-type
    (empty-flat) signed set of S, which is NOT a relation."""
    X = next(X for X in S.minimal_infeasible_sign_sets()
             if not S.flat_nonempty(X.support))
    return circuit_difference_oracle(X, Poly.one())


def test_family3_needs_the_flat_condition():
    # negative control: the difference of products needs a nonempty flat
    S = semiorder(3)
    values = evaluate_on_chambers(S, empty_flat_difference(S))
    assert any(v != 0 for v in values)


def nonzero_chambers_oracle(A, poly):
    """The chamber indices at which the `evaluate_on_chambers` scan is
    nonzero."""
    return [c for c, v in enumerate(evaluate_on_chambers(A, poly)) if v]


def nonzero_chambers(A, points):
    """The chamber indices whose plus-mask, restricted to the support, is a
    nonzero point of a relation's (support, nonzero) sets."""
    support, nonzero = points
    return [c for c, p in enumerate(arrgr.vgring._topes(A).plus)
            if p & support in nonzero]


def test_verify_relations_matches_chamber_scan_oracle(corpus_map):
    """Every chamber at which a relation is nonzero, read from its zero set,
    is one where the full chamber scan is nonzero, and conversely; on a
    correct arrangement there is none, as `verify_relations` reports."""
    cases = dict(corpus_map, braid5=braid(5), semiorder4=semiorder(4))
    for name, A in cases.items():
        for rel, points in zip(vg_relation_families(A), points_of_every_relation(A)):
            want = nonzero_chambers_oracle(A, rel.poly)
            assert nonzero_chambers(A, points) == want == [], (name, rel)
        assert verify_relations(A).ok, name
    S = semiorder(3)
    bogus = empty_flat_difference(S)
    want = nonzero_chambers_oracle(S, bogus)
    assert want
    assert nonzero_chambers(S, nonzero_points_oracle(bogus.terms)) == want
    # single terms, and polynomials that are zero modulo the squares
    e = Poly.generator
    for poly in [e(i) for i in range(S.n)] + [e(0) * e(4), Poly.zero(),
                                              e(2) * e(2) - e(2)]:
        got = nonzero_chambers(S, nonzero_points_oracle(poly.terms))
        assert got == nonzero_chambers_oracle(S, poly), poly


def test_relation_masks_match_the_vg_polynomials(corpus_map):
    """The (support, nonzero) masks read off in closed form equal those the
    zeta transform gives for the `vg_relation_families` polynomials; also
    on a circuit that is all '+' (one of its points is 0) and a minimal
    infeasible set with no '+', which no corpus member has."""
    x, y = (1, 0), (0, 1)
    all_plus = Arrangement(2, [(x, 0), (y, 0), ((-1, -1), 0)])
    no_plus = Arrangement(1, [((1,), 0), ((-1,), 1)])
    assert [(X.plus, X.minus) for X in canonical_circuits(all_plus)] \
        == [(frozenset({0, 1, 2}), frozenset())]
    assert [(X.plus, X.minus) for X in no_plus.minimal_infeasible_sign_sets()] \
        == [(frozenset(), frozenset({0, 1}))]
    cases = dict(corpus_map, braid5=braid(5), braid6=braid(6),
                 semiorder4=semiorder(4), all_plus=all_plus, no_plus=no_plus,
                 **{f"random{k}": random_rational_arrangement(seed=k)
                    for k in range(1, 5)})
    for name, A in cases.items():
        want = tuple(nonzero_points_oracle(rel.poly.terms)
                     for rel in vg_relation_families(A))
        assert points_of_every_relation(A) == want, name
    assert (0b111, frozenset({0b111, 0})) in points_of_every_relation(all_plus)
    assert (0b11, frozenset({0})) in points_of_every_relation(no_plus)
    for A, chambers in ((all_plus, 6), (no_plus, 3)):
        assert len(A.chambers()) == chambers
        assert verify_relations(A).ok
        assert presentation_dimension(A) == chambers


def value_at_oracle(vec, t):
    """The value of a {subset bitmask: coefficient} function at the point t
    of the Boolean cube: the sum of the coefficients of the terms inside t."""
    return sum(c for m, c in vec.items() if m & t == m)


def test_zeta_transform_matches_direct_evaluation():
    """`nonzero_points_oracle` reads every value off one zeta transform; each
    equals the direct sum over the terms inside the point, for integer and
    Fraction coefficients, squares, constants and cancellation."""
    rng = random.Random(2023)
    dicts = [{}, {((), 0): 3}, {((), 0): Fraction(-1, 2), ((1, 1), 0): Fraction(1, 2)},
             {((2, 2), 0): 1, ((2,), 0): -1}]
    for k in range(200):
        terms = {}
        for _ in range(rng.randint(0, 6)):
            emon = tuple(sorted(rng.choices(range(7), k=rng.randint(0, 4))))
            coeff = rng.randint(-3, 3)
            terms[(emon, 0)] = coeff if k % 2 else Fraction(coeff, rng.randint(1, 4))
        dicts.append(terms)
    seen = set()
    for terms in dicts:
        vec = mask_vector_oracle(terms)
        support = 0
        for m in vec:
            support |= m
        got_support, nonzero = nonzero_points_oracle(terms)
        assert got_support == support, terms
        assert all(t & support == t for t in nonzero), terms
        for s in range(2**7):
            assert (s & support in nonzero) == (value_at_oracle(vec, s) != 0), (terms, s)
        seen.add((bool(support), bool(nonzero)))
    assert nonzero_points_oracle({}) == (0, frozenset())
    assert nonzero_points_oracle({((), 0): 3}) == (0, frozenset({0}))
    assert nonzero_points_oracle({((2, 2), 0): 1, ((2,), 0): -1}) == (0, frozenset())
    assert seen == {(False, False), (False, True), (True, True)}


def evaluate_on_chambers_oracle(A, poly):
    """Fraction sums over the terms whose indices are all '+' in a chamber's
    sign string: the arithmetic the bitmask evaluation is checked against."""
    out = []
    for c in A.chambers():
        total = Fraction(0)
        for (emon, _), coeff in poly.terms.items():
            if all(c[i] == "+" for i in emon):
                total += coeff
        out.append(total)
    return tuple(out)


def test_evaluate_on_chambers_matches_string_scan_oracle(corpus_map):
    rng = random.Random(4711)
    nonzero = 0
    for name, A in corpus_map.items():
        polys = [rel.poly for rel in vg_relation_families(A)]
        for _ in range(20):  # squares, non-unit denominators, cancellation
            terms = {}
            for _ in range(rng.randint(0, 4)):
                emon = tuple(sorted(rng.choices(range(A.n), k=rng.randint(0, 3))))
                terms[(emon, 0)] = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
            polys.append(Poly(terms))
        for poly in polys:
            got = evaluate_on_chambers(A, poly)
            assert got == evaluate_on_chambers_oracle(A, poly), (name, poly)
            assert all(type(v) is Fraction for v in got)
            nonzero += any(got)
    assert nonzero >= 100


def test_presentation_dimension_examples():
    assert presentation_dimension(single_hyperplane()) == 2
    assert presentation_dimension(braid(3)) == 6
    assert presentation_dimension(semiorder(3)) == 19


def test_presentation_dimension_equals_chambers(corpus_map):
    for name, A in corpus_map.items():
        assert presentation_dimension(A) == len(A.chambers()), name
        if A.central:
            assert presentation_dimension(A, families=(1, 3)) \
                == len(A.chambers()), name


def test_presentation_dimension_respects_bound():
    with pytest.raises(ResourceBoundError):
        presentation_dimension(braid(4), nmax=3)


def test_presentation_dimension_validates_families():
    """`families` is a collection drawn from 1, 2, 3; anything else is a
    one-line `InputError`, even where no family-(2)/(3) relation exists."""
    for A in (braid(3), boolean(3)):
        for bad in ("12", None, 2, (1, 4), (1, "2"), [[1]], (0,)):
            with pytest.raises(InputError) as info:
                presentation_dimension(A, families=bad)
            assert "\n" not in str(info.value), bad
    assert presentation_dimension(boolean(3), families=[1, 2]) == 8
    assert presentation_dimension(braid(3), families=iter((1, 3))) == 6
    assert presentation_dimension(braid(3), families=(2,)) == 6
    assert presentation_dimension(braid(3), families=()) == 8


def full_multiples_rank(A, families):
    """Oracle: multiply every relation by every squarefree monomial and
    take the rank of the products in the 2^n-dimensional squarefree-monomial
    space; the quotient's dimension is 2^n minus this rank."""
    ech = SparseEchelon()
    for rel in vg_relation_families(A):
        if rel.family == 1 or rel.family not in families:
            continue
        vec = mask_vector_oracle(squarefree_reduce_oracle(rel.poly).terms)
        for mask in range(2**A.n):
            prod = {}
            for m, c in vec.items():
                key = m | mask
                prod[key] = prod.get(key, Fraction(0)) + c
            ech.add({k: v for k, v in prod.items() if v})
    return ech.rank


def test_presentation_dimension_matches_full_multiples(corpus_map):
    """The common-zero count equals the corank of every monomial multiple
    of every relation, for each choice of families, on the whole corpus."""
    for name, A in corpus_map.items():
        assert A.n <= 8, name
        for families in ((1, 2), (1, 3), (1, 2, 3)):
            want = 2**A.n - full_multiples_rank(A, families)
            assert presentation_dimension(A, families=families) == want, \
                (name, families)


def plus_masks_oracle(A) -> tuple:
    """Per chamber, the bitmask of its '+' signs, one sign at a time."""
    return tuple(sum(1 << i for i, sign in enumerate(signs) if sign == "+")
                 for signs in A.chambers())


def heaviside_masks_oracle(A) -> tuple:
    """Per hyperplane, the bitmask of the chambers on its '+' side, one
    chamber at a time."""
    return tuple(sum(1 << c for c, signs in enumerate(A.chambers()) if signs[i] == "+")
                 for i in range(A.n))


def test_topes_match_the_per_sign_oracles(corpus_map):
    """One binary read of each reversed sign string gives the per-sign
    loop's plus-masks, and one of each transposed column the per-chamber
    loop's Heaviside masks, in the chamber order; the index inverts the
    plus-masks and `full` holds every chamber.  The one empty chamber of
    an arrangement with no hyperplane has mask 0 and no Heaviside mask."""
    cases = dict(corpus_map, braid5=braid(5), semiorder4=semiorder(4),
                 empty=arrangement_from_json({"dim": 0, "forms": []}))
    for name, A in cases.items():
        topes = arrgr.vgring._topes(A)
        assert topes.plus == plus_masks_oracle(A), name
        assert topes.heaviside == heaviside_masks_oracle(A), name
        assert all(topes.index[m] == c for c, m in enumerate(topes.plus)), name
        assert len(topes.index) == len(A.chambers()), name
        assert topes.full == (1 << len(A.chambers())) - 1, name
    empty = arrgr.vgring._topes(cases["empty"])
    assert (empty.plus, empty.heaviside, empty.full) == ((0,), (), 1)


def common_zeros_cube_oracle(A, families):
    """The subsets s of the hyperplanes, as bitmasks in increasing order, at
    which every selected family-(2)/(3) relation of `vg_relation_families`
    vanishes: each relation is summed directly at every sub-mask of its
    support, and the whole 2^n cube is filtered once per relation."""
    zeros = range(2**A.n)
    for rel in vg_relation_families(A):
        if rel.family == 1 or rel.family not in families:
            continue
        vec = mask_vector_oracle(rel.poly.terms)
        support = 0
        for m in vec:
            support |= m
        points = [0]
        for i in range(A.n):
            if support >> i & 1:
                points += [t | 1 << i for t in points]
        nonzero = {t for t in points if value_at_oracle(vec, t)}
        zeros = [s for s in zeros if s & support not in nonzero]
    return list(zeros)


def common_zeros_growth_oracle(A, families):
    """The zero sets grown as a point list: at bit d every point is doubled
    and each is tested against every selected relation whose support has
    largest bit d, one restriction and set lookup per point and relation."""
    by_top = [[] for _ in range(A.n)]
    for family, source in arrgr.vgring._relation_sources(A):
        support, nonzero = arrgr.vgring._relation_points(family, source)
        if family not in families or not nonzero:
            continue
        if not support:
            return []
        by_top[support.bit_length() - 1].append((support, nonzero))
    points = [0]
    for d, rels in enumerate(by_top):
        points += [p | 1 << d for p in points]
        if rels:
            points = [p for p in points
                      if not any(p & support in nonzero for support, nonzero in rels)]
    return points


def test_common_zeros_match_cube_oracle(corpus_map):
    """The zeros grown hyperplane by hyperplane equal the cube's, in order,
    for every choice of families."""
    cases = dict(corpus_map, braid5=braid(5), semiorder4=semiorder(4),
                 cone_random8=cone(random_rational_arrangement()))
    cases.update((f"random{k}", random_rational_arrangement(seed=k))
                 for k in range(1, 9))
    for name, A in cases.items():
        for families in ((1,), (1, 2), (1, 3), (1, 2, 3)):
            want = common_zeros_cube_oracle(A, families)
            assert _common_zeros(A, families) == want, (name, families)
            assert common_zeros_growth_oracle(A, families) == want, (name, families)


def test_common_zeros_kill_every_point_on_a_nonzero_constant(monkeypatch):
    """A relation whose u = 1 form is a nonzero constant has no zero: the
    grown point set is empty, as on the cube.  So is one on the first
    hyperplane that is nonzero at both of its points: the growth stops
    there, before the later hyperplanes."""
    A = braid(3)
    assert rees_relation_families(A)[-1].family == 3
    points = arrgr.vgring._relation_points

    def constant(family, source):
        return (0, frozenset({0})) if family == 3 else points(family, source)

    monkeypatch.setattr(arrgr.vgring, "_relation_points", constant)
    for zeros in (_common_zeros, common_zeros_growth_oracle):
        assert zeros(A, (1, 3)) == []
        assert zeros(A, (1, 2)) == sorted(plus_masks_oracle(A))
    monkeypatch.setattr(arrgr.vgring, "_relation_points",
                        lambda family, source: (0b1, frozenset({0, 1})))
    for zeros in (_common_zeros, common_zeros_growth_oracle):
        assert zeros(A, (1, 3)) == []
    # with no hyperplane there is no last one to attach the constant to
    E = Arrangement(2, [])
    assert _common_zeros(E, (1, 2)) == common_zeros_growth_oracle(E, (1, 2)) == [0]
    monkeypatch.setattr(arrgr.vgring, "_relation_sources",
                        lambda A: [(2, frozenset())])
    monkeypatch.setattr(arrgr.vgring, "_relation_points",
                        lambda family, source: (0, frozenset({0})))
    assert _common_zeros(E, (1, 2)) == common_zeros_growth_oracle(E, (1, 2)) == []


@pytest.mark.parametrize("make", [lambda: braid(4), lambda: semiorder(3),
                                  lambda: random_rational_arrangement()],
                         ids=["braid4", "semiorder3", "random8"])
def test_zero_sets_expand_no_polynomial(monkeypatch, make):
    """`verify_relations` and `presentation_dimension` read each relation's
    family and source only: on a fresh arrangement neither expands a
    relation.  The u-families list the same (family, source) pairs in the
    same order."""
    A = make()

    def refused(*args):
        raise AssertionError("a zero set expanded a polynomial")

    monkeypatch.setattr(arrgr.vgring, "_expand_masks", refused)
    monkeypatch.setattr(arrgr.vgring, "_u_relation", refused)
    assert verify_relations(A).ok
    assert presentation_dimension(A) == presentation_dimension(A, (1, 2, 3)) \
        == len(A.chambers())
    monkeypatch.undo()
    assert [(r.family, r.source) for r in rees_relation_families(A)] \
        == arrgr.vgring._relation_sources(A)


def test_presentation_zero_set_is_the_chambers(corpus_map):
    """The relations' common zeros on the Boolean cube are exactly the
    chambers' plus-sets; for a central arrangement families (1) and (3)
    alone cut out the same set."""
    cases = dict(corpus_map, braid5=braid(5), semiorder4=semiorder(4))
    cases.update((f"random_seed{k}", random_rational_arrangement(seed=k))
                 for k in range(1, 5))
    for name, A in cases.items():
        zeros = _common_zeros(A, (1, 2))
        assert zeros == sorted(set(zeros)), name
        assert set(zeros) == set(plus_masks_oracle(A)), name
        if A.central:
            assert set(_common_zeros(A, (1, 3))) == set(plus_masks_oracle(A)), name


def test_braid6_zeros_are_the_chambers():
    """Past the default bound: braid 6's (1,2) zeros are its 720 chambers'
    plus-masks, and the count needs `nmax` raised to 15."""
    A = braid(6)
    assert _common_zeros(A, (1, 2)) == sorted(plus_masks_oracle(A))
    assert len(A.chambers()) == 720
    assert presentation_dimension(A, nmax=15) == 720
    with pytest.raises(ResourceBoundError):
        presentation_dimension(A)


# -- the relation families in closed form ------------------------------------


def product_poly_oracle(plus, minus, shift):
    """prod_{i in plus} e_i * prod_{j in minus} (e_j - shift) by repeated
    `Poly` products over Fractions."""
    out = Poly.one()
    for i in sorted(plus):
        out = out * Poly.generator(i)
    for j in sorted(minus):
        out = out * (Poly.generator(j) - shift)
    return out


def circuit_difference_oracle(X, shift):
    return (product_poly_oracle(X.plus, X.minus, shift)
            - product_poly_oracle(X.minus, X.plus, shift))


def divide_u_oracle(poly):
    assert all(u >= 1 for (_, u) in poly.terms)
    return Poly({(m, u - 1): c for (m, u), c in poly.terms.items()})


def substitute_u_oracle(poly, value):
    """The general substitution: every term times value^u, summed per
    monomial through the checking constructor."""
    out = {}
    for (m, u), c in poly.terms.items():
        out[(m, 0)] = out.get((m, 0), Fraction(0)) + c * Fraction(value)**u
    return Poly(out)


def rees_families_oracle(A):
    u = Poly.u()
    rels = [Relation(1, i, Poly.generator(i) * (Poly.generator(i) - u))
            for i in range(A.n)]
    rels += [Relation(2, X, product_poly_oracle(X.plus, X.minus, u))
             for X in A.minimal_infeasible_sign_sets()]
    rels += [Relation(3, X, divide_u_oracle(circuit_difference_oracle(X, u)))
             for X in canonical_circuits(A)]
    return tuple(rels)


def expand_into_oracle(out, plus, minus, s, sign):
    """Add sign * prod_{i in plus} e_i * prod_{j in minus} (e_j - u^s) to the
    integer dict `out`: one term per T in minus, the sorted monomial
    plus + T with coefficient sign * (-1)^|minus - T| and u-power
    s * |minus - T|, merged into the terms already there."""
    partial = [((), 0)]  # (T, |minus - T|) over the elements of minus so far
    for j in sorted(minus):
        partial = [(t + (j,), k) for t, k in partial] + [(t, k + 1) for t, k in partial]
    base = tuple(plus)
    for t, k in partial:
        key = (tuple(sorted(base + t)), s * k)
        out[key] = out.get(key, 0) + (-sign if k & 1 else sign)


def merged_relation_oracle(family, X):
    """A family-(2)/(3) u-relation from integer dicts: a circuit's two
    products merged over the integers, the cancelled terms dropped, and
    then divided by u."""
    out = {}
    expand_into_oracle(out, X.plus, X.minus, 1, 1)
    if family == 2:
        return Poly(out)
    expand_into_oracle(out, X.minus, X.plus, 1, -1)
    return divide_u_oracle(Poly(out))


def leading_form_oracle(A):
    signs, mismatches = [], []
    for X in canonical_circuits(A):
        top = circuit_difference_oracle(X, Poly.one()).top_e_part()
        db = circuit_boundary(X, n=A.n)
        if top == db:
            signs.append((X, 1))
        elif top == -db:
            signs.append((X, -1))
        else:
            mismatches.append(X)
    return LeadingFormReport(not mismatches, tuple(signs), tuple(mismatches))


def assert_same_terms(got, want, what):
    assert got.terms == want.terms, what
    assert all(type(c) is Fraction for c in got.terms.values()), what


def oracle_cases(corpus_map):
    """The corpus, random seeds 1-29, braid 5, semiorder 4, boolean 6, and
    every deletion, restriction and cone of every corpus member."""
    cases = list(corpus_map.items())
    cases += [(f"random{s}", random_rational_arrangement(seed=s)) for s in range(1, 30)]
    cases += [("braid5", braid(5)), ("semiorder4", semiorder(4)),
              ("boolean6", boolean(6))]
    for name, A in corpus_map.items():
        for lab in A.labels:
            if A.n > 1:
                cases.append((f"{name}-{lab}", delete(A, lab)))
            cases.append((f"{name}/{lab}", restrict(A, lab)))
        cases.append((f"cone {name}", cone(A)))
    return cases


def test_closed_form_families_match_poly_product_oracle(corpus_map):
    """The closed-form families have the `Poly`-product builds' exact terms,
    every value a Fraction: the u-families, their u = 0 and u = 1
    specializations, the chamber-function families and the leading-form
    check.  The 0/1 substitution equals the general one; u = 2 takes the
    general path."""
    cases = oracle_cases(corpus_map)
    assert len(cases) == 136
    for name, A in cases:
        rels = rees_relation_families(A)
        want = rees_families_oracle(A)
        assert [(r.family, r.source) for r in rels] \
            == [(r.family, r.source) for r in want], name
        vg = vg_relation_families(A)
        for r, w, v in zip(rels, want, vg):
            what = (name, r.family, r.source)
            assert_same_terms(r.poly, w.poly, what)
            for value in (0, 1, 2):
                general = substitute_u_oracle(r.poly, value)
                assert_same_terms(r.poly.substitute_u(value), general, what)
                if value < 2:
                    assert_same_terms(specialize(r.poly, value), general, what)
            assert_same_terms(v.poly, substitute_u_oracle(w.poly, 1), what)
        assert leading_form_check(A) == leading_form_oracle(A), name


def test_only_zero_and_one_take_the_trusted_constructor(monkeypatch):
    """`substitute_u` at 0 and 1 and `divide_u` return through `Poly._of`
    once; any other value keeps the checking constructor."""
    calls = []
    of = Poly._of.__func__
    monkeypatch.setattr(Poly, "_of", classmethod(
        lambda cls, terms: calls.append(1) or of(cls, terms)))
    e, f, u = Poly.generator(0), Poly.generator(1), Poly.u()
    rel = e * (e - u) + u * f - Poly.u(2) * f + u  # f cancels at u = 1
    for value, taken in ((0, 1), (1, 1), (Fraction(1, 2), 0), (2, 0)):
        calls.clear()
        got = rel.substitute_u(value)
        assert len(calls) == taken, value
        assert_same_terms(got, substitute_u_oracle(rel, value), value)
    rel, expected = u * e - Poly.u(2), e - u  # ring operations take `_of` too
    calls.clear()
    assert rel.divide_u() == expected
    assert calls == [1]


def mask_oracle_cases(corpus_map):
    """The corpus and its cones, random seeds 1-19, braid 5-6, semiorder 4,
    boolean 7, a circuit that is all '+' and a minimal infeasible set with
    no '+'."""
    cases = list(corpus_map.items())
    cases += [(f"cone {name}", cone(A)) for name, A in corpus_map.items()]
    cases += [(f"random{s}", random_rational_arrangement(seed=s)) for s in range(1, 20)]
    cases += [("braid5", braid(5)), ("braid6", braid(6)),
              ("semiorder4", semiorder(4)), ("boolean7", boolean(7))]
    x, y = (1, 0), (0, 1)
    cases += [("all_plus", Arrangement(2, [(x, 0), (y, 0), ((-1, -1), 0)])),
              ("no_plus", Arrangement(1, [((1,), 0), ((-1,), 1)]))]
    return cases


def test_mask_expansion_matches_merge_and_growth_oracles(corpus_map):
    """The sub-mask walk has the integer merge's exact terms, for families
    (2) and (3) and their u = 1 specializations, and the column-bitmask
    growth has the point-list growth's zeros for every choice of
    families."""
    cases = mask_oracle_cases(corpus_map)
    assert len(cases) == 49
    for name, A in cases:
        for r, v in zip(rees_relation_families(A), vg_relation_families(A)):
            if r.family == 1:
                continue  # the one `Poly` product, checked against the oracle above
            what = (name, r.family, r.source)
            want = merged_relation_oracle(r.family, r.source)
            assert_same_terms(r.poly, want, what)
            assert_same_terms(v.poly, substitute_u_oracle(want, 1), what)
        for families in ((1,), (1, 2), (1, 3), (1, 2, 3)):
            assert _common_zeros(A, families) \
                == common_zeros_growth_oracle(A, families), (name, families)


def test_substitute_one_sums_colliding_terms():
    """u = 1 re-keys the terms directly only when no two share an
    e-monomial; otherwise the colliding terms are summed, a zero sum
    dropped, every value a Fraction."""
    e, f, u = Poly.generator(0), Poly.generator(1), Poly.u()
    cases = [(u * e - e, Poly.zero()), (e + u * e, 2 * e),
             (Poly.u(2) * e + u * e - e * Fraction(1, 2) + u * f, e * Fraction(3, 2) + f),
             (u * e * f - e * f + u - 1 + Poly.u(3), Poly.one()),
             (e * (e - u), e * e - e)]
    for poly, want in cases:
        got = poly.substitute_u(1)
        assert_same_terms(got, want, poly)
        assert_same_terms(got, substitute_u_oracle(poly, 1), poly)


@pytest.mark.parametrize("make", [lambda: braid(4), lambda: semiorder(3),
                                  lambda: random_rational_arrangement()],
                         ids=["braid4", "semiorder3", "random8"])
def test_u_families_multiply_only_the_squares(monkeypatch, make):
    """Only family (1) multiplies polynomials: one `Poly` product per
    hyperplane."""
    A = make()
    calls = []
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__",
                        lambda self, other: calls.append(1) or mul(self, other))
    rels = rees_relation_families(A)
    monkeypatch.undo()
    assert len(calls) == A.n
    assert len(rels) > A.n
