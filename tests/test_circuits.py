import json
import random
import sys
from collections import Counter
from itertools import combinations

import pytest

import arrgr.circuits as circuits_module
from arrgr.arrangement import (AffineForm, Arrangement, boolean, braid, cone,
                               delete, restrict, semiorder)
from arrgr.circuits import (AxiomReport, CircuitSet, SignedSet, broken_circuits,
                            canonical_circuits, circuit_scan, circuits_from_arrangement,
                            circuits_from_json, circuits_to_json,
                            load_circuits, nbc_counts, nbc_sets,
                            validate_circuit_axioms, _mask)
from arrgr.cordovil import CordovilAlgebra
from arrgr.corpus import random_rational_arrangement, single_hyperplane
from arrgr.errors import ConsistencyError, InputError
from arrgr.linalg import affine_system_consistent, rank, rank_and_kernel
from arrgr.polyring import Poly, format_poincare


def flat_consistent(A, supp) -> bool:
    """Consistency oracle for a flat: its equations w_j = 0 have a common
    solution.  `A.flat_nonempty` reads the circuit scan instead."""
    forms = [A.forms[j] for j in supp]
    return affine_system_consistent([f.linear for f in forms],
                                    [-f.constant for f in forms])


def brute_force_circuit_supports(A, max_size=None):
    """Independent oracle: all minimal subsets that are flat-nonempty and
    homogeneously dependent, by direct rank and consistency computation."""
    cols = [f.homogenized() for f in A.forms]
    out = []
    max_size = max_size or A.n
    for size in range(2, max_size + 1):
        for supp in combinations(range(A.n), size):
            ss = frozenset(supp)
            if any(f <= ss for f in out):
                continue
            rows = [[cols[j][r] for j in supp] for r in range(A.dim + 1)]
            if rank(rows) < size and flat_consistent(A, supp):
                out.append(ss)
    return sorted(out, key=lambda s: (len(s), tuple(sorted(s))))


def test_signed_set_validation():
    with pytest.raises(InputError):
        SignedSet(frozenset({1}), frozenset({1}))
    with pytest.raises(InputError):
        SignedSet(frozenset(), frozenset())


def test_circuit_set_and_ordering_errors():
    """A circuit's support must lie in the ground set, and an ordering must
    be a permutation of the ground indices."""
    with pytest.raises(InputError) as exc:
        CircuitSet(["a", "b"], [SignedSet(frozenset({0}), frozenset({2}))])
    assert str(exc.value) == "circuit support outside the ground set"
    for ordering in ((0, 0, 1), (0, 1), (0, 1, 3)):
        with pytest.raises(InputError) as exc:
            nbc_sets(braid(3), ordering)
        assert str(exc.value) == "ordering must be a permutation of the ground indices"


def test_braid3_circuits():
    C = circuits_from_arrangement(braid(3))
    X = SignedSet(frozenset({0, 2}), frozenset({1}))
    assert set(C.circuits) == {X, X.negate()}


def test_single_hyperplane_no_circuits():
    C = circuits_from_arrangement(single_hyperplane())
    assert C.circuits == ()


def test_semiorder3_circuits_match_brute_force():
    S = semiorder(3)
    C = circuits_from_arrangement(S)
    assert sorted(C.supports(), key=lambda s: (len(s), tuple(sorted(s)))) \
        == brute_force_circuit_supports(S, max_size=4)
    # the ij/ji pair is not homogeneously dependent and its flat is empty
    assert C.circuits == ()


def test_circuit_supports_match_brute_force(corpus_map):
    for name, A in corpus_map.items():
        C = circuits_from_arrangement(A)
        assert list(C.supports()) == brute_force_circuit_supports(A), name


def test_circuit_sign_extraction_from_dependency(corpus_map):
    for name, A in corpus_map.items():
        cols = [f.homogenized() for f in A.forms]
        for X in circuits_from_arrangement(A).circuits:
            supp = sorted(X.support)
            # the signed combination of homogenized forms must vanish
            lam = [X.sign(i) for i in supp]
            # signs alone are not the dependency; check sign pattern via
            # kernel instead: lambda exists with matching signs
            rows = [[cols[j][r] for j in supp] for r in range(A.dim + 1)]
            _, kernel = rank_and_kernel(rows, ncols=len(supp))
            assert len(kernel) == 1
            v = kernel[0]
            signs = {1 if x > 0 else -1 for x in
                     (a * b for a, b in zip(v, lam))}
            assert signs in ({1}, {-1}), (name, X)


def test_validate_axioms_braid4():
    assert validate_circuit_axioms(circuits_from_arrangement(braid(4))).ok


def test_validate_axioms_central_corpus(central_map):
    for name, A in central_map.items():
        assert validate_circuit_axioms(circuits_from_arrangement(A)).ok, name


def test_axiom_negative_controls():
    singleton = CircuitSet(["a"], [SignedSet(frozenset({0}), frozenset())])
    report = validate_circuit_axioms(singleton)
    assert not report.ok and report.violations[0][0] == 1

    unpaired = CircuitSet(["a", "b"], [SignedSet(frozenset({0}), frozenset({1}))])
    report = validate_circuit_axioms(unpaired)
    assert any(a == 2 for a, _ in report.violations)

    with pytest.raises(InputError, match=r"axiom \(1\)"):
        circuits_from_json({"ground": ["a"], "circuits": [{"plus": ["a"]}]})


def test_broken_circuits_braid3():
    assert broken_circuits(braid(3)) == (frozenset({0, 1}),)


def test_broken_circuits_empty_without_circuits():
    assert broken_circuits(single_hyperplane()) == ()
    assert broken_circuits(semiorder(3)) == ()


def test_broken_circuits_braid4_oracle():
    B = braid(4)
    C = circuits_from_arrangement(B)
    assert len(C.supports()) == 7
    want = {supp - {max(supp)} for supp in C.supports()}
    assert set(broken_circuits(B)) == want


def test_nbc_braid3():
    sets = nbc_sets(braid(3))
    assert nbc_counts(braid(3)) == (1, 3, 2)
    assert frozenset() in sets
    assert frozenset({0, 1}) not in sets  # contains the broken circuit
    assert frozenset({0, 2}) in sets and frozenset({1, 2}) in sets


def test_nbc_single_and_semiorder():
    assert nbc_counts(single_hyperplane()) == (1, 1)
    assert nbc_counts(semiorder(3)) == (1, 6, 12)


def test_poincare_examples():
    assert nbc_counts(braid(3)) == (1, 3, 2)
    assert nbc_counts(braid(4)) == (1, 6, 11, 6)
    assert nbc_counts(single_hyperplane()) == (1, 1)
    assert format_poincare(nbc_counts(semiorder(3))) == "1 + 6t^2 + 12t^4"


def test_nbc_counts_ordering_independent(corpus_map):
    rng = random.Random(2024)
    for name, A in corpus_map.items():
        base = nbc_counts(A)
        for _ in range(5):
            ordering = list(range(A.n))
            rng.shuffle(ordering)
            assert nbc_counts(A, tuple(ordering)) == base, name


def test_nbc_total_equals_chambers(corpus_map):
    for name, A in corpus_map.items():
        assert sum(nbc_counts(A)) == len(A.chambers()), name


def _pad(p, n):
    return tuple(p) + (0,) * (n - len(p))


def test_poincare_deletion_restriction(corpus_map):
    for name, A in corpus_map.items():
        base = nbc_counts(A)
        for lab in A.labels:
            dele = nbc_counts(delete(A, lab))
            rest = nbc_counts(restrict(A, lab))
            m = max(len(base), len(dele), len(rest) + 1)
            want = tuple(a + b for a, b in
                         zip(_pad(dele, m), (0,) + _pad(rest, m - 1)))
            assert _pad(base, m) == want, (name, lab)


def test_cone_circuits_transport(corpus_map):
    for name, A in corpus_map.items():
        coned = cone(A)
        h0 = coned.n - 1
        away = [X for X in circuits_from_arrangement(coned).circuits
                if h0 not in X.support]
        central_part = delete(coned, "H0")
        expect = circuits_from_arrangement(central_part).circuits
        assert sorted(X.key() for X in away) == sorted(X.key() for X in expect), name


def _missing_eliminations(circuits):
    """(X, Y, e) for which no circuit Z lies in (X u Y) - e, signs kept."""
    out = []
    for X in circuits:
        for Y in circuits:
            if X == Y.negate():
                continue
            for e in sorted(X.plus & Y.minus):
                plus, minus = (X.plus | Y.plus) - {e}, (X.minus | Y.minus) - {e}
                if not any(Z.plus <= plus and Z.minus <= minus for Z in circuits):
                    out.append((X, Y, e))
    return out


def test_affine_elimination_fails_only_across_empty_flats():
    """Random seed 4 has circuits that eliminate nowhere, but only where
    their hyperplanes do not meet; its circuits validate, and as a raw
    system (taken to be central) they fail axiom (4)."""
    A = random_rational_arrangement(seed=4)
    C = circuits_from_arrangement(A)
    missing = _missing_eliminations(C.circuits)
    assert missing
    assert all(not flat_consistent(A, X.support | Y.support) for X, Y, _ in missing)
    assert validate_circuit_axioms(C).ok
    raw = validate_circuit_axioms(CircuitSet(C.ground, C.circuits))
    assert len(raw.violations) == len(missing)
    assert {a for a, _ in raw.violations} == {4}
    with pytest.raises(InputError, match=r"axiom \(4\)"):
        circuits_from_json(circuits_to_json(C))


def test_affine_elimination_enforced_where_flats_meet():
    """Braid 4 plus a translate of H12 is affine.  Dropping every
    eliminating circuit of a pair whose hyperplanes meet is still reported,
    with the arrangement's empty flats in place."""
    B = braid(4)
    A = Arrangement(4, B.forms + (AffineForm((1, -1, 0, 0), -1),), B.labels + ("12'",))
    C = circuits_from_arrangement(A)
    assert C.empty_flats and validate_circuit_axioms(C).ok
    X, Y, e = next((X, Y, e) for X in C.circuits for Y in C.circuits
                   for e in sorted(X.plus & Y.minus)
                   if X != Y.negate() and flat_consistent(A, X.support | Y.support))
    plus, minus = (X.plus | Y.plus) - {e}, (X.minus | Y.minus) - {e}
    kept = [Z for Z in C.circuits
            if not (Z.plus <= plus and Z.minus <= minus)
            and not (Z.minus <= plus and Z.plus <= minus)]
    damaged = CircuitSet(C.ground, kept, empty_flats=C.empty_flats)
    want = (4, f"no elimination of {C.ground[e]} from "
               f"{X.pretty(C.ground)} and {Y.pretty(C.ground)}")
    assert want in validate_circuit_axioms(damaged).violations


def test_canonical_circuits_sign_convention(corpus_map):
    for name, A in corpus_map.items():
        for X in canonical_circuits(A):
            assert X.sign(min(X.support)) == 1, name


def test_circuit_json_roundtrip():
    C = circuits_from_arrangement(braid(4))
    data = circuits_to_json(C)
    assert circuits_from_json(data) == C
    # negation completion restores dropped opposites
    half = dict(data)
    half["circuits"] = [e for e in data["circuits"]][: len(data["circuits"]) // 2]
    # keep one orientation per support: filter by plus-minus ordering
    one_sided = []
    seen = set()
    for e in data["circuits"]:
        key = frozenset(e["plus"]) | frozenset(e["minus"])
        if key in seen:
            continue
        seen.add(key)
        one_sided.append(e)
    half["circuits"] = one_sided
    assert circuits_from_json(half) == C


def test_flat_nonempty_matches_consistency_oracle(corpus_map):
    """The test against the scan's minimal empty flats answers like the
    consistency of the flat's equations on every support."""
    cases = list(corpus_map.items())
    cases += [(f"random{s}", random_rational_arrangement(seed=s)) for s in (1, 2, 3, 4)]
    cases.append(("semiorder4", semiorder(4)))
    for name, A in cases:
        if A.central:
            assert circuits_from_arrangement(A).empty_flats == (), name
        for size in range(A.n + 1):
            for supp in combinations(range(A.n), size):
                assert A.flat_nonempty(supp) == flat_consistent(A, supp), (name, supp)


def _count_calls(mp, name, calls):
    """Count calls of `name` through every arrgr module that binds it."""
    for key, module in list(sys.modules.items()):
        fn = getattr(module, name, None) if key.split(".")[0] == "arrgr" else None
        if fn is not None:
            def counted(*args, _fn=fn, **kwargs):
                calls[name] += 1
                return _fn(*args, **kwargs)
            mp.setattr(module, name, counted)


def test_scan_kernels_are_the_only_flat_tests(monkeypatch):
    """Circuits, minimal infeasible sets, NBC sets and straightening read
    flat emptiness off the circuit scan's kernels: no consistency test runs,
    and the minimal infeasible sets take the identities from the scan."""
    for A in (random_rational_arrangement(), semiorder(3)):
        calls = Counter()
        with monkeypatch.context() as mp:
            _count_calls(mp, "affine_system_consistent", calls)
            C = circuits_from_arrangement(A)
            _count_calls(mp, "rank_and_kernel", calls)
            found = A.minimal_infeasible_sign_sets()
            assert calls["rank_and_kernel"] == 0
            nbc = nbc_sets(A)
            alg = CordovilAlgebra(A)
            for size in range(A.n + 1):
                for supp in combinations(range(A.n), size):
                    alg.straighten(Poly.monomial(supp))
        assert calls["affine_system_consistent"] == 0
        assert C.empty_flats and len(found) > len(C.circuits) and nbc


_CIRCUIT_FILE = {"ground": ["1", "2", "3"],
                 "circuits": [{"plus": ["1", "3"], "minus": ["2"]}]}


@pytest.mark.parametrize("data, message", [
    ({**_CIRCUIT_FILE, "circuits": [{"plus": "13", "minus": ["2"]}]},
     '"plus" must be a list of labels, not a string'),
    ({**_CIRCUIT_FILE, "ground": "123"}, '"ground" must be a list of labels'),
    ({**_CIRCUIT_FILE, "circuits": [["1", "3"]]},
     "each circuit must be an object"),
    ([_CIRCUIT_FILE], "circuit data must be an object, not a list"),
    ({**_CIRCUIT_FILE, "circuits": {"plus": ["1"]}},
     '"circuits" must be a list of objects'),
    ({**_CIRCUIT_FILE, "ground": ["1", 2.5, "3"]},
     "a label must be a string or an integer, not a float"),
    ({**_CIRCUIT_FILE, "circuits": [{"plus": ["1", "4"], "minus": ["2"]}]},
     "label '4' is not in the ground set"),
    ({"ground": ["1", "2", "3"]}, "missing key 'circuits'"),
], ids=["plus-string", "ground-string", "list-entry", "top-level-list",
        "circuits-object", "float-label", "unknown-label", "missing-circuits"])
def test_malformed_circuit_file_rejected(tmp_path, data, message):
    path = tmp_path / "circuits.json"
    path.write_text(json.dumps(data))
    for load in (lambda: circuits_from_json(data), lambda: load_circuits(path)):
        with pytest.raises(InputError) as info:
            load()
        assert message in str(info.value)
        assert "\n" not in str(info.value)


def test_non_utf8_circuit_file_rejected(tmp_path):
    path = tmp_path / "circuits.json"
    path.write_bytes(b"\xff\xfe{")
    with pytest.raises(InputError) as info:
        load_circuits(path)
    assert str(info.value) == f"{path}: not UTF-8 text: byte 0: invalid start byte"


def _record_nbc_enumerations(monkeypatch) -> list:
    """The list that records the ordering of every NBC enumeration."""
    import arrgr.circuits

    scans = []
    real = arrgr.circuits._grow_nbc

    def counted(source, ordering):
        scans.append(ordering)
        return real(source, ordering)

    monkeypatch.setattr(arrgr.circuits, "_grow_nbc", counted)
    return scans


@pytest.mark.parametrize("make", [lambda: semiorder(3), lambda: braid(4)],
                         ids=["semiorder3", "braid4"])
def test_one_nbc_scan_per_ordering(monkeypatch, make):
    """The default ordering and its explicit tuple share one memo entry,
    so the NBC counts, the Cordovil algebra and the Rees Hilbert check
    enumerate the NBC sets once."""
    from arrgr.rees import rees_hilbert_check

    scans = _record_nbc_enumerations(monkeypatch)
    A = make()
    nbc_counts(A)
    alg = CordovilAlgebra(A)
    rees_hilbert_check(A)
    assert nbc_sets(A) is alg.nbc is nbc_sets(A, tuple(range(A.n)))
    assert len(scans) == 1


def test_raw_circuit_algebra_enumerates_nbc_once(monkeypatch):
    """A raw circuit system is memoized like an arrangement, and the
    algebra keeps its NBC sets: building it and two Hilbert series
    enumerate them once."""
    scans = _record_nbc_enumerations(monkeypatch)
    C = circuits_from_arrangement(braid(4))
    alg = CordovilAlgebra(CircuitSet(C.ground, C.circuits))
    assert alg.hilbert_series() == alg.hilbert_series() == (1, 6, 11, 6)
    assert len(scans) == 1


def test_raw_circuit_system_is_memoized(monkeypatch):
    """The algebra of a raw circuit system and its `nbc_sets` share one
    memo entry, as on an arrangement."""
    scans = _record_nbc_enumerations(monkeypatch)
    C = circuits_from_arrangement(braid(4))
    raw = CircuitSet(C.ground, C.circuits)
    alg = CordovilAlgebra(raw)
    assert nbc_sets(raw) is alg.nbc is nbc_sets(raw, tuple(range(raw.n)))
    assert len(scans) == 1


def _count_builds(monkeypatch, *names) -> Counter:
    """The counter of calls of each named table builder of `arrgr.circuits`."""
    import arrgr.circuits

    calls = Counter()
    for name in names:
        def counted(source, ordering, _name=name, _real=getattr(arrgr.circuits, name)):
            calls[_name] += 1
            return _real(source, ordering)
        monkeypatch.setattr(arrgr.circuits, name, counted)
    return calls


def test_circuit_tables_are_built_once_per_ordering(monkeypatch):
    """The NBC counts, the Cordovil algebra, the leading-form check and the
    Rees relation families of one ordering share one canonical-circuit
    table and one broken-circuit map; a reversed ordering builds its own
    once."""
    from arrgr.cordovil import leading_form_check
    from arrgr.rees import rees_relation_families

    builds = _count_builds(monkeypatch, "_canonical_circuits", "_broken_circuit_map")
    A = braid(5)
    nbc_counts(A)
    CordovilAlgebra(A)
    assert leading_form_check(A).ok
    rees_relation_families(A)
    assert builds == {"_canonical_circuits": 1, "_broken_circuit_map": 1}
    reverse = tuple(reversed(range(A.n)))
    nbc_counts(A, reverse)
    CordovilAlgebra(A, reverse)
    assert leading_form_check(A, reverse).ok
    assert builds == {"_canonical_circuits": 2, "_broken_circuit_map": 2}


def test_flat_tests_read_index_sets_without_form_index(monkeypatch):
    """Index sets the library generated itself reach the flat test with one
    subset test: growing the NBC complex of semiorder 4 and straightening
    every squarefree monomial of braid 4 never call `form_index`; labels
    still go through it."""
    from arrgr.circuits import GroundSet

    calls = []
    real = GroundSet.form_index

    def counted(self, h):
        calls.append(h)
        return real(self, h)

    monkeypatch.setattr(GroundSet, "form_index", counted)
    S = semiorder(4)
    assert nbc_sets(S)
    B = braid(4)
    alg = CordovilAlgebra(B)
    for size in range(B.n + 1):
        for supp in combinations(range(B.n), size):
            alg.straighten(Poly.monomial(supp))
    assert calls == []
    assert not S.flat_nonempty(["12", "21"])  # x1 - x2 = 1 and x2 - x1 = 1
    assert sorted(calls) == ["12", "21"]


@pytest.mark.parametrize("make", [lambda: braid(3), lambda: semiorder(3)],
                         ids=["central", "affine"])
def test_flat_nonempty_rejects_bad_elements(make):
    """A bad label or index in a flat test is an `InputError` with
    `form_index`'s message, central shortcut or not."""
    A = make()
    with pytest.raises(InputError, match=r"^no hyperplane labelled 'nope'$"):
        A.flat_nonempty(["nope"])
    with pytest.raises(InputError, match=r"^form index 99 out of range$"):
        A.flat_nonempty([0, 99])
    assert A.flat_nonempty(A.labels[1:3]) == A.flat_nonempty((1, 2))


def test_raw_circuit_system_matches_its_arrangement(central_map):
    """A raw circuit system runs the arrangement's NBC and straightening
    code: for three orderings, the NBC sets, the Hilbert series and the
    straightened coordinates of every squarefree monomial agree."""
    cases = list(central_map.items()) + [("braid5", braid(5)), ("boolean5", boolean(5))]
    rng = random.Random(20261019)
    for name, A in cases:
        C = circuits_from_arrangement(A)
        raw = CircuitSet(C.ground, C.circuits)
        for ordering in _three_orderings(A.n, rng):
            assert nbc_sets(raw, ordering) == nbc_sets(A, ordering), (name, ordering)
            alg, raw_alg = CordovilAlgebra(A, ordering), CordovilAlgebra(raw, ordering)
            assert raw_alg.hilbert_series() == alg.hilbert_series(), name
            for size in range(A.n + 1):
                for supp in combinations(range(A.n), size):
                    m = Poly.monomial(supp)
                    assert raw_alg.straighten(m).coords == alg.straighten(m).coords, \
                        (name, ordering, supp)


def nbc_scan_oracle(source, ordering) -> tuple:
    """NBC sets by testing every one of the 2^n subsets for a broken
    circuit and, on an arrangement, a nonempty flat."""
    flat_ok = None if isinstance(source, CircuitSet) else source.flat_nonempty
    bcs = broken_circuits(source, ordering)
    out = []
    for size in range(source.n + 1):
        for supp in combinations(range(source.n), size):
            ss = frozenset(supp)
            if any(b <= ss for b in bcs):
                continue
            if flat_ok is not None and not flat_ok(supp):
                continue
            out.append(ss)
    return tuple(sorted(out, key=lambda s: (len(s), tuple(sorted(s)))))


def _three_orderings(n, rng):
    shuffled = list(range(n))
    rng.shuffle(shuffled)
    return (tuple(range(n)), tuple(reversed(range(n))), tuple(shuffled))


def test_nbc_growth_matches_scan_oracle(corpus_map, central_map):
    """Growing the NBC complex gives the subset scan's tuple exactly, for
    the identity, reversed and a shuffled ordering; the raw circuit systems
    of the central members get no flat test."""
    sources = list(corpus_map.items())
    sources += [(f"random{s}", random_rational_arrangement(seed=s))
                for s in range(1, 9)]
    sources += [("semiorder4", semiorder(4)), ("braid5", braid(5)),
                ("boolean6", boolean(6))]
    for name, A in central_map.items():
        C = circuits_from_arrangement(A)
        sources.append((f"raw {name}", CircuitSet(C.ground, C.circuits)))
    rng = random.Random(20261018)
    for name, source in sources:
        for ordering in _three_orderings(source.n, rng):
            assert nbc_sets(source, ordering) == nbc_scan_oracle(source, ordering), \
                (name, ordering)


def test_validate_axioms_affine_inputs(corpus_map):
    """The circuit scan's output is not re-checked, so the axioms are
    checked here on affine inputs too: the corpus with every cone, deletion
    and restriction, random seeds 1-8 and semiorder 4."""
    systems = [(f"random{s}", random_rational_arrangement(seed=s)) for s in range(1, 9)]
    systems.append(("semiorder4", semiorder(4)))
    for name, A in corpus_map.items():
        systems += [(name, A), (f"cone {name}", cone(A))]
        systems += [(f"{name} - {lab}", delete(A, lab)) for lab in A.labels if A.n > 1]
        systems += [(f"{name} / {lab}", restrict(A, lab)) for lab in A.labels]
    for name, A in systems:
        assert validate_circuit_axioms(circuits_from_arrangement(A)).ok, name


def test_integer_labels_accepted():
    C = circuits_from_json({"ground": [1, 2, 3],
                            "circuits": [{"plus": [1, 3], "minus": [2]}]})
    assert C == circuits_from_json(_CIRCUIT_FILE)


def test_axiom_violation_message_is_one_short_line():
    """Semiorder 4's affine circuits, read as a raw (central) system, break
    axiom (4) many times; the error names the first witness and a count,
    while the report keeps every violation."""
    C = circuits_from_arrangement(semiorder(4))
    report = validate_circuit_axioms(CircuitSet(C.ground, C.circuits))
    assert len(report.violations) > 100
    with pytest.raises(InputError) as info:
        circuits_from_json(circuits_to_json(C))
    message = str(info.value)
    axiom, witness = report.violations[0]
    assert message == (f"circuit axioms violated: axiom ({axiom}) {witness} "
                       f"(and {len(report.violations) - 1} more)")
    assert "\n" not in message and len(message) < 200


def circuit_axioms_oracle(C):
    """The axiom check with a linear scan of the circuit list for each
    elimination (X, Y, e): the report the bitset search must reproduce,
    violations in the same order."""
    violations = []
    circ = C.circuits
    cset = set(circ)
    masks = [(_mask(X.plus), _mask(X.minus)) for X in circ]
    flats = [_mask(s) for s in C.empty_flats]
    for X in circ:
        if len(X.support) <= 1:
            violations.append((1, f"|support| = {len(X.support)} for {X.pretty(C.ground)}"))
    for X in circ:
        if X.negate() not in cset:
            violations.append((2, f"negation of {X.pretty(C.ground)} missing"))
    for X, (xp, xm) in zip(circ, masks):
        for Y, (yp, ym) in zip(circ, masks):
            if ((xp | xm) & ~(yp | ym) == 0 and (xp, xm) != (yp, ym)
                    and (xp, xm) != (ym, yp)):
                violations.append(
                    (3, f"{X.pretty(C.ground)} nested in {Y.pretty(C.ground)}"))
    for X, (xp, xm) in zip(circ, masks):
        for Y, (yp, ym) in zip(circ, masks):
            if not xp & ym or (xp, xm) == (ym, yp):
                continue
            plus, minus = xp | yp, xm | ym
            if any(f & (plus | minus) == f for f in flats):
                continue
            for e in X.plus & Y.minus:
                keep = ~(1 << e)
                zplus, zminus = plus & keep, minus & keep
                if not any(zp & zplus == zp and zm & zminus == zm
                           for zp, zm in masks):
                    violations.append(
                        (4, f"no elimination of {C.ground[e]} from "
                            f"{X.pretty(C.ground)} and {Y.pretty(C.ground)}"))
    return AxiomReport(not violations, tuple(violations))


def test_axiom_check_matches_scan_oracle_on_recursion_sets(corpus_map):
    """The circuit sets of the deletion-restriction and coning criterion:
    every corpus member, its deletions, restrictions and cone."""
    systems = []
    for A in corpus_map.values():
        systems.append(circuits_from_arrangement(A))
        for lab in A.labels:
            if A.n > 1:
                systems.append(circuits_from_arrangement(delete(A, lab)))
            systems.append(circuits_from_arrangement(restrict(A, lab)))
        systems.append(circuits_from_arrangement(cone(A)))
    assert len(systems) == 104
    for C in systems:
        assert validate_circuit_axioms(C) == circuit_axioms_oracle(C)


def test_axiom_check_matches_scan_oracle_on_broken_systems():
    """Seeded circuit drops, with and without the empty flats: the reports,
    violations and their order included, are those of the scan."""
    B = braid(4)
    sources = [B, semiorder(4), random_rational_arrangement(seed=4),
               Arrangement(4, B.forms + (AffineForm((1, -1, 0, 0), -1),),
                           B.labels + ("12'",))]
    rng = random.Random(20261018)
    broken = 0
    for A in sources:
        C = circuits_from_arrangement(A)
        for _ in range(3):
            kept = [X for X in C.circuits if rng.random() > 0.2]
            for flats in ((), C.empty_flats):
                D = CircuitSet(C.ground, kept, empty_flats=flats)
                report = validate_circuit_axioms(D)
                assert report == circuit_axioms_oracle(D)
                broken += any(a == 4 for a, _ in report.violations)
    assert broken >= 15


def _corrupted_copies(C, rng) -> list:
    """Copies of a circuit system with circuits dropped, one sign of a
    circuit flipped, a support grown by one element (nested supports) and
    a singleton added; and copies that stay closed under negation: a pair
    X, -X dropped, one sign flipped in both, both grown by one element, and
    a singleton added with its negation.  Each with and without the empty
    flats."""
    circ = list(C.circuits)
    copies = [[X for X in circ if rng.random() > 0.15]]
    if circ:
        X = rng.choice(circ)
        i = rng.choice(sorted(X.support))
        flipped = (SignedSet(X.plus - {i}, X.minus | {i}) if i in X.plus
                   else SignedSet(X.plus | {i}, X.minus - {i}))
        copies.append([Z for Z in circ if Z != X] + [flipped])
        outside = sorted(set(range(C.n)) - X.support)
        if outside:
            copies.append(circ + [SignedSet(X.plus | {rng.choice(outside)}, X.minus)])
        # closed under negation
        pair = {X, X.negate()}
        copies.append([Z for Z in circ if Z not in pair])
        copies.append([Z for Z in circ if Z not in pair] + [flipped, flipped.negate()])
        if outside:
            grown = SignedSet(X.plus | {rng.choice(outside)}, X.minus)
            copies.append(circ + [grown, grown.negate()])
    copies.append(circ + [SignedSet({rng.randrange(C.n)}, ())])
    i = rng.randrange(C.n)
    copies.append(circ + [SignedSet({i}, ()), SignedSet((), {i})])
    return [CircuitSet(C.ground, kept, empty_flats=flats)
            for kept in copies for flats in ((), C.empty_flats)]


def _closed_under_negation(C) -> bool:
    circ = set(C.circuits)
    return all(X.negate() in circ for X in circ)


def test_bitset_axiom_check_matches_scan_oracle(corpus_map):
    """The bitset searches for nested supports (3) and eliminations (4)
    report what the scan reports, violations in the same order, on the
    corpus and its cones, random seeds 1-29, braid 5 and 6, semiorder 4,
    and seeded corrupted copies of every system with at most 80 circuits.
    The elimination violations of the copies closed under negation are
    found for half the pairs and mirrored to the other half."""
    sources = list(corpus_map.values())
    sources += [cone(A) for A in sources]
    sources += [random_rational_arrangement(seed=s) for s in range(1, 30)]
    sources += [braid(5), braid(6), semiorder(4)]
    rng = random.Random(20261019)
    systems = []
    for A in sources:
        C = circuits_from_arrangement(A)
        systems.append(C)
        if len(C.circuits) <= 80:
            systems += _corrupted_copies(C, rng)
    found = Counter()
    mirrored = 0
    for C in systems:
        report = validate_circuit_axioms(C)
        assert report == circuit_axioms_oracle(C), C
        found.update(a for a, _ in report.violations)
        if _closed_under_negation(C):
            mirrored += sum(a == 4 for a, _ in report.violations)
    assert len(systems) > 300
    assert all(found[a] >= 50 for a in (1, 2, 3, 4)), found
    assert mirrored >= 50, mirrored


def test_elimination_tests_half_the_pairs(monkeypatch):
    """On braid 5, closed under negation, the elimination axiom computes
    its union of excluded circuits (two `_union_over` calls) for exactly
    half the pairs (X, Y) with X+ & Y- nonempty and Y != -X, counted here
    by a scan over all pairs."""
    C = circuits_from_arrangement(braid(5))
    masks = [(_mask(X.plus), _mask(X.minus)) for X in C.circuits]
    pairs = sum(1 for xp, xm in masks for yp, ym in masks
                if xp & ym and (xp, xm) != (ym, yp))
    calls = []
    union_over = circuits_module._union_over
    monkeypatch.setattr(circuits_module, "_union_over",
                        lambda tables, mask: calls.append(mask) or union_over(tables, mask))
    assert validate_circuit_axioms(C).ok
    assert pairs > 1000 and pairs % 2 == 0
    assert len(calls) == 2 * (pairs // 2)


def support_scan_oracle(A) -> tuple:
    """(CircuitSet, identities) by one kernel per support, by size up to the
    rank of the homogenized forms plus one, skipping supersets of every
    support found so far: the scan the library's growth replaced."""
    cols = A.integer_forms()
    h0 = () if A.central else ((0,) * A.dim + (-1,),)
    found_masks: list[int] = []
    circuits: list[SignedSet] = []
    identities: list[SignedSet] = []
    for size in range(2, min(A.n, rank(cols) + 1) + 1):
        for supp in combinations(range(A.n), size):
            mask = _mask(supp)
            if any(f & mask == f for f in found_masks):
                continue
            _, kernel = rank_and_kernel(list(zip(*(cols[j] for j in supp), *h0)))
            if not kernel:
                continue
            lam, c = kernel[0][:size], (kernel[0][size] if h0 else 0)
            assert len(kernel) == 1 and 0 not in lam
            plus = frozenset(j for j, x in zip(supp, lam) if x > 0)
            minus = frozenset(j for j, x in zip(supp, lam) if x < 0)
            X = SignedSet(minus, plus) if c > 0 else SignedSet(plus, minus)
            if c:
                identities.append(X)
            else:
                circuits += [X, X.negate()]
            found_masks.append(mask)
    C = CircuitSet(A.labels, circuits, empty_flats=[X.support for X in identities])
    return C, tuple(identities)


def test_growth_scan_matches_support_scan_oracle(corpus_map):
    """The growth scan finds the per-support scan's circuits, minimal empty
    flats and identities, in the same order, on 137 arrangements: the
    corpus, random seeds 1-29, semiorder 4, braid 5 and 6, boolean 6, and
    every deletion, restriction and cone of every corpus member."""
    cases = list(corpus_map.items())
    cases += [(f"random{s}", random_rational_arrangement(seed=s)) for s in range(1, 30)]
    cases += [("semiorder4", semiorder(4)), ("braid5", braid(5)),
              ("braid6", braid(6)), ("boolean6", boolean(6))]
    for name, A in corpus_map.items():
        for lab in A.labels:
            if A.n > 1:
                cases.append((f"{name}-{lab}", delete(A, lab)))
            cases.append((f"{name}/{lab}", restrict(A, lab)))
        cases.append((f"cone {name}", cone(A)))
    assert len(cases) == 137
    for name, A in cases:
        C, identities = circuit_scan(A)
        want_C, want_identities = support_scan_oracle(A)
        assert C.circuits == want_C.circuits, name
        assert C.empty_flats == want_C.empty_flats, name
        assert identities == want_identities, name


@pytest.mark.parametrize("make", [lambda: braid(4), lambda: semiorder(3),
                                  lambda: random_rational_arrangement()],
                         ids=["braid4", "semiorder3", "random8"])
def test_scan_calls_rank_once_and_no_kernel(monkeypatch, make):
    """One scan reduces incrementally: no `rank_and_kernel`, and one `rank`
    call, whose result checks that the grown sets span the forms."""
    A = make()
    calls = Counter()
    with monkeypatch.context() as mp:
        _count_calls(mp, "rank", calls)
        _count_calls(mp, "rank_and_kernel", calls)
        circuit_scan(A)
    assert calls == {"rank": 1}


def test_scan_rank_check_raises_consistency_error(monkeypatch):
    """The `rank` result is used: a rank the grown sets cannot reach is a
    `ConsistencyError`."""
    import arrgr.circuits

    monkeypatch.setattr(arrgr.circuits, "rank", lambda rows: rank(rows) + 1)
    for A in (braid(3), semiorder(2)):
        with pytest.raises(ConsistencyError, match="do not span"):
            circuit_scan(A)


def test_braid7_nbc_counts():
    """The NBC counts of braid 7 (21 hyperplanes) are the coefficients of
    (1 + t)(1 + 2t)...(1 + 6t), the Poincare polynomial of the braid
    arrangement; the growth scan reaches them in about a second."""
    want = [1]
    for k in range(1, 7):
        want = [a + k * b for a, b in zip(want + [0], [0] + want)]
    assert want == [1, 21, 175, 735, 1624, 1764, 720]
    assert nbc_counts(braid(7)) == tuple(want)
