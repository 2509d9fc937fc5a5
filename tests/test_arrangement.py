import json
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from arrgr.arrangement import (AffineForm, Arrangement, arrangement_from_json,
                               arrangement_to_json, boolean, braid, cone,
                               delete, hyperplane_key, load_arrangement,
                               restrict, restrict_with_map, save_arrangement,
                               semiorder)
from arrgr.circuits import (SignedSet, circuits_from_arrangement, nbc_counts,
                            nbc_sets)
from arrgr.cordovil import minimal_empty_flat_subsets
from arrgr.corpus import (corpus, parallel_pair, random_rational_arrangement,
                          single_hyperplane)
from arrgr.errors import DuplicateFormError, InputError
from arrgr.linalg import rank, strict_feasible
from arrgr.rees import rees_relation_families
from arrgr.vgring import filtration_data, vg_relation_families
from test_linalg import fourier_motzkin_oracle


def test_build_point_in_a_line():
    A = Arrangement(1, [((1,), 0)], ["x"])
    assert A.n == 1 and A.dim == 1 and A.central


def test_build_rejects_constant_form():
    with pytest.raises(InputError):
        AffineForm((0, 0), 1)


def test_build_rejects_duplicates():
    with pytest.raises(DuplicateFormError):
        Arrangement(1, [((1,), 0), ((1,), 0)])
    with pytest.raises(DuplicateFormError):
        Arrangement(2, [((1, 0), 0), ((2, 0), 0)])
    # a negative multiple is the same hyperplane with opposite orientation
    with pytest.raises(DuplicateFormError):
        Arrangement(2, [((1, 0), 0), ((-1, 0), 0)])


def test_duplicate_error_names_the_least_pair():
    # classes {0, 3} and {1, 2}: the pair scanned first is (0, 3), not the
    # pair (1, 2) whose second member comes first
    with pytest.raises(DuplicateFormError) as got:
        Arrangement(2, [((1, 0), 0), ((0, 1), 0), ((0, -2), 0), ((3, 0), 0)])
    assert str(got.value) == "forms 'H1' and 'H4' define the same hyperplane"


def proportional_oracle(a, b) -> bool:
    """True iff some nonzero rational multiple of row `a` equals row `b`."""
    if len(a) != len(b):
        return False
    lead = next(i for i, x in enumerate(a) if x != 0)
    if b[lead] == 0:
        return False
    scale = b[lead] / a[lead]
    return all(scale * x == y for x, y in zip(a, b))


def _random_row(rng, width):
    while True:
        row = tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
                    for _ in range(width))
        if any(row):
            return row


def test_hyperplane_key_matches_proportional_oracle():
    """Equal keys iff the rows are proportional; the key is the primitive
    integer row with a positive lead, and `sign` is the sign of the scalar
    taking the row to its key."""
    rng = random.Random(7)
    rows = []
    for _ in range(60):
        row = _random_row(rng, rng.choice((2, 3)))
        scale = Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 4))
        rows += [row, tuple(scale * x for x in row)]
    for row in rows:
        key, sign = hyperplane_key(row)
        lead = next(i for i, x in enumerate(row) if x)
        scale = key[lead] / row[lead]
        assert all(type(x) is int for x in key)
        assert next(x for x in key if x) > 0
        assert all(scale * x == y for x, y in zip(row, key))
        assert sign == (1 if scale > 0 else -1)
    pairs = 0
    for a, b in combinations(rows, 2):
        same = proportional_oracle(a, b)
        assert (hyperplane_key(a)[0] == hyperplane_key(b)[0]) == same, (a, b)
        pairs += same
    assert pairs >= 60


def test_find_form_reads_index_and_sign():
    A = braid(3)
    assert A.find_form((2, -2, 0, 0)) == (0, 1)
    assert A.find_form(("0", "-1/2", "1/2", "0")) == (2, -1)
    assert A.find_form((1, 1, 0, 0)) is None


def test_integer_labels_read_as_strings():
    A = arrangement_from_json({"dim": 1, "forms": [
        {"linear": [1], "constant": 0, "label": 7}]})
    assert A.labels == ("7",)


def test_parallel_forms_are_not_duplicates():
    A = Arrangement(1, [((1,), 0), ((1,), -1)])
    assert A.n == 2


def test_distinct_labels_required():
    with pytest.raises(InputError):
        Arrangement(1, [((1,), 0), ((1,), -1)], ["a", "a"])


def test_braid_generator():
    assert braid(2).n == 1
    assert braid(3).n == 3
    B4 = braid(4)
    assert B4.n == 6
    assert B4.labels == ("12", "13", "14", "23", "24", "34")
    assert len(B4.chambers()) == 24
    with pytest.raises(InputError):
        braid(1)


def test_semiorder_generator():
    assert semiorder(2).n == 2
    S = semiorder(3)
    assert S.n == 6
    assert len(S.chambers()) == 19
    with pytest.raises(InputError):
        semiorder(1)


def test_boolean_generator():
    assert boolean(3).n == 3
    assert len(boolean(3).chambers()) == 8
    with pytest.raises(InputError):
        boolean(0)


def test_cone_of_point_in_a_line():
    C = cone(single_hyperplane())
    assert C.dim == 2 and C.n == 2 and C.central
    assert C.labels[-1] == "H0"
    # forms are x and -r
    assert C.forms[0].homogenized() == (1, 0, 0)
    assert C.forms[1].homogenized() == (0, -1, 0)


def test_cone_of_semiorder2():
    C = cone(semiorder(2))
    assert C.dim == 3 and C.n == 3 and C.central


def test_cone_poincare_factorization_semiorder3():
    S = semiorder(3)
    base = nbc_counts(S)
    coned = nbc_counts(cone(S))
    want = tuple((base[k] if k < len(base) else 0)
                 + (base[k - 1] if 0 < k <= len(base) else 0)
                 for k in range(len(base) + 1))
    assert coned == want  # (1 + t^2) factor


def test_cone_label_collision():
    A = Arrangement(1, [((1,), 0)], ["H0"])
    with pytest.raises(InputError):
        cone(A)


def test_delete():
    A = delete(braid(3), "12")
    assert A.n == 2 and A.labels == ("13", "23")
    with pytest.raises(InputError):
        delete(braid(3), "99")


def test_restrict_braid3():
    R, prov = restrict_with_map(braid(3), "12")
    assert R.dim == 2 and R.n == 1
    assert R.labels == ("13",)
    assert prov == {"13": "13", "23": "13"}


def test_restrict_collapses_a_negative_multiple_onto_the_first_label():
    # on H = {y = 0}, a = x + y restricts to x and b = -2x + y to -2x
    A = Arrangement(2, [((1, 1), 0), ((-2, 1), 0), ((0, 1), 0)], ["a", "b", "h"])
    R, prov = restrict_with_map(A, "h")
    assert R.labels == ("a",)
    assert R.forms[0].homogenized() == (1, 0)
    assert prov == {"a": "a", "b": "a"}


def test_restrict_parallel_drops_out():
    R = restrict(parallel_pair(), 0)
    assert R.dim == 0 and R.n == 0
    assert R.chambers() == ("",)


def test_chambers_point_in_a_line():
    A = single_hyperplane()
    assert A.chambers() == ("+", "-")


def test_chambers_braid3():
    assert len(braid(3).chambers()) == 6


def test_chambers_lexicographic_and_exhaustive(corpus_map):
    for name in ("single", "parallel", "braid3", "semiorder2", "boolean3",
                 "generic3", "braid4", "semiorder3"):
        A = corpus_map[name]
        ch = A.chambers()
        assert list(ch) == sorted(ch)
        brute = ["".join(p) for p in product("+-", repeat=A.n)
                 if A.signs_feasible("".join(p))]
        assert sorted(brute) == sorted(ch)


def two_sided_chambers_oracle(A):
    """Chambers by a search that tests both children of every feasible
    prefix with plain Fourier-Motzkin elimination (`fourier_motzkin_oracle`)
    on the forms as given, in the order '+' then '-': no free split, no
    sibling inference, no antipodal half."""
    def feasible(prefix):
        return fourier_motzkin_oracle(
            [(f.linear, f.constant, 1 if s == "+" else -1)
             for f, s in zip(A.forms, prefix)], dim=A.dim)

    def walk(prefix):
        if len(prefix) == A.n:
            yield prefix
            return
        for s in "+-":
            if feasible(prefix + s):
                yield from walk(prefix + s)
    return tuple(walk(""))


def test_chambers_match_two_sided_oracle(corpus_map):
    cases = list(corpus_map.items())
    cases += [(f"random{s}", random_rational_arrangement(seed=s)) for s in (1, 2, 3)]
    cases += [("semiorder4", semiorder(4)), ("braid5", braid(5)),
              ("boolean7", boolean(7)),
              ("cone_random8", cone(random_rational_arrangement()))]
    for name, A in cases:
        assert A.chambers() == two_sided_chambers_oracle(A), name


def test_chamber_search_tests_only_open_questions(monkeypatch):
    """Fourier-Motzkin is asked only at depths whose form is not a free
    split, and on a central arrangement only under the prefix '+', whose
    chambers' negations, reversed, are the rest: a boolean arrangement
    needs no test at all."""
    asked = []
    signs_feasible = Arrangement.signs_feasible
    monkeypatch.setattr(Arrangement, "signs_feasible",
                        lambda self, signs: asked.append(signs)
                        or signs_feasible(self, signs))
    assert len(boolean(7).chambers()) == 128
    assert asked == []
    A = braid(5)
    free = [i for i in range(A.n) if rank([f.linear for f in A.forms[:i + 1]])
            > rank([f.linear for f in A.forms[:i]])]
    chambers = A.chambers()
    assert len(chambers) == 120 and asked
    assert all(len(p) - 1 not in free and p[0] == "+" for p in asked)
    assert chambers[60:] == tuple(c.translate(str.maketrans("+-", "-+"))
                                  for c in reversed(chambers[:60]))
    asked.clear()
    cone(random_rational_arrangement()).chambers()
    assert asked and all(p[0] == "+" for p in asked)
    asked.clear()
    random_rational_arrangement().chambers()  # affine: both halves searched
    assert any(p[0] == "-" for p in asked)


def test_chamber_deletion_restriction_count(corpus_map):
    for name, A in corpus_map.items():
        for lab in A.labels:
            total = len(A.chambers())
            assert total == (len(delete(A, lab).chambers())
                             + len(restrict(A, lab).chambers())), (name, lab)


def test_cone_doubles_chambers(corpus_map):
    for name, A in corpus_map.items():
        assert len(cone(A).chambers()) == 2 * len(A.chambers()), name


def test_flat_nonempty():
    A = parallel_pair()
    assert A.flat_nonempty(())
    assert A.flat_nonempty((0,))
    assert not A.flat_nonempty((0, 1))
    assert braid(3).flat_nonempty((0, 1, 2))  # the line x1 = x2 = x3


def test_minimal_infeasible_single():
    assert single_hyperplane().minimal_infeasible_sign_sets() == ()


def test_minimal_infeasible_parallel_pair():
    got = parallel_pair().minimal_infeasible_sign_sets()
    assert got == (SignedSet(frozenset({1}), frozenset({0})),)


def test_minimal_infeasible_braid3():
    got = set(braid(3).minimal_infeasible_sign_sets())
    X = SignedSet(frozenset({0, 2}), frozenset({1}))
    assert got == {X, X.negate()}


def test_minimal_infeasible_negation_closed_central(central_map):
    for name, A in central_map.items():
        got = set(A.minimal_infeasible_sign_sets())
        assert got == {X.negate() for X in got}, name


def fm_feasible(A, X):
    """Fourier-Motzkin test: the open intersection of X's half-spaces is
    nonempty."""
    return strict_feasible([(A.forms[i].linear, A.forms[i].constant, X.sign(i))
                            for i in sorted(X.support)], dim=A.dim)


def minimal_infeasible_oracle(A):
    """One Fourier-Motzkin test per sign pattern over every support size,
    uncapped; skips supersets of earlier hits, in the library's scan order."""
    found = []
    for size in range(1, A.n + 1):
        for supp in combinations(range(A.n), size):
            for pattern in product((1, -1), repeat=size):
                plus = frozenset(i for i, s in zip(supp, pattern) if s > 0)
                minus = frozenset(i for i, s in zip(supp, pattern) if s < 0)
                X = SignedSet(plus, minus)
                if any(f.issubset(X) for f in found):
                    continue
                if not fm_feasible(A, X):
                    found.append(X)
    return tuple(found)


def chamber_minimal_infeasible_oracle(A):
    """Read off the chambers: an open signed set is nonempty iff some
    chamber's sign vector restricts to it.  Supports are capped at dim + 1
    (Helly), scanned by size with '+' before '-', skipping supersets of
    earlier hits."""
    tope_plus = [sum(1 << i for i, s in enumerate(c) if s == "+")
                 for c in A.chambers()]
    found = []
    for size in range(1, min(A.n, A.dim + 1) + 1):
        for supp in combinations(range(A.n), size):
            mask = sum(1 << i for i in supp)
            realized = {p & mask for p in tope_plus}
            for pattern in product((1, -1), repeat=size):
                plus = frozenset(i for i, s in zip(supp, pattern) if s > 0)
                X = SignedSet(plus, frozenset(supp) - plus)
                if any(f.issubset(X) for f in found):
                    continue
                if sum(1 << i for i in plus) not in realized:
                    found.append(X)
    return tuple(found)


def test_minimal_infeasible_matches_chamber_oracle(corpus_map):
    """Circuits plus one set per minimal empty flat, against the chamber
    read-off.  Semiorder 4 and random seed 4 have affine circuits that
    fail the central elimination axiom across an empty flat."""
    cases = dict(corpus_map, semiorder4=semiorder(4), braid5=braid(5),
                 **{f"random_seed{k}": random_rational_arrangement(seed=k)
                    for k in (1, 2, 3, 4)})
    for name, A in cases.items():
        assert (A.minimal_infeasible_sign_sets()
                == chamber_minimal_infeasible_oracle(A)), name


def test_minimal_infeasible_minimality(corpus_map):
    for name, A in corpus_map.items():
        if A.n > 6:
            continue
        for X in A.minimal_infeasible_sign_sets():
            assert not fm_feasible(A, X)
            for i in sorted(X.support):
                smaller = SignedSet(X.plus - {i}, X.minus - {i})
                assert fm_feasible(A, smaller), (name, X, i)


def test_minimal_infeasible_matches_fm_oracle(corpus_map):
    """Against one FM test per pattern over every support size; on random
    seed 1 the largest support is 4 = dim + 1."""
    cases = dict(corpus_map, random_seed1=random_rational_arrangement(seed=1))
    for name, A in cases.items():
        assert A.minimal_infeasible_sign_sets() == minimal_infeasible_oracle(A), name


def test_json_roundtrip(tmp_path, corpus_map):
    for name, A in corpus_map.items():
        data = arrangement_to_json(A)
        assert arrangement_from_json(data) == A
        path = tmp_path / f"{name}.json"
        save_arrangement(A, path)
        assert load_arrangement(path) == A
    # rationals serialize canonically
    from fractions import Fraction
    A = Arrangement(1, [(((Fraction(1, 2),)), 0)])
    txt = json.dumps(arrangement_to_json(A))
    assert "1/2" in txt


def test_load_reports_line_context(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 1,\n  "forms": [oops]}\n')
    with pytest.raises(InputError, match="line 2"):
        load_arrangement(path)


def test_form_index_lookup():
    A = braid(3)
    assert A.form_index("13") == 1
    assert A.form_index(2) == 2
    with pytest.raises(InputError):
        A.form_index(7)


def test_cached_queries_return_the_same_object():
    A = semiorder(2)
    queries = [A.chambers, A.minimal_infeasible_sign_sets,
               lambda: circuits_from_arrangement(A), lambda: nbc_sets(A),
               lambda: nbc_sets(A, (1, 0)), lambda: filtration_data(A),
               lambda: filtration_data(A, reverse=True),
               lambda: minimal_empty_flat_subsets(A),
               lambda: rees_relation_families(A),
               lambda: vg_relation_families(A)]
    for query in queries:
        assert query() is query()
    assert [A.chamber_index(c) for c in A.chambers()] == list(range(3))
