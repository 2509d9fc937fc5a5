import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

import arrgr.arrangement
from arrgr.arrangement import (AffineForm, Arrangement, _cut_rows, _signed,
                               arrangement_from_json, arrangement_to_json,
                               boolean, braid, cone, delete, hyperplane_key,
                               load_arrangement, restrict, restrict_with_map,
                               save_arrangement, semiorder)
from arrgr.circuits import (SignedSet, circuits_from_arrangement, nbc_counts,
                            nbc_sets)
from arrgr.cordovil import minimal_empty_flat_subsets
from arrgr.corpus import (corpus, generic_three_lines, parallel_pair,
                          random_rational_arrangement, single_hyperplane)
from arrgr.errors import DuplicateFormError, InputError
from arrgr.linalg import (SparseEchelon, _primitive_row, rank,
                          strict_feasible)
from arrgr.rees import rees_relation_families
from arrgr.vgring import filtration_profile, vg_relation_families
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


@pytest.mark.parametrize("dim, forms, labels, message", [
    (-1, [], None, "dimension must be nonnegative"),
    (2, [((1, 0), 0), ((1,), 0)], None, "form length does not match the dimension"),
    (1, [((1,), 0)], ["a", "b"], "one label per form required"),
], ids=["negative-dim", "form-length", "labels"])
def test_shape_errors(dim, forms, labels, message):
    with pytest.raises(InputError) as got:
        Arrangement(dim, forms, labels)
    assert str(got.value) == message


def test_equal_forms_and_arrangements_are_equal_dict_keys():
    """Forms with equal coefficients, and arrangements with equal forms and
    labels, compare and hash equal and find each other as dict keys; a
    multiple of a form, or other labels, is another key."""
    f = AffineForm((1, Fraction(1, 2)), 3)
    g = AffineForm((Fraction(2, 2), Fraction(2, 4)), Fraction(6, 2))
    assert f == g and hash(f) == hash(g) and f is not g
    assert {f: "f"}[g] == "f"
    assert f != AffineForm((2, 1), 6) and f != f.homogenized()
    assert len({f, g, AffineForm((2, 1), 6)}) == 2
    A, B = braid(3), braid(3)
    assert A == B and hash(A) == hash(B) and A is not B
    assert {A: "braid3"}[B] == "braid3"
    relabelled = Arrangement(3, A.forms, ["a", "b", "c"])
    assert relabelled != A and relabelled not in {A: 0}
    assert Arrangement(3, A.forms, A.labels) == A and A != A.forms


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


def sibling_search_oracle(A):
    """Chambers by the search before the cut test: a stack pops '+' before
    '-'; a depth whose form's linear part enlarges the echelon of the
    earlier ones pushes both children untested, any other depth tests the
    '+' child, then the '-' child only when the '+' child is feasible (the
    prefix region meets one side).  Both halves are searched: no
    antipodal half."""
    ech = SparseEchelon()
    free = [ech.add({k: x for k, x in enumerate(row[:-1]) if x})
            for row in A.integer_forms()]
    out = []
    stack = [""]
    while stack:
        prefix = stack.pop()
        i = len(prefix)
        if i == A.n:
            out.append(prefix)
            continue
        plus, minus = prefix + "+", prefix + "-"
        if free[i]:
            stack += (minus, plus)
        elif A.signs_feasible(plus):
            if A.signs_feasible(minus):
                stack.append(minus)
            stack.append(plus)
        else:
            stack.append(minus)
    return tuple(out)


def _search_oracle_cases(corpus_map):
    cases = list(corpus_map.items())
    cases += [(f"cone_{name}", cone(A)) for name, A in corpus_map.items()]
    cases += [("braid5", braid(5)), ("braid6", braid(6)),
              ("semiorder4", semiorder(4)), ("boolean7", boolean(7)),
              ("boolean8", boolean(8))]
    cases += [(f"random{s}", random_rational_arrangement(seed=s))
              for s in range(1, 40)]
    cases += [(f"random{s}_9_4", random_rational_arrangement(seed=s, n=9, d=4))
              for s in range(1, 10)]
    return cases


def test_chambers_match_sibling_search_oracle(corpus_map):
    for name, A in _search_oracle_cases(corpus_map):
        assert A.chambers() == sibling_search_oracle(A), name


def _embedded(A, rng):
    """A in dimension A.dim + 2: each linear part a becomes a·M for a random
    integer matrix M of rank A.dim with no zero column, so the chambers are
    A's and the lineality space, ker M, is a plane that no form sees."""
    while True:
        M = [[rng.randint(-2, 2) for _ in range(A.dim + 2)] for _ in range(A.dim)]
        if rank(M) == A.dim and all(any(col) for col in zip(*M)):
            break
    forms = [([sum(a * m for a, m in zip(f.linear, col)) for col in zip(*M)],
              f.constant) for f in A.forms]
    return Arrangement(A.dim + 2, forms, A.labels)


def test_chambers_match_oracles_on_non_essential_arrangements():
    """The search keeps each form on the pivot columns of the echelon of
    the linear parts and searches a central '+' half on {f_0 = 1}; on
    arrangements with a lineality space both oracles, which run on the
    forms as given in dim variables, agree with it."""
    rng = random.Random(3030)
    cases = []
    for s in range(1, 9):
        E = _embedded(random_rational_arrangement(seed=s), rng)
        cases += [(f"random{s}+2", E), (f"cone_random{s}+2", cone(E))]
    for s in (1, 2):
        E = _embedded(random_rational_arrangement(seed=s, n=7, d=4), rng)
        cases += [(f"random{s}_7_4+2", E), (f"cone_random{s}_7_4+2", cone(E))]
    # the first form's first kept entry is negative
    cases += [("negative_lead", Arrangement(
        3, [((-2, 1, 0), 0), ((0, 1, -1), 0), ((1, 1, 1), 0), ((1, -1, 0), 0)]))]
    cases += [("rank1", Arrangement(3, [((0, -2, 3), 0)]))]
    cases += [(f"braid{n}", braid(n)) for n in range(3, 7)]
    cases += [(f"semiorder{n}", semiorder(n)) for n in (3, 4)]
    cases += [("parallel", parallel_pair())]
    assert sum(rank([f.linear for f in A.forms]) < A.dim for _, A in cases) >= 25
    for name, A in cases:
        chambers = A.chambers()
        assert chambers == sibling_search_oracle(A), name
        assert chambers == two_sided_chambers_oracle(A), name


def cut_side_search_oracle(A):
    """Chambers by the search before the face test: free splits and cuts
    as in `Arrangement.chambers`, but when the prefix region misses H_i its
    side is learnt by testing the '+' child on the full forms in dim
    variables.  Both halves are searched: no antipodal half."""
    rows = A.integer_forms()
    sides = [(row[:-1], row[-1]) for row in rows]
    free = _free_depths(A)
    out = []
    stack = [""]
    while stack:
        prefix = stack.pop()
        i = len(prefix)
        if i == A.n:
            out.append(prefix)
            continue
        plus, minus = prefix + "+", prefix + "-"
        if i in free or strict_feasible(_signed(_cut_rows(rows, i), prefix),
                                        dim=A.dim - 1):
            stack += (minus, plus)
        elif strict_feasible(_signed(sides, plus), dim=A.dim):
            stack.append(plus)
        else:
            stack.append(minus)
    return tuple(out)


def test_chambers_match_cut_side_search_oracle(corpus_map):
    for name, A in _search_oracle_cases(corpus_map):
        assert A.chambers() == cut_side_search_oracle(A), name


def _free_depths(A):
    return [i for i in range(A.n) if rank([f.linear for f in A.forms[:i + 1]])
            > rank([f.linear for f in A.forms[:i]])]


def test_cut_rows_are_the_forms_restricted_to_the_hyperplane():
    """Row j of depth i is the primitive positive multiple of w_j on H_i,
    parametrized by every coordinate but the first one p with a_p != 0:
    v_p = -(c + sum_{k != p} a_k v_k) / a_p.  The restricted affine form is
    read off its values at the origin and the unit vectors.  Every form is
    restricted, at free splits too (the search reads the faces of both),
    and row i is zero."""
    cases = [braid(4), semiorder(3), boolean(3), cone(semiorder(2))]
    cases += [random_rational_arrangement(seed=s) for s in (1, 2, 3)]
    cases += [random_rational_arrangement(seed=s, n=9, d=4) for s in (1, 2)]
    checked = 0
    for A in cases:
        rows = A.integer_forms()
        for i, f in enumerate(A.forms):
            p = next(k for k, x in enumerate(f.linear) if x)

            def lift(u):
                v = list(u[:p]) + [Fraction(0)] + list(u[p:])
                v[p] = -(f.constant + sum(a * x for a, x in zip(f.linear, v))) / f.linear[p]
                return v

            points = [[Fraction(0)] * (A.dim - 1)]
            points += [[Fraction(int(k == m)) for k in range(A.dim - 1)]
                       for m in range(A.dim - 1)]
            cut = _cut_rows(rows, i)
            assert len(cut) == A.n and not any(cut[i][0]) and cut[i][1] == 0
            for g, (lin, c) in zip(A.forms, cut):
                values = [sum(a * x for a, x in zip(g.linear, lift(u))) + g.constant
                          for u in points]
                restricted = [x - values[0] for x in values[1:]] + [values[0]]
                assert lin + (c,) == _primitive_row(restricted), (A, i)
                assert all(type(x) is int for x in lin + (c,))
                checked += 1
    assert checked > 400


def test_cut_answers_whether_both_children_are_feasible():
    """For feasible prefixes at depths that are not free splits, the cut
    test in dim - 1 variables is true exactly when both children are
    feasible under plain Fourier-Motzkin elimination, and when it is false
    exactly one child is."""
    def feasible(A, word):
        return fourier_motzkin_oracle(
            [(f.linear, f.constant, 1 if s == "+" else -1)
             for f, s in zip(A.forms, word)], dim=A.dim)

    rng = random.Random(2222)
    cases = [braid(4), semiorder(3), boolean(3), generic_three_lines(),
             parallel_pair(), cone(semiorder(2)), braid(5)]
    cases += [random_rational_arrangement(seed=s) for s in range(1, 9)]
    cases += [random_rational_arrangement(seed=s, n=9, d=4) for s in (1, 2)]
    answers = Counter()
    for A in cases:
        rows = A.integer_forms()
        chambers = A.chambers()
        depths = [i for i in range(A.n) if i not in _free_depths(A)]
        if not depths:
            continue
        for _ in range(40):
            i = rng.choice(depths)
            prefix = rng.choice(chambers)[:i]
            cut = strict_feasible(_signed(_cut_rows(rows, i), prefix), dim=A.dim - 1)
            plus, minus = feasible(A, prefix + "+"), feasible(A, prefix + "-")
            assert cut == (plus and minus), (A, prefix)
            assert plus or minus
            answers[cut] += 1
    assert answers[True] >= 50 and answers[False] >= 50, answers


def _last_split(prefixes, prefix):
    """The depth of the last node on `prefix`'s path with two children
    among `prefixes` (the prefixes of the chambers)."""
    return max(j for j in range(len(prefix))
               if prefix[:j] + "+" in prefixes and prefix[:j] + "-" in prefixes)


def test_chamber_search_tests_only_open_questions(monkeypatch):
    """Fourier-Motzkin is asked nothing at a free split, and every question
    is in the essential coordinates restricted to a hyperplane: rank - 1
    variables on an affine arrangement, rank - 2 on a central one, whose
    '+' half is searched on {f_0 = 1} and asked without its leading '+'.
    Every other node asks one cut question on its hyperplane with the
    prefix's signs; a side question follows exactly the false cuts, on the
    face of the last split k of the node's path: the first k signs and '+'
    for form i, answering whether the '+' child is a chamber prefix.  On a
    central arrangement only prefixes under '+' are asked, whose chambers'
    negations, reversed, are the rest: a boolean arrangement needs no test
    at all.  The search never goes through `sign_constraints`."""
    asked = []  # (dim, sign word, answer)

    def recorded(constraints, dim=None):
        answer = strict_feasible(constraints, dim=dim)
        asked.append((dim, "".join("+" if s > 0 else "-" for *_, s in constraints),
                      answer))
        return answer

    def refused(self, signs):
        raise AssertionError("the search validated a sign word")

    monkeypatch.setattr(arrgr.arrangement, "strict_feasible", recorded)
    monkeypatch.setattr(Arrangement, "sign_constraints", refused)

    def check(A, halves):
        asked.clear()
        chambers = A.chambers()
        free = _free_depths(A)
        prefixes = {c[:i] for c in chambers for i in range(A.n + 1)}
        nodes = sorted({c[:i] for c in chambers for i in range(A.n)
                        if i not in free and c[0] in halves})
        lead = "+" if A.central else ""
        variables = rank([f.linear for f in A.forms]) - 1 - len(lead)
        assert all(d == variables for d, _, _ in asked)
        cuts, sides = [], 0
        calls = iter(asked)
        for _, word, answer in calls:
            word = lead + word
            cuts.append(word)
            both = word + "+" in prefixes and word + "-" in prefixes
            assert answer == both
            if not answer:
                k = _last_split(prefixes, word)
                _, side, plus = next(calls)
                assert lead + side == word[:k] + "+"
                assert plus == (word + "+" in prefixes)
                sides += 1
        assert sorted(cuts) == nodes
        return chambers, sides

    chambers, sides = check(boolean(7), "+")
    assert len(chambers) == 128 and asked == []
    chambers, sides = check(braid(5), "+")
    assert len(chambers) == 120 and sides
    assert any(answer for _, _, answer in asked)
    assert chambers[60:] == tuple(c.translate(str.maketrans("+-", "-+"))
                                  for c in reversed(chambers[:60]))
    assert check(cone(random_rational_arrangement()), "+")[1]
    assert check(semiorder(3), "+-")[1]  # affine: both halves searched
    assert any(w[0] == "-" for _, w, _ in asked)
    assert check(random_rational_arrangement(seed=3, n=9, d=4), "+-")[1]
    assert check(Arrangement(1, [((1,), 0), ((1,), -1), ((1,), 2)]), "+-")[1]


def test_face_answers_the_side_of_a_forced_prefix():
    """For feasible prefixes whose region misses H_i, the face test on the
    last split k (the first k forms restricted to H_k with the prefix's
    signs, and form i restricted to H_k with '+'), in dim - 1 variables,
    answers whether the '+' child is feasible under plain Fourier-Motzkin
    elimination in dim variables; most of the prefixes drawn have forced
    steps between k and i."""
    rng = random.Random(2828)
    cases = [braid(4), braid(5), semiorder(3), generic_three_lines(),
             parallel_pair(), cone(semiorder(2))]
    cases += [random_rational_arrangement(seed=s) for s in range(1, 9)]
    cases += [random_rational_arrangement(seed=s, n=9, d=4) for s in (1, 2)]
    cases += [random_rational_arrangement(seed=s, n=6, d=2) for s in (1, 2)]
    answers = Counter()
    for A in cases:
        rows = A.integer_forms()
        chambers = A.chambers()
        prefixes = {c[:i] for c in chambers for i in range(A.n + 1)}
        missed = sorted({c[:i] for c in chambers for i in range(1, A.n)
                         if not (c[:i] + "+" in prefixes and c[:i] + "-" in prefixes)})
        for prefix in rng.sample(missed, min(40, len(missed))):
            i, k = len(prefix), _last_split(prefixes, prefix)
            face = _cut_rows(rows, k)
            side = _signed(face, prefix[:k]) + [face[i] + (1,)]
            got = strict_feasible(side, dim=A.dim - 1)
            want = fourier_motzkin_oracle(
                [(f.linear, f.constant, 1 if s == "+" else -1)
                 for f, s in zip(A.forms, prefix + "+")], dim=A.dim)
            assert got == want, (A, prefix)
            answers[got, i - k > 1] += 1
    assert all(answers[v, True] >= 50 for v in (True, False)), answers


def test_sign_words_are_checked():
    """A sign is '+' or 1, '-' or -1; anything else, or a word longer than
    the form list, is a one-line InputError, not a silent '-'."""
    A = braid(3)
    assert A.sign_constraints([1, -1, 1]) == A.sign_constraints("+-+")
    assert A.signs_feasible("++") and not A.signs_feasible("+-+")
    assert A.sign_constraints("") == []
    cases = [("+x+", "sign 'x' at position 1 is not '+', '-', 1 or -1"),
             ([1, -1, 5], "sign 5 at position 2 is not '+', '-', 1 or -1"),
             ([[1]], "sign [1] at position 0 is not '+', '-', 1 or -1"),
             ("++++", "sign word of length 4 for 3 forms")]
    for word, message in cases:
        for call in (A.sign_constraints, A.signs_feasible):
            with pytest.raises(InputError) as info:
                call(word)
            assert str(info.value) == message


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


@pytest.mark.parametrize("index", [0.9, 1.0, Fraction(3, 2), Fraction(1), True, None, (1,)],
                         ids=["0.9", "1.0", "fraction", "integral-fraction", "bool",
                              "none", "tuple"])
def test_form_index_refuses_what_is_not_an_int_or_a_label(index):
    """A form is named by its label or by an int that is not a bool;
    anything else is refused with one line naming the value, where a number
    was truncated (0.9 named form 0, Fraction(3, 2) and True form 1)."""
    with pytest.raises(InputError) as info:
        braid(3).form_index(index)
    assert str(info.value) == f"form index {index!r} is not an int or a label"


def test_cached_queries_return_the_same_object():
    A = semiorder(2)
    queries = [A.chambers, A.minimal_infeasible_sign_sets,
               lambda: circuits_from_arrangement(A), lambda: nbc_sets(A),
               lambda: nbc_sets(A, (1, 0)), lambda: filtration_profile(A),
               lambda: minimal_empty_flat_subsets(A),
               lambda: rees_relation_families(A),
               lambda: vg_relation_families(A)]
    for query in queries:
        assert query() is query()


def test_search_with_only_free_splits_restricts_no_form(monkeypatch):
    """When every depth is a free split (boolean n, central or affine)
    nothing is tested, so no form is restricted to the essential columns,
    the decone or a hyperplane."""
    def refused(*args, **kwargs):
        raise AssertionError("a form was restricted")

    monkeypatch.setattr(arrgr.arrangement, "_divide_content", refused)
    monkeypatch.setattr(arrgr.arrangement, "_cut_rows", refused)
    monkeypatch.setattr(arrgr.arrangement, "strict_feasible", refused)
    A = boolean(7)
    assert A.chambers() == tuple("".join(w) for w in product("+-", repeat=7))
    shifted = Arrangement(2, [((1, 0), 1), ((0, 1), -2)])
    assert shifted.chambers() == ("++", "+-", "-+", "--")
