import json
import random
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

import arrgr.symmetry
from arrgr.acceptance import _chamber_keys, _keyed_column
from arrgr.arrangement import Arrangement, boolean, braid, semiorder
from arrgr.characters import cycle_type, partition_str, partitions
from arrgr.circuits import nbc_counts, nbc_sets
from arrgr.corpus import central_corpus
from arrgr.errors import ConsistencyError, InputError, NotASymmetryError
from arrgr.linalg import SparseEchelon, frac
from arrgr.symmetry import (SignedPermutation, chamber_permutation,
                            coordinate_action, fixed_chambers,
                            graded_character, group_from_json, load_group)
from arrgr.vgring import filtration_profile, monomial_eval, monomial_mask
from test_linalg import fraction_rref_oracle, nbc_filtration, nbc_grades


def swap_matrix(n, a, b):
    m = [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
         for i in range(n)]
    m[a][a] = m[b][b] = Fraction(0)
    m[a][b] = m[b][a] = Fraction(1)
    return m


def derive_signed_permutation(A, matrix, translation=None) -> SignedPermutation:
    """The signed form permutation induced by the affine map v -> Mv + t,
    from the matrix side: M^{-1} and M^{-1} t by Fraction Gauss-Jordan
    (`fraction_rref_oracle`), then each form composed with the inverse map
    and looked up.  The oracle for `coordinate_action`, which reads the
    images off the forms' permuted integer rows instead.  Each form
    composed with the inverse map must be a multiple of a form (its flip
    is the sign), or the map is not a symmetry."""
    d = A.dim
    M = [[frac(x) for x in row] for row in matrix]
    if len(M) != d or any(len(row) != d for row in M):
        raise InputError("matrix must be square of the arrangement dimension")
    t = [frac(x) for x in (translation if translation is not None else [0] * d)]
    if len(t) != d:
        raise InputError("translation length mismatch")
    # columns of M^{-1} and the vector M^{-1} t
    rows_aug = [M[r] + [Fraction(int(c == r)) for c in range(d)] + [t[r]]
                for r in range(d)]
    red, pivots = fraction_rref_oracle(rows_aug)
    if pivots != list(range(d)):
        raise InputError("symmetry matrix is singular")
    Minv = [[red[r][d + c] for c in range(d)] for r in range(d)]
    Minv_t = [red[r][2 * d] for r in range(d)]
    perm, flips = [], []
    for i, f in enumerate(A.forms):
        lin = tuple(sum(f.linear[r] * Minv[r][c] for r in range(d)) for c in range(d))
        const = f.constant - sum(f.linear[r] * Minv_t[r] for r in range(d))
        hit = A.find_form(lin + (const,))
        if hit is None:
            raise NotASymmetryError(
                f"image of form {A.labels[i]!r} is not in the arrangement")
        perm.append(hit[0])
        flips.append(hit[1])
    return SignedPermutation(tuple(perm), tuple(flips))


def test_derive_braid3_swap12():
    A = braid(3)
    w = derive_signed_permutation(A, swap_matrix(3, 0, 1))
    # 12 -> 12 with a flip, 13 <-> 23 without
    assert w.perm == (0, 2, 1)
    assert w.flips == (-1, 1, 1)


def test_derive_semiorder3_swap_is_unsigned():
    S = semiorder(3)
    w = derive_signed_permutation(S, swap_matrix(3, 0, 1))
    assert all(s == 1 for s in w.flips)
    lab = dict(zip(S.labels, (S.labels[j] for j in w.perm)))
    assert lab["12"] == "21" and lab["13"] == "23" and lab["31"] == "32"


def test_derive_identity():
    A = braid(3)
    eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert derive_signed_permutation(A, eye) == SignedPermutation.identity(3)


def test_derive_rejects_non_symmetry():
    A = braid(3)
    shear = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(NotASymmetryError):
        derive_signed_permutation(A, shear)
    with pytest.raises(InputError):
        derive_signed_permutation(A, [[0, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_signed_permutation_composition_matches_maps():
    A = braid(3)
    w1 = derive_signed_permutation(A, swap_matrix(3, 0, 1))
    w2 = derive_signed_permutation(A, swap_matrix(3, 1, 2))
    m = [[sum(swap_matrix(3, 0, 1)[i][k] * swap_matrix(3, 1, 2)[k][j]
              for k in range(3)) for j in range(3)] for i in range(3)]
    assert w1.compose(w2) == derive_signed_permutation(A, m)
    assert w1.compose(w1) == SignedPermutation.identity(3)
    assert w1.inverse() == w1


@pytest.mark.parametrize("make, message", [
    (lambda: SignedPermutation((0, 0), (1, 1)), "signed permutation data malformed"),
    (lambda: SignedPermutation((0, 1), (1,)), "signed permutation data malformed"),
    (lambda: SignedPermutation((0, 1), (1, 0)), "flips must be +1 or -1"),
    (lambda: SignedPermutation.identity(2).compose(SignedPermutation.identity(3)),
     "size mismatch in composition"),
    (lambda: derive_signed_permutation(braid(3), [[1, 0], [0, 1]]),
     "matrix must be square of the arrangement dimension"),
    (lambda: derive_signed_permutation(braid(3), [[1, 0, 0], [0, 1], [0, 0, 1]]),
     "matrix must be square of the arrangement dimension"),
    (lambda: derive_signed_permutation(braid(3), swap_matrix(3, 0, 1), [0, 0]),
     "translation length mismatch"),
], ids=["repeated-image", "short-flips", "zero-flip", "compose-sizes",
        "matrix-size", "ragged-matrix", "translation-length"])
def test_signed_permutation_errors(make, message):
    with pytest.raises(InputError) as exc:
        make()
    assert str(exc.value) == message


def test_chamber_permutation_identity():
    A = braid(3)
    assert chamber_permutation(A, SignedPermutation.identity(3)) \
        == tuple(range(6))


def test_braid3_transpositions_act_freely():
    A = braid(3)
    for a, b in ((0, 1), (0, 2), (1, 2)):
        w = derive_signed_permutation(A, swap_matrix(3, a, b))
        assert fixed_chambers(A, w) == 0


def test_semiorder3_transposition_fixes_three_chambers():
    S = semiorder(3)
    w = derive_signed_permutation(S, swap_matrix(3, 0, 1))
    assert fixed_chambers(S, w) == 3


def test_chamber_permutation_size_mismatch():
    with pytest.raises(InputError):
        chamber_permutation(braid(3), SignedPermutation.identity(2))


def chamber_permutation_oracle(A, w):
    """The chamber map through sign strings: each chamber's image sign
    vector, with flip_i times sign i at perm(i), looked up in a string-keyed
    index of the chambers."""
    index = {signs: c for c, signs in enumerate(A.chambers())}
    out = []
    for signs in A.chambers():
        img = [None] * A.n
        for i, (j, flip) in enumerate(zip(w.perm, w.flips)):
            img[j] = "+" if (signs[i] == "+") == (flip > 0) else "-"
        img = "".join(img)
        if img not in index:
            raise ConsistencyError(f"image sign vector {img} is not a chamber")
        out.append(index[img])
    return tuple(out)


def test_chamber_permutation_matches_sign_string_oracle(corpus_map):
    """The chamber map on plus-masks equals the sign-string map for the
    identity, every coordinate class representative and -id on the corpus,
    braid 5 and semiorder 4, and for every element of a group file listing
    S4 on braid 4, flips included."""
    cases = dict(corpus_map, braid5=braid(5), semiorder4=semiorder(4))
    for name, A in cases.items():
        elements = [SignedPermutation.identity(A.n)]
        try:
            elements += coordinate_action(A).representatives
        except NotASymmetryError:
            pass
        if A.central:
            elements.append(SignedPermutation(tuple(range(A.n)), (-1,) * A.n))
        for w in elements:
            assert chamber_permutation(A, w) == chamber_permutation_oracle(A, w), name
    A = braid(4)
    elements = coordinate_action_oracle(A)[0]
    listed = group_from_json(A, group_file(A, "S4", elements))
    assert any(-1 in w.flips for w in listed.representatives)
    for w in elements + listed.representatives:
        assert chamber_permutation(A, w) == chamber_permutation_oracle(A, w)


def test_coordinate_action_group():
    G = coordinate_action(braid(3))
    assert G.order == 6
    assert G.class_labels == ("(1,1,1)", "(2,1)", "(3)")
    assert G.class_sizes == (1, 3, 2)
    # the identity, the transposition (0 1) and the 3-cycle (0 1 2)
    assert [w.perm for w in G.representatives] == [(0, 1, 2), (0, 2, 1), (2, 0, 1)]
    assert not hasattr(G, "elements") and not hasattr(G, "class_of")


def coordinate_action_oracle(A):
    """(elements, class_of, class_labels, cycle_types) of the coordinate
    action, each element derived from its permutation matrix by
    `derive_signed_permutation`; elements in `permutations` order, classes
    numbered by their sorted cycle-type labels."""
    n = A.dim
    elements, types = [], []
    for g in permutations(range(n)):
        # the matrix sending e_i to e_{g(i)}
        M = [[int(g[c] == r) for c in range(n)] for r in range(n)]
        elements.append(derive_signed_permutation(A, M))
        types.append(cycle_type(g))
    by_label = {partition_str(t): t for t in types}
    labels = sorted(by_label)
    class_of = tuple(labels.index(partition_str(t)) for t in types)
    return (tuple(elements), class_of, tuple(labels),
            tuple(by_label[x] for x in labels))


NOT_IN_THE_ARRANGEMENT = r"^image of form '[^']*' is not in the arrangement$"


def test_coordinate_action_matches_derived_oracle(corpus_map):
    """The class representatives against the whole group, every element
    derived from its matrix: same labels and cycle types, sizes equal to
    the oracle's class counts, and each representative in its class.  An
    arrangement that some coordinate permutation does not preserve is
    refused by both; the first failing representative may name another
    form than the first failing permutation does."""
    cases = dict(corpus_map, braid5=braid(5), boolean5=boolean(5),
                 semiorder4=semiorder(4))
    checked = []
    for name, A in cases.items():
        try:
            elements, class_of, labels, types = coordinate_action_oracle(A)
        except NotASymmetryError:
            with pytest.raises(NotASymmetryError, match=NOT_IN_THE_ARRANGEMENT):
                coordinate_action(A)
            continue
        G = coordinate_action(A)
        assert (G.class_labels, G.cycle_types) == (labels, types), name
        sizes = tuple(class_of.count(c) for c in range(len(labels)))
        assert G.class_sizes == sizes, name
        for c, w in enumerate(G.representatives):
            assert w in {e for e, k in zip(elements, class_of) if k == c}, (name, c)
        assert G.name == f"S{A.dim}-coordinates"
        checked.append(name)
    assert {"braid5", "boolean5", "semiorder4"} <= set(checked)
    with pytest.raises(NotASymmetryError) as got:
        coordinate_action(corpus_map["random8"])
    assert str(got.value) == "image of form 'g1' is not in the arrangement"


@pytest.mark.parametrize("forms", [
    [(1, -1, 0)],                       # kept by (0 1), not by (0 1 2)
    [(1, 0, -1), (0, 1, 0)],            # kept by (0 2), not by (0 1)
    [(1, 2, 0), (0, 1, 2), (2, 0, 1)],  # kept by (0 1 2), not by (0 1)
    # kept by (0 1) and (0 1)(2 3), not by (0 1 2)
    [(1, -1, 0, 0), (0, 0, 1, -1)],
], ids=["x0-x1", "x0-x2,x1", "cyclic", "two-pairs"])
def test_coordinate_action_refuses_partly_symmetric_arrangements(forms):
    """Arrangements kept by some coordinate permutations but not by all:
    the oracle and `coordinate_action` both refuse them."""
    A = Arrangement(len(forms[0]), [(f, 0) for f in forms])
    with pytest.raises(NotASymmetryError):
        coordinate_action_oracle(A)
    with pytest.raises(NotASymmetryError, match=NOT_IN_THE_ARRANGEMENT):
        coordinate_action(A)


@pytest.mark.parametrize("n", range(3, 9))
def test_coordinate_action_looks_up_each_form_once_per_class(monkeypatch, n):
    A = braid(n)
    calls = []
    real = Arrangement.find_form

    def counted(self, row):
        calls.append(row)
        return real(self, row)

    monkeypatch.setattr(Arrangement, "find_form", counted)
    G = coordinate_action(A)
    assert len(calls) == len(partitions(n)) * A.n
    assert G.n_classes == len(partitions(n)) and G.order == factorial(n)


def stability_oracle(A, bases, perms, upto_grade):
    """Every stage P^k must be carried into itself by each chamber
    permutation.  Stage k's columns join the echelon, which then spans
    P^k, and their images must lie in it; the images of the earlier
    columns were checked in P^{k-1}, which P^k contains.  Columns are the
    monomials' chamber masks, keyed by chamber plus-count as in the
    filtration echelon; the image of chamber i is chamber perm[i].
    `graded_character` relies on this stability without checking it."""
    keys = _chamber_keys(A)
    image_keys = [[keys[j] for j in perm] for perm in perms]
    ech = SparseEchelon()
    for k in range(upto_grade + 1):
        masks = [monomial_mask(A, subset) for subset in bases[k]]
        for mask in masks:
            ech.add(_keyed_column(mask, keys))
        for moved in image_keys:
            for mask in masks:
                if not ech.contains(_keyed_column(mask, moved)):
                    raise ConsistencyError(
                        f"filtration stage {k} is not W-stable")


def test_check_stable_rejects_a_non_symmetric_chamber_permutation():
    A = braid(4)
    dims, bases = nbc_filtration(A)
    top = max(k for k in range(len(dims)) if bases[k])
    identity = list(range(len(A.chambers())))
    stability_oracle(A, bases, [identity], top)
    shuffled = identity[:]
    random.Random(4).shuffle(shuffled)
    with pytest.raises(ConsistencyError, match="not W-stable"):
        stability_oracle(A, bases, [identity, shuffled], top)


def test_every_stage_is_stable_under_the_class_representatives(corpus_map):
    """The stability `graded_character` takes by construction, checked by
    the oracle on every corpus member with a coordinate action and on
    three larger members."""
    cases = dict(corpus_map, braid5=braid(5), boolean5=boolean(5),
                 semiorder4=semiorder(4))
    checked = []
    for name, A in cases.items():
        try:
            group = coordinate_action(A)
        except NotASymmetryError:
            continue
        dims, bases = nbc_filtration(A)
        top = max(k for k in range(len(dims)) if bases[k])
        perms = [chamber_permutation(A, w) for w in group.representatives]
        stability_oracle(A, bases, perms, top)
        checked.append(name)
    assert {"braid5", "boolean5", "semiorder4"} <= set(checked)


def test_cached_filtration_characters_run_no_echelon(monkeypatch):
    """With the filtration cached, the characters insert no echelon
    column: each stage's stability is not re-derived.  The only inserts
    are the rows of [B | I] inside the one `solve_square`, one per
    chamber."""
    A = braid(4)
    group = coordinate_action(A)
    filtration_profile(A)
    adds = []  # per insert: whether it ran inside solve_square
    solving = [False]
    real_add = SparseEchelon.add
    real_solve = arrgr.symmetry.solve_square

    def counted(self, column):
        adds.append(solving[0])
        return real_add(self, column)

    def solve(B):
        solving[0] = True
        inverse = real_solve(B)
        solving[0] = False
        return inverse

    monkeypatch.setattr(SparseEchelon, "add", counted)
    monkeypatch.setattr(arrgr.symmetry, "solve_square", solve)
    graded_character(A, group)
    assert adds == [True] * 24


def test_one_solve_per_call(monkeypatch):
    """Each call of `graded_character` solves B⁻¹ once, on the square
    chamber evaluation matrix of the whole basis, and shares it with every
    class; nothing is memoized, so a second call solves again."""
    calls = []
    real = arrgr.symmetry.solve_square

    def counted(B):
        calls.append(len(B))
        return real(B)

    monkeypatch.setattr(arrgr.symmetry, "solve_square", counted)
    A = braid(4)
    group = coordinate_action(A)
    assert group.n_classes == 5
    graded_character(A, group)
    # one square solve over the 24 chambers, not one per stage or class
    assert calls == [24]
    graded_character(A, group)
    assert calls == [24, 24]


def test_graded_character_refuses_a_non_integral_inverse(monkeypatch):
    """B⁻¹ is integral, so a row of `solve_square` with a denominator
    other than 1 raises instead of entering the characters."""
    real = arrgr.symmetry.solve_square

    def halved(B):
        out = real(B)
        assert all(p == 1 for _, p in out)
        return [(row, 2 if c == len(out) - 1 else p) for c, (row, p) in enumerate(out)]

    monkeypatch.setattr(arrgr.symmetry, "solve_square", halved)
    A = braid(3)
    with pytest.raises(ConsistencyError) as exc:
        graded_character(A, coordinate_action(A))
    assert str(exc.value) == "the inverse of the NBC evaluation matrix is not integral"


def test_graded_character_refuses_a_basis_short_of_the_chambers(monkeypatch):
    """A basis that misses one monomial has fewer columns than chambers, so
    B is not square and the characters raise."""
    real = arrgr.symmetry.nbc_sets

    def short(A):
        basis = real(A)
        return basis[:1] + basis[2:]  # without the first grade-1 set

    monkeypatch.setattr(arrgr.symmetry, "nbc_sets", short)
    A = braid(3)
    with pytest.raises(ConsistencyError) as exc:
        graded_character(A, coordinate_action(A))
    assert str(exc.value) == ("the top filtration stage is not every "
                              "function on the chambers")


def test_graded_character_refuses_characters_that_do_not_sum(monkeypatch):
    """An integral B⁻¹ with two rows swapped is not the inverse: the
    identity's diagonal loses two ones, so the graded characters no longer
    sum to the chamber character."""
    real = arrgr.symmetry.solve_square

    def swapped(B):
        out = real(B)
        out[0], out[1] = out[1], out[0]
        return out

    monkeypatch.setattr(arrgr.symmetry, "solve_square", swapped)
    A = braid(3)
    with pytest.raises(ConsistencyError) as exc:
        graded_character(A, coordinate_action(A))
    assert str(exc.value) == "graded characters do not sum to the chamber character"


def test_chamber_map_of_a_repeated_chamber_is_not_a_permutation():
    """A chamber listed twice has one plus-mask at two places, so even the
    identity sends both to the same chamber."""
    A = braid(3)
    chambers = braid(3).chambers()
    A._cache["chambers"] = chambers + chambers[:1]
    with pytest.raises(ConsistencyError) as exc:
        chamber_permutation(A, SignedPermutation.identity(A.n))
    assert str(exc.value) == "chamber map is not a permutation"


def test_decompositions_need_a_symmetric_group():
    """A group file not named S<n> has no cycle types, so its characters
    have no irreducible decomposition."""
    A = braid(3)
    gc = graded_character(A, group_from_json(A, {"group": "W", "action": [IDENTITY3]}))
    assert gc.group.cycle_types is None
    with pytest.raises(InputError) as exc:
        gc.decompositions()
    assert str(exc.value) == "irreducible decomposition needs a symmetric group"


@pytest.mark.parametrize("A", [braid(4), semiorder(3)], ids=["braid4", "semiorder3"])
def test_solve_gets_the_sparse_rows_of_the_masks(monkeypatch, A):
    """`solve_square` gets the rows of B read off the chamber masks: one
    entry per chamber of each basis monomial's mask; no dense row of
    zeros."""
    entries = []
    real = arrgr.symmetry.solve_square

    def spy(B):
        entries.append(sum(map(len, B)))
        return real(B)

    monkeypatch.setattr(arrgr.symmetry, "solve_square", spy)
    graded_character(A, coordinate_action(A))
    masks = [monomial_mask(A, s) for s in nbc_sets(A)]
    assert entries == [sum(m.bit_count() for m in masks)]


def _mobius(d):
    out, p = 1, 2
    while d > 1:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            out = -out
        p += 1
    return out


def lie_character(mu):
    """The character of the Lie representation Lie_n on cycle type mu:
    μ(d) (n/d - 1)! d^(n/d - 1) on d^(n/d), with μ the Möbius function,
    and zero elsewhere."""
    d, k = mu[0], len(mu)
    if any(part != d for part in mu):
        return 0
    return _mobius(d) * factorial(k - 1) * d ** (k - 1)


@pytest.fixture(scope="module")
def braid_characters():
    out = {}
    for n in (3, 4, 5):
        A = braid(n)
        out[n] = (A, graded_character(A, coordinate_action(A)))
    return out


@pytest.mark.parametrize("n", (3, 4, 5))
def test_braid_top_grade_is_the_lie_character(braid_characters, n):
    _, gc = braid_characters[n]
    assert len(gc.grade_values) == n
    assert gc.grade_values[-1] == tuple(lie_character(mu)
                                        for mu in gc.group.cycle_types)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_braid_identity_values_are_the_nbc_counts(braid_characters, n):
    A, gc = braid_characters[n]
    ident = gc.group.cycle_types.index((1,) * n)
    assert tuple(row[ident] for row in gc.grade_values) == nbc_counts(A)


def test_grade_zero_is_trivial(corpus_map):
    for name in ("braid3", "semiorder3", "boolean3"):
        A = corpus_map[name]
        gc = graded_character(A, coordinate_action(A))
        assert all(v == 1 for v in gc.grade_values[0]), name


def test_graded_characters_sum_to_chamber_character(corpus_map):
    for name in ("braid3", "braid4", "semiorder2", "semiorder3", "boolean3"):
        A = corpus_map[name]
        gc = graded_character(A, coordinate_action(A))
        for c in range(len(gc.chamber_values)):
            assert sum(row[c] for row in gc.grade_values) \
                == gc.chamber_values[c], name


def test_coxeter_chamber_character_is_regular(corpus_map):
    from math import factorial
    for name in ("braid2", "braid3", "braid4"):
        A = corpus_map[name]
        G = coordinate_action(A)
        gc = graded_character(A, G)
        want = tuple(Fraction(factorial(A.dim)) if mu == (1,) * A.dim
                     else Fraction(0) for mu in G.cycle_types)
        assert gc.chamber_values == want, name


def antipodal_group(A):
    """{id, -id} as a group file: -id fixes every hyperplane of a central
    arrangement and flips every form."""
    same = {label: label for label in A.labels}
    return group_from_json(A, {"group": "antipodal", "action": [
        {"perm": same},
        {"perm": same, "flips": {label: -1 for label in A.labels}},
    ]})


@pytest.mark.parametrize("name", [name for name, _ in central_corpus()] + ["braid5"])
def test_antipodal_map_acts_by_the_grade_sign(name):
    """On gr^k, -id acts by (-1)^k: it sends each Heaviside function h_i to
    1 - h_i, which is -h_i modulo P^0, so a product of k of them picks up
    (-1)^k modulo P^{k-1}.  Hence χ_k(-id) = (-1)^k · NBC_k in every grade,
    the first grade-level check of a group element with flips."""
    A = braid(5) if name == "braid5" else dict(central_corpus())[name]
    group = antipodal_group(A)
    assert group.n_classes == 2
    assert group.class_sizes == (1, 1)
    minus = group.representatives.index(
        SignedPermutation(tuple(range(A.n)), (-1,) * A.n))
    gc = graded_character(A, group)
    nbc = nbc_counts(A)
    assert len(gc.grade_values) == len(nbc)
    for k, (row, count) in enumerate(zip(gc.grade_values, nbc)):
        assert row[minus] == (-1) ** k * count, (name, k)
        assert row[1 - minus] == count, (name, k)


def oracle_grade_values(A, group, bases):
    """Per grade, per class, the character on gr^k traced by
    `dense_projection_trace_oracle` on the filtration basis `bases`."""
    top = max(k for k in range(len(bases)) if bases[k])
    per_class = []
    for w in group.representatives:
        perm = chamber_permutation(A, w)
        traces = [dense_projection_trace_oracle(A, bases, perm, k)
                  for k in range(top + 1)]
        per_class.append([traces[k] - (traces[k - 1] if k else 0)
                          for k in range(top + 1)])
    return [tuple(values[k] for values in per_class) for k in range(top + 1)]


def test_traces_basis_independent(corpus_map):
    """The characters traced on a second basis, the NBC monomials of the
    reversed hyperplane ordering, equal `graded_character`'s."""
    for name in ("braid3", "semiorder3", "boolean3"):
        A = corpus_map[name]
        G = coordinate_action(A)
        second = nbc_grades(A, tuple(reversed(range(A.n))))
        assert list(graded_character(A, G).grade_values) \
            == oracle_grade_values(A, G, second), name


def dense_grams(A, bases, perm, upto_grade):
    """G = B^T B and R = B^T ρ(w) B as Fraction sums over the chamber
    vectors of the basis of P^k, with (ρ(w) col)[perm[i]] = col[i]."""
    cols = [monomial_eval(A, s) for k in range(upto_grade + 1) for s in bases[k]]
    nch = len(cols[0])
    G = [[sum(a[i] * b[i] for i in range(nch)) for b in cols] for a in cols]
    R = [[sum(a[perm[i]] * b[i] for i in range(nch)) for b in cols] for a in cols]
    return G, R


def dense_projection_trace_oracle(A, bases, perm, upto_grade):
    """trace of (B^T B)^{-1} B^T ρ B on P^k, with Fraction Gram matrices
    solved by Fraction elimination."""
    G, R = dense_grams(A, bases, perm, upto_grade)
    m = len(G)
    X = [row[m:] for row in fraction_rref_oracle([g + r for g, r in zip(G, R)])[0]]
    return sum(X[i][i] for i in range(m))


@pytest.mark.parametrize("own_basis", (False, True))
@pytest.mark.parametrize("make", (lambda: braid(3), lambda: braid(4),
                                  lambda: boolean(4), lambda: semiorder(3)),
                         ids=("braid3", "braid4", "boolean4", "semiorder3"))
def test_graded_character_matches_dense_oracle(make, own_basis):
    """`graded_character` equals the dense trace oracle on its own basis,
    the NBC monomials of the default ordering, and on a second one, the NBC
    monomials of the reversed hyperplane ordering."""
    A = make()
    group = coordinate_action(A)
    gc = graded_character(A, group)
    bases = (nbc_filtration(A)[1] if own_basis
             else nbc_grades(A, tuple(reversed(range(A.n)))))
    assert list(gc.grade_values) == oracle_grade_values(A, group, bases)
    for c, w in enumerate(group.representatives):
        perm = chamber_permutation(A, w)
        assert gc.chamber_values[c] == sum(1 for i, j in enumerate(perm) if i == j)
    assert all(type(v) is Fraction
               for row in gc.grade_values + (gc.chamber_values,) for v in row)


# the README table: graded pieces of braid 5 under S_5
BRAID5_GRADES = [
    {(5,): 1},
    {(4, 1): 1, (3, 1, 1): 1},
    {(4, 1): 1, (3, 2): 2, (3, 1, 1): 1, (2, 2, 1): 2, (2, 1, 1, 1): 1,
     (1, 1, 1, 1, 1): 1},
    {(4, 1): 1, (3, 2): 2, (3, 1, 1): 3, (2, 2, 1): 2, (2, 1, 1, 1): 2},
    {(4, 1): 1, (3, 2): 1, (3, 1, 1): 1, (2, 2, 1): 1, (2, 1, 1, 1): 1},
]
# each irreducible of S_5 with multiplicity its dimension
S5_REGULAR = {(5,): 1, (4, 1): 4, (3, 2): 5, (3, 1, 1): 6, (2, 2, 1): 5,
              (2, 1, 1, 1): 4, (1, 1, 1, 1, 1): 1}


def test_braid5_characters_are_the_regular_representation():
    A = braid(5)
    group = coordinate_action(A)
    gc = graded_character(A, group)
    ident = group.cycle_types.index((1,) * 5)
    # grade dimensions: the coefficients of (1+t)(1+2t)(1+3t)(1+4t)
    assert [row[ident] for row in gc.grade_values] == [1, 10, 35, 50, 24]
    assert gc.chamber_values == tuple(120 if c == ident else 0
                                      for c in range(group.n_classes))
    per_grade, total = gc.decompositions()
    assert total == S5_REGULAR
    assert [{mu: m for mu, m in d.items() if m} for d in per_grade] == BRAID5_GRADES


def test_boolean_action_has_flips():
    B = boolean(3)
    w = derive_signed_permutation(B, swap_matrix(3, 0, 1))
    assert w.flips == (1, 1, 1) and w.perm == (1, 0, 2)
    # negating a coordinate flips the matching form
    neg = [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]
    w2 = derive_signed_permutation(B, neg)
    assert w2.perm == (0, 1, 2) and w2.flips == (-1, 1, 1)


def group_file(A, name, elements):
    """The group file listing `elements`, flips only where they are -1."""
    entries = []
    for w in elements:
        entry = {"perm": {A.labels[i]: A.labels[j] for i, j in enumerate(w.perm)}}
        flips = {A.labels[i]: s for i, s in enumerate(w.flips) if s < 0}
        if flips:
            entry["flips"] = flips
        entries.append(entry)
    return {"group": name, "action": entries}


def test_group_file_roundtrip(tmp_path):
    A = braid(3)
    G = coordinate_action(A)
    elements, class_of, _, _ = coordinate_action_oracle(A)
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(group_file(A, "S3", elements)))
    G2 = load_group(A, str(path))
    assert G2.cycle_types == G.cycle_types
    assert G2.class_sizes == G.class_sizes
    # the first listed element of each class represents it
    assert G2.representatives == tuple(elements[class_of.index(c)] for c in range(3))
    assert graded_character(A, G2).grade_values \
        == graded_character(A, G).grade_values


def test_sn_coordinates_group_file(tmp_path):
    """A group file naming the built-in coordinate action loads, by path,
    the same group as the built-in, with the same characters."""
    A = braid(4)
    path = tmp_path / "sn.json"
    path.write_text(json.dumps({"group": "Sn-coordinates"}))
    G = load_group(A, str(path))
    assert G == coordinate_action(A) == load_group(A, "Sn-coordinates")
    assert graded_character(A, G) == graded_character(A, coordinate_action(A))


@pytest.mark.parametrize("n", (3, 4, 5))
def test_coordinate_characters_equal_the_full_listing(n):
    """The characters of the class representatives equal those of every
    element of S_n, listed in a group file and classed by conjugation."""
    A = braid(n)
    G = coordinate_action(A)
    full = group_from_json(A, group_file(A, f"S{n}", coordinate_action_oracle(A)[0]))
    assert full.order == G.order == factorial(n)
    assert sorted(zip(full.cycle_types, full.class_sizes)) \
        == sorted(zip(G.cycle_types, G.class_sizes))
    by_type = [dict(zip(group.cycle_types, zip(*gc.grade_values, gc.chamber_values)))
               for group, gc in ((G, graded_character(A, G)),
                                 (full, graded_character(A, full)))]
    assert by_type[0] == by_type[1]


IDENTITY3 = {"perm": {"12": "12", "13": "13", "23": "23"}}
# braid 3: the coordinate transpositions (0 1) and (1 2), and the 3-cycle
# sending e_i to e_{i+1}; each is a symmetry
SWAP01 = {"perm": {"12": "12", "13": "23", "23": "13"}, "flips": {"12": -1}}
SWAP12 = {"perm": {"12": "13", "13": "12", "23": "23"}, "flips": {"23": -1}}
CYCLE3 = {"perm": {"12": "23", "13": "12", "23": "13"}, "flips": {"13": -1, "23": -1}}


def test_group_file_validation():
    A = braid(3)
    with pytest.raises(InputError):
        group_from_json(A, {"group": "S3"})
    # integer labels name hyperplanes by their label strings
    G = group_from_json(A, {"action": [{"perm": {"12": 12, "13": 13, "23": 23}}]})
    assert G.representatives == (SignedPermutation.identity(3),)
    assert G.class_sizes == (1,) and G.class_labels == ("C1",)
    # a fractional flip is rejected, not truncated to an integer
    with pytest.raises(InputError, match="must be the integer 1 or -1, not a float"):
        group_from_json(A, {"action": [dict(IDENTITY3, flips={"12": 1.5})]})
    # the three elements are symmetries and their own inverses, but the
    # product of the two transpositions is a 3-cycle
    group_from_json(A, {"group": "W", "action": [IDENTITY3, SWAP01]})
    with pytest.raises(InputError) as exc:
        group_from_json(A, {"group": "W", "action": [IDENTITY3, SWAP01, SWAP12]})
    assert str(exc.value) == "group not closed under composition"


@pytest.mark.parametrize("data, message", [
    ({"action": [IDENTITY3, IDENTITY3]}, "group contains repeated elements"),
    ({"action": [SWAP01]}, "group does not contain the identity"),
    ({"action": [IDENTITY3, CYCLE3]}, "group not closed under inverse"),
    ({"action": [{"perm": {"12": "12", "13": "13"}}]},
     "group element must map every hyperplane"),
    ({"group": "S6", "action": [IDENTITY3]},
     "cycle-type identification from files is limited to S5"),
    ({"group": "S3", "action": [IDENTITY3, SWAP01]},
     "class with order 2 and size 1 does not match any cycle type of S3"),
    ([IDENTITY3], "group file must hold a JSON object"),
], ids=["repeated", "no-identity", "no-inverse", "unmapped", "S6", "cycle-type",
        "not-an-object"])
def test_group_file_errors(data, message):
    with pytest.raises(InputError) as exc:
        group_from_json(braid(3), data)
    assert str(exc.value) == message


def test_cycle_types_must_be_told_apart(monkeypatch):
    """The pair (element order, class size) tells the cycle types of S_n
    apart for n <= 5; were it not injective (here every class size is 1,
    so (2, 2) and (2, 1, 1) of S4 share the key (2, 1)), the
    identification raises instead of picking one."""
    monkeypatch.setattr(arrgr.symmetry, "class_size", lambda mu: 1)
    with pytest.raises(ConsistencyError) as exc:
        arrgr.symmetry._identify_sn_classes(4, (), ())
    assert str(exc.value) == "ambiguous cycle-type identification"


def test_consistency_error_on_fake_symmetry():
    # a signed permutation that is not induced by any symmetry sends some
    # chamber to an infeasible sign vector
    A = braid(3)
    fake = SignedPermutation((0, 1, 2), (-1, 1, 1))
    with pytest.raises(ConsistencyError) as exc:
        chamber_permutation(A, fake)
    with pytest.raises(ConsistencyError) as want:
        chamber_permutation_oracle(A, fake)
    assert str(exc.value) == str(want.value) \
        == "image sign vector -+- is not a chamber"


# braid 3: the identity and 12 <-> 13 without flips form a closed group,
# but the swap sends some chamber to a sign vector that is not a chamber
NOT_A_SYMMETRY = {"group": "W", "action": [
    {"perm": {"12": "12", "13": "13", "23": "23"}},
    {"perm": {"12": "13", "13": "12", "23": "23"}},
]}


def test_group_file_element_that_is_not_a_symmetry():
    A = braid(3)
    with pytest.raises(NotASymmetryError,
                       match=r"^group element 2 \(12->13, 13->12, 23->23\) "
                             r"is not a symmetry: image sign vector"):
        group_from_json(A, NOT_A_SYMMETRY)
