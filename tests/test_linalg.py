import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from arrgr.arrangement import AffineForm, boolean, braid, semiorder
from arrgr.circuits import nbc_sets
from arrgr.cordovil import AlgebraElement, CordovilAlgebra
from arrgr.errors import ConsistencyError, InputError
from arrgr.linalg import (SparseEchelon, _divide_content, _primitive_row,
                          affine_system_consistent, frac, rank, rank_and_kernel,
                          rref, solve_square, strict_feasible)
from arrgr.polyring import Poly
from arrgr.vgring import filtration_profile, monomial_eval, monomial_mask


def naive_rank(matrix):
    """Plain forward elimination without normalization, kept deliberately
    different from the library's reduced-echelon routine."""
    rows = [list(map(Fraction, r)) for r in matrix]
    if not rows:
        return 0
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c] != 0:
                mult = rows[i][c] / rows[r][c]
                rows[i] = [a - mult * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def fraction_rref_oracle(matrix):
    """Reduced row echelon form by Gauss-Jordan elimination over Fractions,
    pivot rows divided by their pivot at once: the arithmetic the integer
    elimination of `rref` is checked against.  Returns (rows, pivots)."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    if not rows or not rows[0]:
        return rows, []
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _random_matrix(rng):
    """Empty, zero-row, wide, tall and rank-deficient matrices with negative
    entries and non-unit denominators, as Fractions or as plain ints."""
    m, d = rng.randint(0, 7), rng.randint(0, 7)
    rows = [[_entry_or_zero(rng) for _ in range(d)] for _ in range(m)]
    if m and rng.random() < 0.2:
        rows[rng.randrange(m)] = [Fraction(0)] * d
    if m >= 3 and rng.random() < 0.4:  # a dependent row
        a, b = _random_entry(rng), _random_entry(rng)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    if rng.random() < 0.3:
        rows = [[int(x * 12) for x in row] for row in rows]
    return rows


def test_rref_matches_fraction_oracle():
    rng = random.Random(90210)
    kinds = Counter()
    for _ in range(400):
        matrix = _random_matrix(rng)
        got, pivots = rref(matrix)
        want, want_pivots = fraction_rref_oracle(matrix)
        assert (got, pivots) == (want, want_pivots), matrix
        assert all(type(x) is Fraction for row in got for x in row)
        assert rank(matrix) == len(want_pivots)
        m, d = len(matrix), len(matrix[0]) if matrix else 0
        if m and d:
            # the kernel and the solution of today's construction
            free = [c for c in range(d) if c not in want_pivots]
            basis = []
            for f in free:
                v = [Fraction(0)] * d
                v[f] = Fraction(1)
                for i, p in enumerate(want_pivots):
                    v[p] = -want[i][f]
                basis.append(v)
            kernel = tuple(tuple(row) for row in fraction_rref_oracle(basis)[0])
            assert rank_and_kernel(matrix) == (len(want_pivots), kernel)
            if m == d == len(want_pivots):
                assert dense_inverse(matrix) == dense_inverse_oracle(matrix)
                kinds["inverted"] += 1
        kinds["empty"] += not (m and d)
        kinds["zero row"] += any(not any(row) for row in matrix) and d > 0
        kinds["wide"] += 0 < m < d
        kinds["tall"] += m > d > 0
        kinds["rank-deficient"] += 0 < len(want_pivots) < min(m, d)
        kinds["integer input"] += all(type(x) is int for row in matrix for x in row)
    assert min(kinds.values()) >= 20 and len(kinds) == 7, kinds


def test_rank_identity():
    r, kernel = rank_and_kernel([[1, 0], [0, 1]])
    assert r == 2
    assert kernel == ()


def test_rank_one_by_three():
    r, kernel = rank_and_kernel([[1, -1, 1]])
    assert r == 1
    assert len(kernel) == 2
    for v in kernel:
        assert v[0] - v[1] + v[2] == 0


def test_braid3_homogenized_kernel():
    # columns are the homogenized forms x1-x2, x1-x3, x2-x3 in Q^3
    cols = [(1, -1, 0, 0), (1, 0, -1, 0), (0, 1, -1, 0)]
    rows = [[cols[j][i] for j in range(3)] for i in range(4)]
    r, kernel = rank_and_kernel(rows)
    assert r == 2
    assert kernel == ((Fraction(1), Fraction(-1), Fraction(1)),)


def test_kernel_vectors_are_echelon_normalized():
    rng = random.Random(5)
    for _ in range(50):
        m = [[Fraction(rng.randint(-2, 2)) for _ in range(5)] for _ in range(3)]
        r, kernel = rank_and_kernel(m)
        assert r + len(kernel) == 5
        for v in kernel:
            lead = next(x for x in v if x != 0)
            assert lead == 1
        for row in m:
            for v in kernel:
                assert sum(a * b for a, b in zip(row, v)) == 0


def test_rank_against_naive_oracle():
    rng = random.Random(12345)
    for _ in range(1000):
        m = [[Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))
              for _ in range(6)] for _ in range(6)]
        assert rank(m) == naive_rank(m)


def test_empty_matrix():
    r, kernel = rank_and_kernel([], ncols=3)
    assert r == 0
    assert len(kernel) == 3
    assert kernel == tuple(tuple(Fraction(int(i == j)) for j in range(3))
                           for i in range(3))
    # no rows and no `ncols`: no columns, so no kernel
    assert rank_and_kernel([]) == (0, ())


def test_strict_feasible_interval():
    # x > 0 and x < 1
    assert strict_feasible([((1,), 0, 1), ((1,), -1, -1)])
    # x > 1 and x < 0
    assert not strict_feasible([((1,), -1, 1), ((1,), 0, -1)])


def test_strict_feasible_braid_circuit_pattern():
    # x1 - x2 > 0, x2 - x3 > 0, x1 - x3 < 0 is the infeasible circuit pattern
    cons = [((1, -1, 0), 0, 1), ((0, 1, -1), 0, 1), ((1, 0, -1), 0, -1)]
    assert not strict_feasible(cons)
    # dropping the last one is feasible
    assert strict_feasible(cons[:2])


def test_strict_feasible_empty_system():
    assert strict_feasible([], dim=0)
    assert strict_feasible([], dim=2)
    assert strict_feasible([], dim=4)


def test_strict_feasible_row_length_mismatch():
    with pytest.raises(InputError):
        strict_feasible([((1, 0), 0, 1), ((1,), 0, 1)])
    with pytest.raises(InputError):
        strict_feasible([((1, 0, 0), 0, 1)], dim=2)


def random_system(rng, d, k):
    return [((tuple(Fraction(rng.randint(-2, 2)) for _ in range(d))),
             Fraction(rng.randint(-2, 2)), rng.choice((1, -1)))
            for _ in range(k)]


def test_strict_feasible_monotone():
    rng = random.Random(777)
    for _ in range(200):
        d = rng.randint(1, 4)
        sys1 = random_system(rng, d, rng.randint(1, 5))
        extra = random_system(rng, d, 1)
        if not strict_feasible(sys1):
            assert not strict_feasible(sys1 + extra)


def test_strict_feasible_positive_scaling_invariant():
    rng = random.Random(4242)
    for _ in range(200):
        d = rng.randint(1, 3)
        sys1 = random_system(rng, d, rng.randint(1, 5))
        scaled = [(tuple(Fraction(3, 2) * x for x in a), Fraction(3, 2) * c, s)
                  for a, c, s in sys1]
        assert strict_feasible(sys1) == strict_feasible(scaled)


def test_single_form_both_sides_feasible():
    rng = random.Random(11)
    for _ in range(100):
        d = rng.randint(1, 4)
        a = tuple(Fraction(rng.randint(-3, 3)) for _ in range(d))
        if not any(a):
            continue
        c = Fraction(rng.randint(-3, 3))
        assert strict_feasible([(a, c, 1)])
        assert strict_feasible([(a, c, -1)])


def fraction_fm_oracle(constraints):
    """Fourier-Motzkin elimination over Fractions, each row scaled by the
    absolute value of its first nonzero entry: the arithmetic the integer
    elimination of `strict_feasible` is checked against."""

    def canon(v):
        lead = next((x for x in v if x != 0), None)
        if lead is None:
            return v
        s = abs(lead)
        return tuple(x / s for x in v)

    work = set()
    for coeffs, const, sgn in constraints:
        row = [Fraction(x) for x in coeffs] + [Fraction(const)]
        if sgn < 0:
            row = [-x for x in row]
        work.add(canon(tuple(row)))
    while True:
        live = set()
        for v in work:
            if all(x == 0 for x in v[:-1]):
                if v[-1] <= 0:
                    return False
            else:
                live.add(v)
        if not live:
            return True
        width = len(next(iter(live))) - 1
        best = None
        for k in range(width):
            pos = sum(1 for v in live if v[k] > 0)
            neg = sum(1 for v in live if v[k] < 0)
            if pos == 0 and neg == 0:
                continue
            if best is None or pos * neg < best[0]:
                best = (pos * neg, k)
        k = best[1]
        new = set()
        for v in live:
            if v[k] == 0:
                new.add(canon(v[:k] + v[k + 1:]))
        for p in (v for v in live if v[k] > 0):
            for q in (v for v in live if v[k] < 0):
                comb = tuple(-q[k] * a + p[k] * b for a, b in zip(p, q))
                new.add(canon(comb[:k] + comb[k + 1:]))
        work = new


def _entry_or_zero(rng):
    return Fraction(0) if rng.random() < 0.3 else _random_entry(rng)


def _random_strict_system(rng):
    """A strict system in dimension 0-4 with 0-8 rows: rational entries
    with non-unit denominators, rows with zero linear part, positive
    multiples and exact negations of earlier rows, and rows restated with
    every sign flipped (the same constraint)."""
    d = rng.randint(0, 4)
    rows = []
    for _ in range(rng.randint(0, 8)):
        r = rng.random()
        if rows and r < 0.15:
            coeffs, const, sgn = rng.choice(rows)
            t = Fraction(rng.randint(1, 6), rng.randint(1, 4))
            rows.append((tuple(t * x for x in coeffs), t * const, sgn))
        elif rows and r < 0.22:
            coeffs, const, sgn = rng.choice(rows)
            rows.append((coeffs, const, -sgn))
        elif rows and r < 0.3:
            coeffs, const, sgn = rng.choice(rows)
            rows.append((tuple(-x for x in coeffs), -const, -sgn))
        elif r < 0.4:
            rows.append(((Fraction(0),) * d, _entry_or_zero(rng), rng.choice((1, -1))))
        else:
            rows.append((tuple(_entry_or_zero(rng) for _ in range(d)),
                         _entry_or_zero(rng), rng.choice((1, -1))))
    return d, rows


def test_strict_feasible_matches_fraction_oracle():
    rng = random.Random(8128)
    answers = []
    for _ in range(400):
        d, rows = _random_strict_system(rng)
        got = strict_feasible(rows, dim=d)
        assert got == fraction_fm_oracle(rows), rows
        answers.append(got)
        for coeffs, const, _ in rows:
            prim = _primitive_row(coeffs + (const,))
            assert all(type(x) is int for x in prim)
            assert gcd(*prim) in (0, 1)
            lead = next((x for x in prim if x), None)
            if lead is not None:
                scale = Fraction(next(x for x in coeffs + (const,) if x), lead)
                assert scale > 0
                assert all(scale * x == y for x, y in zip(prim, coeffs + (const,)))
    assert answers.count(True) >= 100 and answers.count(False) >= 100


def fourier_motzkin_oracle(constraints, dim=None):
    """Plain Fourier-Motzkin elimination on primitive integer rows: every
    round eliminates the column with the fewest pos x neg pairs and forms
    all of them, one-signed columns one at a time and the last variable
    too.  `strict_feasible` drops the one-signed columns at once and
    settles the last variable by its bounds; this is what it is checked
    against.  Its rows multiply quickly, so it runs on small systems."""
    work = set()
    d = dim
    for coeffs, const, sgn in constraints:
        coeffs = tuple(coeffs)
        if d is None:
            d = len(coeffs)
        elif len(coeffs) != d:
            raise InputError("constraint rows have unequal lengths")
        if sgn not in (1, -1):
            raise InputError("constraint sign must be +1 or -1")
        row = _primitive_row(coeffs + (const,))
        work.add(row if sgn > 0 else tuple(-x for x in row))
    while True:
        live = []
        for v in work:
            if any(v[:-1]):
                live.append(v)
            elif v[-1] <= 0:
                return False
        if not live:
            return True
        best = None
        cols = list(zip(*live))
        for k in range(len(cols) - 1):
            pos = len([x for x in cols[k] if x > 0])
            neg = len([x for x in cols[k] if x < 0])
            if (pos or neg) and (best is None or pos * neg < best[0]):
                best = (pos * neg, k)
        k = best[1]
        new = set()
        pos_rows, neg_rows = [], []
        for v in live:
            c, rest = v[k], v[:k] + v[k + 1:]
            if c == 0:
                new.add(rest)
            elif c > 0:
                pos_rows.append((c, rest))
            else:
                neg_rows.append((-c, rest))
        for a, p in pos_rows:
            for b, q in neg_rows:
                new.add(_divide_content([b * x + a * y for x, y in zip(p, q)]))
        work = new


def _small_strict_system(rng):
    """A strict system in dimension 1-3 with 0-7 rows of rational entries
    (non-unit denominators), some columns zero in every row."""
    d = rng.randint(1, 3)
    zero_cols = {k for k in range(d) if rng.random() < 0.2}
    rows = []
    for _ in range(rng.randint(0, 7)):
        coeffs = tuple(Fraction(0) if k in zero_cols else _entry_or_zero(rng)
                       for k in range(d))
        rows.append((coeffs, _entry_or_zero(rng), rng.choice((1, -1))))
    return d, rows


def test_strict_feasible_matches_fourier_motzkin_oracle(monkeypatch):
    """Dropping one-signed columns at once and settling the last one or
    two variables by bounds give plain elimination's answer; both
    shortcuts fire, and the bounds step answers both ways."""
    import arrgr.linalg
    settled = Counter()
    bounds_meet = arrgr.linalg._bounds_meet

    def counted(pairs):
        answer = bounds_meet(pairs)
        settled[answer] += 1
        return answer

    monkeypatch.setattr(arrgr.linalg, "_bounds_meet", counted)
    rng = random.Random(2121)
    answers = Counter()
    for _ in range(800):
        d, rows = _small_strict_system(rng)
        got = strict_feasible(rows, dim=d)
        assert got == fourier_motzkin_oracle(rows, dim=d), rows
        assert strict_feasible(rows) == got  # dim read off the rows
        answers[d, got] += 1
    assert all(answers[d, v] >= 30 for d in (1, 2, 3) for v in (True, False)), answers
    assert settled[True] >= 30 and settled[False] >= 30, settled
    assert strict_feasible([]) and fourier_motzkin_oracle([])
    assert strict_feasible([], dim=None) and strict_feasible([], dim=3)
    # a one-signed column dropped with its rows leaves an infeasible pair
    assert not strict_feasible([((1, 5), 0, 1), ((0, 1), 0, 1), ((0, 1), 0, -1)])
    for bad in (0.5, True):
        with pytest.raises(InputError):
            strict_feasible([((1, bad), 0, 1), ((1, 0), 1, -1)])


def fourier_motzkin_loop_oracle(constraints, dim=None):
    """`strict_feasible` before the last two variables were settled by
    bounds: one-signed columns dropped with their rows at once, every
    other round eliminates the column with the fewest pos x neg pairs into
    a set of primitive rows, and only the last variable is settled by its
    bounds (`_one_column_bounds_meet`)."""
    work = set()
    d = dim
    for coeffs, const, sgn in constraints:
        coeffs = tuple(coeffs)
        if d is None:
            d = len(coeffs)
        elif len(coeffs) != d:
            raise InputError("constraint rows have unequal lengths")
        if sgn not in (1, -1):
            raise InputError("constraint sign must be +1 or -1")
        row = _primitive_row(coeffs + (const,))
        work.add(row if sgn > 0 else tuple(-x for x in row))
    while True:
        live = []
        for v in work:
            if any(v[:-1]):
                live.append(v)
            elif v[-1] <= 0:
                return False
        while True:
            if not live:
                return True
            cols = list(zip(*live))
            cols.pop()
            one_signed, two_signed = [], []
            for k, col in enumerate(cols):
                zeros = col.count(0)
                if zeros == len(col):
                    continue
                pos = len([x for x in col if x > 0])
                if pos and len(col) - zeros - pos:
                    two_signed.append((pos * (len(col) - zeros - pos), k))
                else:
                    one_signed.append(k)
            if not one_signed:
                break
            live = [v for v in live if not any([v[k] for k in one_signed])]
        if len(two_signed) == 1:
            return _one_column_bounds_meet(live, two_signed[0][1])
        k = min(two_signed)[1]
        new = set()
        pos_rows, neg_rows = [], []
        for v in live:
            c, rest = v[k], v[:k] + v[k + 1:]
            if c == 0:
                new.add(rest)
            elif c > 0:
                pos_rows.append((c, rest))
            else:
                neg_rows.append((-c, rest))
        for a, p in pos_rows:
            for b, q in neg_rows:
                new.add(_divide_content([b * x + a * y for x, y in zip(p, q)]))
        work = new


def _one_column_bounds_meet(rows, k):
    """Largest lower bound below least upper bound for rows whose only
    nonzero linear entry is at column k, which takes both signs."""
    lo = hi = None
    for v in rows:
        c, b = v[k], v[-1]
        if c > 0:
            if lo is None or -b * lo[1] > lo[0] * c:
                lo = (-b, c)
        elif hi is None or b * hi[1] < hi[0] * -c:
            hi = (b, -c)
    return lo[0] * hi[1] < hi[0] * lo[1]


def _kernel_system(rng):
    """A strict system in 1-4 variables with 0-7 rows of small entries:
    exact and scaled duplicates of earlier rows, rows with a zero linear
    part, columns whose entries share one sign, and many zero entries, so
    the eliminated column often has zeros."""
    d = rng.randint(1, 4)
    signs = [rng.choice((1, -1)) if rng.random() < 0.3 else 0 for _ in range(d)]

    def entry(k):
        if rng.random() < 0.35:
            return 0
        x = rng.randint(1, 3) if signs[k] else rng.randint(-3, 3)
        return x * signs[k] if signs[k] else x

    rows = []
    for _ in range(rng.randint(0, 7)):
        r = rng.random()
        if rows and r < 0.12:
            coeffs, const, sgn = rng.choice(rows)
            t = rng.choice((1, 2, Fraction(1, 2), 3))
            rows.append((tuple(t * x for x in coeffs), t * const, sgn))
        elif r < 0.2:
            rows.append(((0,) * d, rng.randint(-2, 2), rng.choice((1, -1))))
        else:
            rows.append((tuple(entry(k) for k in range(d)), rng.randint(-3, 3),
                         1 if rng.random() < 0.7 else -1))
    return d, rows


def test_strict_feasible_matches_loop_oracle_on_seeded_systems(monkeypatch):
    """60 000 seeded systems in 1-4 variables get the answer of the
    elimination loop that settles only the last variable by bounds; the
    two-column step fires on thousands of them and answers both ways."""
    import arrgr.linalg
    settled = Counter()
    two_column = []
    bounds_meet, pairs_of = arrgr.linalg._bounds_meet, arrgr.linalg._eliminated_pairs

    def eliminated(rows, k, j):
        two_column.append(len(rows[0]) - 1)
        return pairs_of(rows, k, j)

    def counted(pairs):
        answer = bounds_meet(pairs)
        if two_column:
            settled[two_column.pop(), answer] += 1
        return answer

    monkeypatch.setattr(arrgr.linalg, "_eliminated_pairs", eliminated)
    monkeypatch.setattr(arrgr.linalg, "_bounds_meet", counted)
    rng = random.Random(28)
    answers = Counter()
    for _ in range(60000):
        d, rows = _kernel_system(rng)
        got = strict_feasible(rows, dim=d)
        assert got == fourier_motzkin_loop_oracle(rows, dim=d), rows
        answers[d, got] += 1
    assert all(answers[d, v] >= 1000 for d in (1, 2, 3, 4) for v in (True, False)), answers
    assert all(settled[d, v] >= 50 for d in (2, 3, 4) for v in (True, False)), settled


F = Fraction

# (rows, answer): two-variable systems the bounds pass must read as plain
# elimination does
TWO_VARIABLE_CASES = [
    # Fraction entries and scaled duplicates
    ([((F(1, 2), F(-1, 2)), F(0), 1), ((F(3, 2), F(-3, 2)), 0, 1),
      ((1, 1), -1, -1), ((0, 3), -1, 1), ((0, F(6)), F(-2), 1)], True),
    ([((1, -1), 0, 1), ((F(2), F(-2)), F(0), -1)], False),
    ([((F(1, 3), F(2, 3)), F(1, 6), 1), ((F(-2, 5), 0), F(1, 5), 1),
      ((0, F(-4, 7)), F(8, 7), 1), ((F(1, 3), F(2, 3)), F(1, 6), 1)], True),
    ([((1, 0), F(-1, 2), 1), ((F(4), 0), F(-2), 1), ((1, 0), F(-1, 2), -1)], False),
    # a zero linear part with a positive, zero or negative constant
    ([((0, 0), F(1, 3), 1), ((1, 0), 0, 1)], True),
    ([((0, 0), 0, 1), ((1, 0), 0, 1)], False),
    ([((0, 0), 0, -1)], False),
    ([((0, 0), -2, 1), ((1, 1), 0, 1)], False),
    ([((0, 0), -2, -1), ((1, 1), 0, 1)], True),
    ([((0, 0), 5, 1), ((0, 0), -1, -1), ((0, 1), 0, 1), ((0, 1), 1, -1)], False),
    # one-signed columns: every entry of column 0, or of column 1, has one sign
    ([((1, 1), 0, 1), ((2, -1), -1, 1), ((1, 0), 0, 1)], True),
    ([((1, 1), 0, 1), ((3, 0), 0, 1), ((0, 1), 0, 1), ((0, 1), 0, -1)], False),
    ([((1, 1), 0, 1), ((-1, 2), 0, 1), ((1, 0), 3, -1)], True),
    ([((0, 1), 0, 1), ((1, 0), 0, 1), ((1, 0), 0, -1)], False),
    ([((1, 2), 0, 1), ((1, 3), -4, 1)], True),
    ([((-1, -1), 0, 1), ((0, 0), 1, 1)], True),
    # a pos x neg combination whose entry in column 1 is zero
    ([((1, 1), -1, 1), ((-1, -1), 0, 1)], False),
    ([((1, 1), 1, 1), ((-1, -1), 0, 1)], True),
]


@pytest.mark.parametrize("rows, answer", TWO_VARIABLE_CASES)
def test_two_variables_go_straight_to_the_bounds_pass(monkeypatch, rows, answer):
    """Fractions, scaled duplicates, zero linear parts and one-signed
    columns in two variables get plain elimination's answer, from one
    `_eliminated_pairs` over the signed rows; only the rows that are not
    all ints are divided by their content (by `_primitive_row`)."""
    import arrgr.linalg
    calls, divided = [], []
    pairs_of = arrgr.linalg._eliminated_pairs
    divide_content = arrgr.linalg._divide_content

    def eliminated(rows, k, j):
        calls.append((len(rows), len(rows[0]), k, j))
        return pairs_of(rows, k, j)

    def counted(row):
        divided.append(row)
        return divide_content(row)

    monkeypatch.setattr(arrgr.linalg, "_eliminated_pairs", eliminated)
    monkeypatch.setattr(arrgr.linalg, "_divide_content", counted)
    assert strict_feasible(rows, dim=2) is answer
    assert strict_feasible(rows) is answer
    assert calls == [(len(rows), 3, 0, 1)] * 2
    exact = [all(type(x) is int for x in coeffs + (const,)) for coeffs, const, _ in rows]
    assert len(divided) == 2 * exact.count(False)
    monkeypatch.undo()
    assert fourier_motzkin_loop_oracle(rows, dim=2) is answer
    assert fraction_fm_oracle(rows) is answer


def test_two_variable_systems_match_both_oracles():
    """Seeded two-variable systems of Fraction entries with scaled
    duplicates, zero linear parts and one-signed columns agree with the
    elimination loop and the Fraction elimination, both ways."""
    rng = random.Random(29)
    answers = Counter()
    for _ in range(3000):
        d, rows = _kernel_system(rng)
        if d != 2:
            continue
        rows = [(tuple(F(x, 3) for x in coeffs), F(const, 2), sgn)
                for coeffs, const, sgn in rows]
        got = strict_feasible(rows, dim=2)
        assert got == fourier_motzkin_loop_oracle(rows, dim=2), rows
        assert got == fraction_fm_oracle(rows), rows
        answers[got] += 1
    assert answers[True] >= 100 and answers[False] >= 100, answers


@pytest.mark.parametrize("rows, message", [
    ([((1, 0), 0, 1), ((0, 1), 0.5, 1)],
     '0.5 is not exact; write integers or rational strings like "1/10"'),
    ([((1, 0), True, 1)],
     'true is not exact; write integers or rational strings like "1/10"'),
    ([((0, 0), -1, 1), ((1, 0), False, -1)],
     'false is not exact; write integers or rational strings like "1/10"'),
    ([((1, 0), 0, 1), ((0, 1), 0, 0)], "constraint sign must be +1 or -1"),
    ([((0, 0), -1, 1), ((0, 1), 0, 2)], "constraint sign must be +1 or -1"),
    ([((1, 0), 0, 1), ((1, 0, 0), 0, 1)], "constraint rows have unequal lengths"),
], ids=["float-constant", "bool-constant", "bool-after-infeasible", "sign-0",
        "sign-2", "length-3"])
def test_two_variable_rows_are_checked_before_any_answer(rows, message):
    """Every row is checked, even after a row that already makes the
    system infeasible, and each fault raises the one-line `InputError`."""
    for dim in (2, None):
        with pytest.raises(InputError) as info:
            strict_feasible(rows, dim=dim)
        assert str(info.value) == message


def test_affine_system_consistent():
    assert affine_system_consistent([], [])
    assert affine_system_consistent([[1, 0]], [2])
    assert not affine_system_consistent([[1], [1]], [0, 1])  # x=0 and x=1
    assert affine_system_consistent([[], []], [0, 0])
    assert not affine_system_consistent([[]], [1])


def test_shape_errors():
    for call in (lambda: rank([[1, 2], [3]]),
                 lambda: affine_system_consistent([[1, 0], [1]], [0, 0])):
        with pytest.raises(InputError) as got:
            call()
        assert str(got.value) == "matrix rows have unequal lengths"
    with pytest.raises(InputError) as got:
        affine_system_consistent([[1, 0]], [0, 1])
    assert str(got.value) == "right-hand side length mismatch"


def test_affine_system_consistent_matches_two_rank_oracle():
    """One elimination of [rows | rhs] agrees with rank(rows) == rank(aug)."""
    rng = random.Random(31337)
    answers = []
    for _ in range(300):
        m, d = rng.randint(0, 5), rng.randint(0, 4)
        rows = [[_entry_or_zero(rng) for _ in range(d)] for _ in range(m)]
        if m >= 2 and rng.random() < 0.5:  # a dependent row
            a, b = _random_entry(rng), _random_entry(rng)
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
        rhs = [_entry_or_zero(rng) for _ in range(m)]
        want = naive_rank(rows) == naive_rank([r + [c] for r, c in zip(rows, rhs)])
        got = affine_system_consistent(rows, rhs)
        assert got == want, (rows, rhs)
        answers.append(got)
    assert answers.count(True) >= 50 and answers.count(False) >= 50


def sparse_rows(matrix) -> list:
    """Dense rows as the sparse rows `solve_square` takes: {column: entry},
    zero entries left out."""
    return [{c: x for c, x in enumerate(row) if x} for row in matrix]


def dense_inverse(A):
    """`solve_square` on dense A through `sparse_rows`, the inverse read
    back as dense Fraction rows.  Each row must be an integer dict over
    one positive denominator p, with no common factor and no zero entry."""
    n = len(A)
    inverse = solve_square(sparse_rows(A))
    for row, p in inverse:
        assert type(p) is int and p > 0 and gcd(p, *row.values()) == 1
        assert all(type(v) is int and v and 0 <= j < n for j, v in row.items())
    return [[Fraction(row.get(j, 0), p) for j in range(n)] for row, p in inverse]


def test_solve_square():
    # [[2, 0], [1, 1]] has the inverse [[1/2, 0], [-1/2, 1]]
    assert solve_square([{0: 2}, {0: 1, 1: 1}]) == [({0: 1}, 2), ({0: -1, 1: 2}, 2)]
    # a negative pivot, a Fraction entry, a permutation matrix (its own
    # inverse, pivoted off the diagonal) and the empty matrix
    assert solve_square([{0: -2}]) == [({0: -1}, 2)]
    assert solve_square([{0: Fraction(2, 3)}]) == [({0: 3}, 2)]
    assert solve_square([{1: 1}, {0: 1}]) == [({1: 1}, 1), ({0: 1}, 1)]
    assert solve_square([]) == []


def test_solve_square_rejects_singular_and_mismatched_input():
    with pytest.raises(ConsistencyError, match="^singular matrix in solve_square$"):
        solve_square([{0: 1, 1: 2}, {0: 2, 1: 4}])
    with pytest.raises(ConsistencyError, match="^singular matrix in solve_square$"):
        solve_square([{1: 1}, {1: 1}])
    for bad_a in ([{0: 1, 1: 2}], [{0: 1}, {2: 1}], [{-1: 1}], [{1.5: 1}], [{"x": 1}]):
        with pytest.raises(InputError, match="^dimension mismatch in solve_square$"):
            solve_square(bad_a)
    # entries as in `_to_rows`: ints pass through, the rest through `frac`
    for entry, shown in ((1.5, "1.5"), (True, "true")):
        with pytest.raises(InputError) as exc:
            solve_square([{0: entry}])
        assert str(exc.value) == (f'{shown} is not exact; write integers or '
                                  'rational strings like "1/10"')
    assert solve_square([{0: "2"}]) == [({0: 1}, 2)]


def dense_inverse_oracle(A):
    """The inverse by dense elimination: one `fraction_rref_oracle` of the
    block [A | I]; A is invertible iff its columns hold the first n
    pivots, and row i is then (e_i | row i of A⁻¹)."""
    n = len(A)
    if n == 0:
        return []
    if len(A[0]) != n:
        raise InputError("dimension mismatch in solve_square")
    red, pivots = fraction_rref_oracle(
        [list(a) + [int(i == j) for j in range(n)] for i, a in enumerate(A)])
    if pivots[:n] != list(range(n)):
        raise ConsistencyError("singular matrix in solve_square")
    return [row[n:] for row in red]


def _solve_case(rng, kind):
    """A square matrix of one kind: rational entries, singular (a zero
    row, a dependent row or a repeated column), triangular with its rows
    and columns permuted, 0x0 or 1x1; as ints a third of the time."""
    n = {"0x0": 0, "1x1": 1}.get(kind, rng.randint(2, 7))
    if kind == "triangular":
        A = [[_random_entry(rng) if i == j else
              (_entry_or_zero(rng) if j < i else Fraction(0))
              for j in range(n)] for i in range(n)]
        cols = rng.sample(range(n), n)
        A = [[row[c] for c in cols] for row in rng.sample(A, n)]
    else:
        A = [[_entry_or_zero(rng) for _ in range(n)] for _ in range(n)]
    if kind == "singular":
        how = rng.randrange(3)
        if how == 0:
            A[rng.randrange(n)] = [Fraction(0)] * n
        elif how == 1:
            a, b = _random_entry(rng), _entry_or_zero(rng)
            A[-1] = [a * x + b * y for x, y in zip(A[0], A[1])]
        else:
            for row in A:
                row[-1] = row[0]
    if rng.random() < 0.3:
        A = [[int(x * 12) for x in row] for row in A]
    return A


def _outcome(invert, A):
    try:
        return invert(A)
    except ConsistencyError as exc:
        return str(exc)


def test_sparse_solve_matches_dense_oracle():
    """The sparse elimination, read back through `dense_inverse`, returns
    the dense route's inverse, which times A is the identity, and its
    `ConsistencyError` with the same message where A is singular, on 400
    seeded matrices of five kinds (the random rational ones are singular
    now and then too)."""
    rng = random.Random(20261020)
    kinds = ("fraction", "singular", "triangular", "0x0", "1x1")
    outcomes = Counter()
    for t in range(400):
        kind = kinds[t % len(kinds)]
        A = _solve_case(rng, kind)
        want = _outcome(dense_inverse_oracle, A)
        assert _outcome(dense_inverse, A) == want, A
        if isinstance(want, list):
            assert all(type(x) is Fraction for row in want for x in row)
            n = len(A)
            assert [[sum(A[i][k] * want[k][j] for k in range(n)) for j in range(n)]
                    for i in range(n)] == [[int(i == j) for j in range(n)] for i in range(n)]
        outcomes[kind, isinstance(want, str)] += 1
    assert outcomes["singular", True] >= 60
    assert outcomes["triangular", False] == 80 and outcomes["0x0", False] == 80
    assert outcomes["fraction", False] >= 40 and outcomes["1x1", False] >= 40


def _chamber_matrix(A) -> list:
    """The square 0/1 matrix that `graded_character` inverts: entry (c, j)
    is 1 iff chamber c lies in the mask of the j-th filtration basis
    monomial, the NBC sets in grade order."""
    masks = [monomial_mask(A, s) for s in nbc_sets(A)]
    return [[m >> c & 1 for m in masks] for c in range(len(A.chambers()))]


@pytest.mark.parametrize("A", [braid(3), braid(4), braid(5), boolean(4), boolean(5),
                               boolean(6), semiorder(3), semiorder(4)],
                         ids=["braid3", "braid4", "braid5", "boolean4", "boolean5",
                              "boolean6", "semiorder3", "semiorder4"])
def test_sparse_solve_matches_dense_oracle_on_chamber_matrices(A):
    B = _chamber_matrix(A)
    assert len(B) == len(B[0])
    assert dense_inverse(B) == dense_inverse_oracle(B)


class fraction_echelon_oracle:
    """Sparse elimination over Fractions with pivot coefficient 1, the
    arithmetic `SparseEchelon` is checked against: same interface, same
    choice of pivot (the least key of the residual)."""

    def __init__(self):
        self.pivots = {}

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, vec):
        out = {k: Fraction(v) for k, v in vec.items() if v != 0}
        while out:
            k = min(out)
            row = self.pivots.get(k)
            if row is None:
                return out
            f = out[k]
            for c, v in row.items():
                nv = out.get(c, Fraction(0)) - f * v
                if nv:
                    out[c] = nv
                else:
                    out.pop(c, None)
        return out

    def add(self, vec):
        res = self.reduce(vec)
        if not res:
            return False
        k = min(res)
        pv = res[k]
        self.pivots[k] = {c: v / pv for c, v in res.items()}
        return True

    def contains(self, vec):
        return not self.reduce(vec)


def _random_entry(rng):
    while True:
        x = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4, 6)))
        if x:
            return x


def _random_sparse_vectors(rng, ncols, count):
    """Sparse rational vectors, a third of them combinations of earlier
    ones, so that dependent inserts and members occur."""
    vecs = []
    for _ in range(count):
        if len(vecs) >= 2 and rng.random() < 1 / 3:
            u, w = rng.sample(vecs, 2)
            a, b = _random_entry(rng), _random_entry(rng)
            vec = {c: a * u.get(c, 0) + b * w.get(c, 0) for c in set(u) | set(w)}
            vec = {c: x for c, x in vec.items() if x}
        else:
            cols = rng.sample(range(ncols), rng.randint(1, min(ncols, 4)))
            vec = {c: _random_entry(rng) for c in cols}
        vecs.append(vec)
    return vecs


def test_sparse_echelon_matches_fraction_oracle():
    rng = random.Random(20261018)
    for _ in range(300):
        ncols = rng.randint(1, 9)
        inserts = _random_sparse_vectors(rng, ncols, rng.randint(1, 12))
        probes = _random_sparse_vectors(rng, ncols, 6) + inserts[:3]
        ech, oracle = SparseEchelon(), fraction_echelon_oracle()
        assert ([ech.add(v) for v in inserts]
                == [oracle.add(v) for v in inserts])
        assert ech.rank == oracle.rank
        assert sorted(ech.pivots) == sorted(oracle.pivots)
        for k, row in ech.pivots.items():
            assert row[k] > 0
            assert all(type(v) is int for v in row.values())
            assert gcd(*row.values()) == 1
        for vec in probes:
            assert ech.contains(vec) == oracle.contains(vec)
            res, want = ech.reduce(vec), oracle.reduce(vec)
            assert res.keys() == want.keys()
            if want:
                scale = want[min(want)] / res[min(res)]
                assert scale > 0
                assert all(want[c] == scale * v for c, v in res.items())


def nbc_grades(A, ordering=None):
    """The NBC sets of `ordering` (`nbc_sets`) grouped by size, grades 0..n,
    each grade in lexicographic order."""
    grades = [[] for _ in range(A.n + 1)]
    for s in nbc_sets(A, ordering):
        grades[len(s)].append(s)
    return grades


def nbc_filtration(A):
    """(dims, bases) as `exact_filtration_oracle` should give them:
    `filtration_profile(A).dims`, and the NBC sets of the default ordering
    grouped by size, each grade in reverse lexicographic order (the
    backward scan's pivots)."""
    return filtration_profile(A).dims, [grade[::-1] for grade in nbc_grades(A)]


@pytest.mark.parametrize("reverse", (False, True))
@pytest.mark.parametrize("make", (lambda: braid(4), lambda: semiorder(3)),
                         ids=("braid4", "semiorder3"))
def test_filtration_bases_match_fraction_oracle(make, reverse):
    """The Fraction echelon, scanning each grade backwards (`reverse`),
    picks the NBC sets of the default ordering (`nbc_filtration`); scanning
    forwards, it picks the NBC sets of the reversed hyperplane ordering, in
    lexicographic order.  The dims do not depend on the scan."""
    A = make()
    dims, bases = nbc_filtration(A)
    oracle = fraction_echelon_oracle()
    want_dims, want_bases = [], []
    for k in range(A.n + 1):
        subsets = list(combinations(range(A.n), k))
        if reverse:
            subsets.reverse()
        want_bases.append([frozenset(s) for s in subsets
                           if oracle.add(dict(enumerate(monomial_eval(A, s))))])
        want_dims.append(oracle.rank)
    assert dims == tuple(want_dims)
    if reverse:
        assert bases == want_bases
    else:
        assert want_bases == nbc_grades(A, tuple(reversed(range(A.n))))


def test_sparse_echelon_rank_and_membership():
    ech = SparseEchelon()
    assert ech.add({0: 1, 1: 1})
    assert ech.add({1: 1})
    assert not ech.add({0: 2, 1: 5})  # 2*(e0+e1) + 3*e1
    assert ech.rank == 2
    assert ech.contains({0: 7, 1: -1})
    assert not ech.contains({2: 1})


def test_frac_parses_canonical_strings():
    assert frac("3/4") == Fraction(3, 4)
    assert frac("-2") == Fraction(-2)


@pytest.mark.parametrize("value, shown", [(0.1, "0.1"), (1.0, "1.0"),
                                          (True, "true"), (False, "false")])
def test_floats_and_booleans_are_refused(value, shown):
    """A float would enter as its binary fraction (0.1 as
    3602879701896397/36028797018963968) and a boolean as 0 or 1: `frac`
    refuses both with the JSON reader's one-line message, wherever the
    Python API takes a rational."""
    message = f'{shown} is not exact; write integers or rational strings like "1/10"'
    algebra = CordovilAlgebra(braid(3))
    entries = [
        lambda: frac(value),
        lambda: AffineForm((value, 1), 0),
        lambda: AffineForm((1, 1), value),
        lambda: Poly({((0,), 0): value}),
        lambda: Poly.generator(0) * value,
        lambda: AlgebraElement(algebra, {frozenset(): value}),
        lambda: value * algebra.generator(0),
        lambda: rank([[1, value], [0, 1]]),
        lambda: strict_feasible([((value, 1), 0, 1)]),
        lambda: strict_feasible([((1, 1), value, -1)]),
    ]
    for entry in entries:
        with pytest.raises(InputError) as info:
            entry()
        assert str(info.value) == message


def test_exact_values_still_pass_through_frac():
    third = Fraction(1, 3)
    assert frac(third) is third
    assert frac(2) == 2 and type(frac(2)) is Fraction
    assert frac("-3/4") == Fraction(-3, 4)
    assert AffineForm(("1/10", 1), 0).linear[0] == Fraction(1, 10)
