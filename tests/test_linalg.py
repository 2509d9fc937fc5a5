import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from arrgr.arrangement import braid, semiorder
from arrgr.errors import ConsistencyError, InputError
from arrgr.linalg import (SparseEchelon, affine_system_consistent, frac,
                          rank, rank_and_kernel, solve_square,
                          strict_feasible)
from arrgr.vgring import filtration_data, monomial_eval


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
    assert strict_feasible([], dim=4)


def test_strict_feasible_row_length_mismatch():
    with pytest.raises(InputError):
        strict_feasible([((1, 0), 0, 1), ((1,), 0, 1)])


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


def test_affine_system_consistent():
    assert affine_system_consistent([], [])
    assert affine_system_consistent([[1, 0]], [2])
    assert not affine_system_consistent([[1], [1]], [0, 1])  # x=0 and x=1


def test_solve_square():
    X = solve_square([[2, 0], [1, 1]], [[4, 2], [3, 2]])
    assert X == [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]


def test_solve_square_rejects_singular_and_mismatched_input():
    with pytest.raises(ConsistencyError, match="singular"):
        solve_square([[1, 2], [2, 4]], [[1], [2]])
    with pytest.raises(ConsistencyError, match="singular"):
        solve_square([[0, 1], [0, 1]], [[1], [1]])
    with pytest.raises(InputError):
        solve_square([[1, 0], [0, 1]], [[1]])
    with pytest.raises(InputError):
        solve_square([[1, 2]], [[1]])


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


@pytest.mark.parametrize("reverse", (False, True))
@pytest.mark.parametrize("make", (lambda: braid(4), lambda: semiorder(3)),
                         ids=("braid4", "semiorder3"))
def test_filtration_bases_match_fraction_oracle(make, reverse):
    A = make()
    dims, bases = filtration_data(A, reverse=reverse)
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
    assert [[s for s, _ in grade] for grade in bases] == want_bases


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
