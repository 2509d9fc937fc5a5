"""Exact rational linear algebra and strict-inequality feasibility.

Everything is exact and no floating point is used anywhere.  Inputs are
rationals (ints, Fractions or canonical strings); the eliminations run over
integers, each rational row scaled once to a primitive integer row.  There
are three: `SparseEchelon`, the one elimination for ranks, kernels and
consistency (`rank`, `rref`, `rank_and_kernel` and
`affine_system_consistent` each read one echelon of the rows, keyed by
column); `solve_square`'s sparse Gauss-Jordan on dict rows (it pivots
where the fewest entries are, so a matrix that is triangular up to row and
column order, like the chamber matrices `graded_character` inverts, fills
in nothing); and the Fourier-Motzkin test `strict_feasible`.  `rref`
returns Fractions, made only when the result is emitted; `solve_square`
takes and returns sparse rows, each row of its solution an integer dict
over one positive denominator.  Other matrices are sequences of
equal-length rows; vectors are tuples.  `rank_and_kernel` normalizes its
kernel basis with a second `rref`; it serves the public API and the tests,
while the circuit scan, which needs one kernel vector per dependent
extension, runs its own incremental integer elimination and calls only
`rank` here.

The chamber search asks `strict_feasible` only what its rules leave
open (see `Arrangement.chambers`), on a hyperplane of the arrangement's
essential coordinates (the pivot columns of one `SparseEchelon` of the
forms' linear parts), and for a central arrangement of its decone
{f_0 = 1}: rank - 1 variables on an affine arrangement, rank - 2 on a
central one.  A *free split* at a form whose linear part is outside the
span of the earlier ones (a direction that fixes the earlier forms moves
the prefix region to either side; the flags come from the same echelon)
asks nothing; the *cut* at any other form asks whether the prefix region
meets its hyperplane (if so both children are feasible); when it does
not, the region's side is asked on the *face* that the last split on the
prefix's path leaves in its closure, on that split's hyperplane; and the
*antipodal half* of a central arrangement (-c is a chamber iff c is)
halves the search.  Inside `strict_feasible`, a system in one or two
variables (every chamber test of an affine arrangement of rank at most 3
or a central one of rank at most 4: semiorder 4, braid 5) goes straight
from its checked rows to one bounds pass; from three variables on, a
one-signed column is dropped with its rows (its variable, moved far
enough, satisfies them) and the last one or two variables are settled by
bounds.
"""

from __future__ import annotations

import json
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .errors import ConsistencyError, InputError


_ZERO = Fraction(0)
_INT = frozenset({int})  # the fast path of exact rows: all entries int


def frac(x) -> Fraction:
    """Coerce ints, canonical strings like "-3/4", and Fractions.  Floats
    (binary fractions) and booleans are refused with `_not_exact`'s
    message."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (bool, float)):
        raise _not_exact(x)
    return Fraction(x)


def _not_exact(x) -> InputError:
    """The one-line error for a float or boolean where an exact rational
    is expected."""
    return InputError(f"{json.dumps(x)} is not exact; write integers or "
                      'rational strings like "1/10"')


def _to_rows(matrix) -> list[list]:
    """Rows of ints and Fractions: ints pass through, so an integer matrix
    never round-trips through Fraction; other entries go through `frac`."""
    rows = [[x if type(x) is int else frac(x) for x in row] for row in matrix]
    if rows:
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise InputError("matrix rows have unequal lengths")
    return rows


def _echelon(rows) -> SparseEchelon:
    """One `SparseEchelon` of rows from `_to_rows`, keyed by column."""
    echelon = SparseEchelon()
    for row in rows:
        echelon.add(dict(enumerate(row)))
    return echelon


def rref(matrix):
    """Reduced row echelon form.  Returns (rows, pivot_columns), the rows as
    lists of Fractions (zero rows last).  The elimination is the integer
    one of `SparseEchelon`; its pivot rows are reduced from the last pivot
    back, each divided by its pivot.  The reduced echelon form is unique,
    so this is elimination over Q."""
    rows = _to_rows(matrix)
    width = len(rows[0]) if rows else 0
    pivot_rows = _echelon(rows).pivots
    pivots = sorted(pivot_rows)
    reduced = {}  # pivot column -> its reduced row, a dict over Q
    for p in reversed(pivots):
        row = pivot_rows[p]
        out = {c: Fraction(v, row[p]) for c, v in row.items()}
        for c in [c for c in out if c in reduced]:
            f = out[c]
            for k, v in reduced[c].items():
                x = out.get(k, _ZERO) - f * v
                if x:
                    out[k] = x
                else:
                    del out[k]
        reduced[p] = out
    dense = [[reduced[p].get(c, _ZERO) for c in range(width)] for p in pivots]
    return dense + [[_ZERO] * width for _ in rows[len(pivots):]], pivots


def rank(matrix) -> int:
    return _echelon(_to_rows(matrix)).rank


def rank_and_kernel(matrix, ncols: int | None = None):
    """Rank and an echelon-normalized basis of the right kernel.

    Every returned vector v satisfies M v = 0 exactly.  The basis itself is
    in reduced row echelon form, so each vector's first nonzero entry is 1
    and the output is deterministic.  `ncols` is only needed when `matrix`
    has no rows.
    """
    rows, pivots = rref(matrix)
    if rows:
        ncols = len(rows[0])
    elif ncols is None:
        ncols = 0
    # one kernel vector per free column f: 1 at f, and at the pivot column
    # p of each reduced row, -row[f]
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = 1
        for row, p in zip(rows, pivots):
            v[p] = -row[f]
        basis.append(v)
    normalized, _ = rref(basis)
    return len(pivots), tuple(tuple(row) for row in normalized)


def affine_system_consistent(rows, rhs) -> bool:
    """True iff the linear system rows·v = rhs has a rational solution."""
    rows = _to_rows(rows)
    rhs = [b if type(b) is int else frac(b) for b in rhs]
    if len(rows) != len(rhs):
        raise InputError("right-hand side length mismatch")
    # one echelon of [rows | rhs]: inconsistent iff the rhs column, the
    # largest key, holds a pivot (a row 0 = b)
    return not rows or len(rows[0]) not in _echelon(
        [row + [b] for row, b in zip(rows, rhs)]).pivots


def solve_square(A, B):
    """Solve A X = B for square invertible A, both given as lists of sparse
    rows {column: int or Fraction}: A has n rows with columns in range(n),
    B has n rows with nonnegative integer columns.

    Sparse fraction-free Gauss-Jordan elimination on the rows of [A | B],
    each one primitive integer dict row.  The pivot is taken in the
    unfinished row with the fewest entries in A, at its column held by the
    fewest rows: when A is triangular up to row and column order, that row
    is a singleton and the elimination fills nothing in A.  A step is the
    integer row operation a*row - b*pivot with (a, b) = (p, f)/gcd(p, f)
    for pivot p and entry f, then division by the content when a is not
    +/-1.  At the end each row holds one entry p of A, at column c, and
    row c of X is the row's B part over p.  It is returned as (row, p): an
    integer dict over B's columns and p > 0 with no common factor, so entry
    j of row c of X is row.get(j, 0) / p.
    """
    n = len(A)
    if n == 0:
        return []
    if len(B) != n:
        raise InputError("dimension mismatch in solve_square")
    rows = []
    for a, b in zip(A, B):
        if not (all(type(c) is int and 0 <= c < n for c in a)
                and all(type(j) is int and j >= 0 for j in b)):
            raise InputError("dimension mismatch in solve_square")
        keys = [*a, *(n + j for j in b)]
        values = _primitive_row([*a.values(), *b.values()])
        rows.append({c: x for c, x in zip(keys, values) if x})
    holders = [set() for _ in range(n)]  # the rows with an entry in column c of A
    for i, row in enumerate(rows):
        for c in row:
            if c < n:
                holders[c].add(i)
    entries = [sum(c < n for c in row) for row in rows]  # the number of entries in A of each row
    unfinished = list(range(n))
    pivots = []  # (row, column)
    for _ in range(n):
        r = min(unfinished, key=entries.__getitem__)
        if not entries[r]:
            raise ConsistencyError("singular matrix in solve_square")
        unfinished.remove(r)
        prow = rows[r]
        c = min((c for c in prow if c < n), key=lambda c: len(holders[c]))
        pivots.append((r, c))
        p = prow[c]
        for i in sorted(holders[c]):
            if i == r:
                continue
            row = rows[i]
            f = row[c]
            g = gcd(p, f)
            a, b = p // g, f // g
            if a != 1:
                for col in row:
                    row[col] *= a
            for col, v in prow.items():
                old = row.get(col)
                if old is None:
                    row[col] = -b * v
                    if col < n:
                        holders[col].add(i)
                        entries[i] += 1
                else:
                    new = old - b * v
                    if new:
                        row[col] = new
                    else:
                        del row[col]
                        if col < n:
                            holders[col].discard(i)
                            entries[i] -= 1
            if a not in (1, -1):
                g = gcd(*row.values())
                if g != 1:
                    for col in row:
                        row[col] //= g
    X = [None] * n
    for r, c in pivots:
        row = rows[r]
        p = row.pop(c)
        g = gcd(p, *row.values())
        if p < 0:
            g = -g
        X[c] = ({j - n: v // g for j, v in row.items()}, p // g)
    return X


class SparseEchelon:
    """Incremental exact Gaussian elimination over sparse vectors.

    Vectors are dicts {column_key: rational} with orderable keys; entries
    may be ints or Fractions.  Elimination is fraction-free: each incoming
    vector is scaled once to integers by the lcm of its denominators, and
    every pivot row is a primitive integer vector (content 1) whose pivot,
    at its least key, is positive.  A reduction step is the integer row
    operation out = a*out - b*row with a > 0, so `reduce` returns the
    residual up to a positive scalar; ranks, membership and the sequence of
    `add` results are those of elimination over Q.
    """

    def __init__(self):
        self.pivots: dict = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: dict) -> dict:
        """The residual of `vec` after elimination by the pivot rows, as an
        integer vector: a positive multiple of the residual over Q."""
        den = 1
        for v in vec.values():
            if v.denominator != 1:
                den = lcm(den, v.denominator)
        if den == 1:
            out = {k: v.numerator for k, v in vec.items() if v}
        else:
            out = {k: v.numerator * (den // v.denominator)
                   for k, v in vec.items() if v}
        pivots = self.pivots
        heap = list(out)
        heapify(heap)
        while heap:
            k = heappop(heap)
            f = out.get(k)
            if f is None:  # eliminated since it was pushed
                continue
            row = pivots.get(k)
            if row is None:
                return out
            p = row[k]
            a, b = 1, f
            if p != 1:
                g = gcd(p, f)
                a, b = p // g, f // g
                if a != 1:
                    for c in out:
                        out[c] *= a
            for c, v in row.items():
                old = out.get(c)
                if old is None:
                    out[c] = -b * v
                    heappush(heap, c)
                else:
                    nv = old - b * v
                    if nv:
                        out[c] = nv
                    else:
                        del out[c]
            if a != 1 and out:
                g = gcd(*out.values())
                if g != 1:
                    for c in out:
                        out[c] //= g
        return out

    def add(self, vec: dict) -> bool:
        """Insert a vector; returns True iff it enlarges the span."""
        res = self.reduce(vec)
        if not res:
            return False
        k = min(res)
        g = gcd(*res.values())
        if res[k] < 0:
            g = -g
        self.pivots[k] = {c: v // g for c, v in res.items()}
        return True

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)


def _divide_content(row) -> tuple:
    """An integer row divided by the gcd of its entries (a positive scalar,
    so the sign pattern is kept); the zero row stays zero."""
    g = gcd(*row)
    return tuple([x // g for x in row]) if g > 1 else tuple(row)


def _primitive_row(values) -> tuple:
    """The primitive integer positive multiple of a rational row: scaled by
    the lcm of its denominators, then divided by its content."""
    row = tuple(values)
    if not _INT.issuperset(map(type, row)):
        vals = [frac(x) for x in row]
        den = lcm(*(x.denominator for x in vals))
        row = [x.numerator * (den // x.denominator) for x in vals]
    return _divide_content(row)


def strict_feasible(constraints, dim: int | None = None) -> bool:
    """Decide existence of a rational point satisfying strict inequalities.

    Each constraint is (coeffs, constant, sign) where sign +1 asserts
    coeffs·v + constant > 0 and sign -1 asserts coeffs·v + constant < 0.
    Decided exactly by Fourier-Motzkin elimination; for strict systems over
    Q the projection step is lossless, so the answer is exact.  A row of
    ints is taken as it is and any other row as its primitive integer
    multiple (`_primitive_row`, which refuses floats and booleans); a '-'
    row is negated, so every row asserts row·(v, 1) > 0.

    In one or two variables the rows go straight to one bounds pass
    (`_bounds_meet`): in one, the largest lower bound must lie below the
    least upper bound, compared by integer cross-multiplication; in two,
    the first variable is eliminated and the second's bounds are read off
    the rows with a zero in the first column and the pos x neg
    combinations (`_eliminated_pairs`), none of them stored, divided or
    deduplicated, and a combination whose entry is zero must have a
    positive constant.  That is exact on any rows: a positive multiple of
    a strict row is the same constraint and a duplicate only repeats a
    bound, and a one-signed first column has no pos x neg pair, so its
    rows simply drop out.  Every chamber test on an affine arrangement of
    rank 3 or a central one of rank 4 is of this kind.

    In no variable or three or more, the rows are kept as a set of
    primitive rows (set membership removes duplicates), a combination
    -q[k]*p + p[k]*q is divided by its gcd, and two steps skip work whose
    answer is known:

    - a column whose nonzero entries all have one sign has no pos x neg
      pair, so eliminating it drops every row that uses it; all such
      columns are dropped at once, until none is left.  Exact: from a
      solution of the rows kept, moving each dropped column's variable far
      enough in its column's sign satisfies every dropped row.
    - when one or two two-signed columns are left, the rows go to the
      bounds pass as above (two: the column with fewer pos x neg pairs is
      the one eliminated).
    """
    rows = []
    d = dim
    for coeffs, const, sgn in constraints:
        coeffs = tuple(coeffs)
        if d is None:
            d = len(coeffs)
        elif len(coeffs) != d:
            raise InputError("constraint rows have unequal lengths")
        if sgn not in (1, -1):
            raise InputError("constraint sign must be +1 or -1")
        row = coeffs + (const,)
        if not _INT.issuperset(map(type, row)):
            row = _primitive_row(row)
        rows.append(row if sgn > 0 else tuple([-x for x in row]))
    if not rows:
        return True
    if d == 2:
        return _bounds_meet(_eliminated_pairs(rows, 0, 1))
    if d == 1:
        return _bounds_meet(rows)

    work = set(map(_divide_content, rows))
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
            cols.pop()  # the constants
            one_signed = []
            two_signed = []  # (pos * neg, column)
            for k, col in enumerate(cols):
                zeros = col.count(0)
                if zeros == len(col):
                    continue
                pos = len([x for x in col if x > 0])
                neg = len(col) - zeros - pos
                if pos and neg:
                    two_signed.append((pos * neg, k))
                else:
                    one_signed.append(k)
            if not one_signed:
                break
            live = [v for v in live if not any([v[k] for k in one_signed])]
        if len(two_signed) == 1:
            k = two_signed[0][1]
            return _bounds_meet((v[k], v[-1]) for v in live)
        if len(two_signed) == 2:
            k, j = (c for _, c in sorted(two_signed))
            return _bounds_meet(_eliminated_pairs(live, k, j))
        k = min(two_signed)[1]
        new: set[tuple] = set()
        pos_rows, neg_rows = [], []
        for v in live:
            c = v[k]
            rest = v[:k] + v[k + 1:]
            if c == 0:
                new.add(rest)  # still primitive: the dropped entry was 0
            elif c > 0:
                pos_rows.append((c, rest))
            else:
                neg_rows.append((-c, rest))
        for a, p in pos_rows:
            for b, q in neg_rows:
                new.add(_divide_content([b * x + a * y for x, y in zip(p, q)]))
        work = new


def _eliminated_pairs(rows, k: int, j: int):
    """(column j entry, constant) of every row that eliminating column k
    leaves from `rows`, whose other entries are zero: the rows with a zero
    at k, then b*p + a*q for every p with a = p[k] > 0 and q with
    -b = q[k] < 0.  A combination is a positive multiple of the primitive
    row, which leaves its bound and the sign of its constant alone, so
    none is divided by its content or deduplicated, and `rows` need not
    be primitive either."""
    pos, neg = [], []
    for v in rows:
        c = v[k]
        if c == 0:
            yield v[j], v[-1]
        elif c > 0:
            pos.append((c, v[j], v[-1]))
        else:
            neg.append((-c, v[j], v[-1]))
    for a, pj, pc in pos:
        for b, qj, qc in neg:
            yield b * pj + a * qj, b * pc + a * qc


def _bounds_meet(pairs) -> bool:
    """Whether c*x + b > 0 holds for every (c, b) of `pairs` at some
    rational x: every b with c = 0 must be positive, and the largest lower
    bound -b/c (c > 0) must lie below the least upper bound b/-c (c < 0)
    when both exist.  Bounds are (numerator, positive denominator) pairs
    compared by cross-multiplication."""
    lo = hi = None
    for c, b in pairs:
        if c > 0:
            if lo is None or -b * lo[1] > lo[0] * c:
                lo = (-b, c)
        elif c:
            if hi is None or b * hi[1] < hi[0] * -c:
                hi = (b, -c)
        elif b <= 0:
            return False
    return lo is None or hi is None or lo[0] * hi[1] < hi[0] * lo[1]
