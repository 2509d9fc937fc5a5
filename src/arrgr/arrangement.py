"""Rational affine hyperplane arrangements.

An arrangement is an ordered list of labelled oriented hyperplanes
H_i = {v : w_i(v) = 0} given by affine forms w_i(v) = linear·v + constant.
Chambers are the connected components of the complement, encoded as sign
vectors: strings over '+'/'-' indexed like the form list ('+' sorts before
'-', so the lexicographic chamber order is plain string order).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import product

from .circuits import (GroundSet, SignedSet, _json_kind, _labels, _read_json,
                       circuit_scan, circuits_from_arrangement)
from .errors import DuplicateFormError, InputError
from .linalg import (SparseEchelon, _divide_content, _not_exact, _primitive_row,
                     frac, strict_feasible)


def hyperplane_key(row) -> tuple:
    """(key, sign) for a nonzero rational row: key = c·row is its primitive
    integer multiple with a positive leading entry, and sign = ±1 is the
    sign of c.  Two rows have equal keys iff one is a nonzero multiple of
    the other, and then the product of their signs is the multiple's."""
    key = _primitive_row(row)
    if next(x for x in key if x) > 0:
        return key, 1
    return tuple(-x for x in key), -1


class AffineForm:
    """A non-constant rational affine form coeffs·v + constant."""

    __slots__ = ("linear", "constant")

    def __init__(self, linear, constant=0):
        self.linear = tuple(frac(x) for x in linear)
        self.constant = frac(constant)
        if not any(x != 0 for x in self.linear):
            raise InputError("affine form must have a nonzero linear part")

    def homogenized(self) -> tuple:
        """Coefficient vector extended by the constant."""
        return self.linear + (self.constant,)

    def __eq__(self, other):
        return (isinstance(other, AffineForm) and self.linear == other.linear
                and self.constant == other.constant)

    def __hash__(self):
        return hash((self.linear, self.constant))

    def __repr__(self):
        return f"AffineForm({self.linear}, {self.constant})"


class Arrangement(GroundSet):
    """Immutable arrangement; geometric queries are cached on the instance."""

    def __init__(self, dim, forms, labels=None):
        self.dim = int(dim)
        if self.dim < 0:
            raise InputError("dimension must be nonnegative")
        self.forms = tuple(f if isinstance(f, AffineForm) else AffineForm(*f)
                           for f in forms)
        for f in self.forms:
            if len(f.linear) != self.dim:
                raise InputError("form length does not match the dimension")
        if labels is None:
            labels = [f"H{i + 1}" for i in range(len(self.forms))]
        labels = tuple(labels)
        if len(labels) != len(self.forms):
            raise InputError("one label per form required")
        super().__init__(labels, "labels must be distinct")
        self._rows = tuple(_primitive_row(f.homogenized()) for f in self.forms)
        self._keys: dict = {}
        duplicates = []
        for j, row in enumerate(self._rows):
            key, sign = hyperplane_key(row)
            first = self._keys.setdefault(key, (j, sign))[0]
            if first != j:
                duplicates.append((first, j))
        if duplicates:
            i, j = min(duplicates)
            raise DuplicateFormError(
                f"forms {self.labels[i]!r} and {self.labels[j]!r} define "
                "the same hyperplane")
        self.central = all(f.constant == 0 for f in self.forms)

    # -- basics ------------------------------------------------------------

    def _key(self):
        return (self.dim, tuple(f.homogenized() for f in self.forms), self.labels)

    def __eq__(self, other):
        return isinstance(other, Arrangement) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Arrangement(dim={self.dim}, n={self.n})"

    # -- geometric queries ---------------------------------------------------

    def integer_forms(self) -> tuple:
        """Per form, the primitive integer multiple of its homogenized row
        (linear part, then constant).  The multiple is positive, so it has
        the same zero set, positive side, kernel signs and flats."""
        return self._rows

    def find_form(self, row):
        """(j, sign) if the homogenized rational `row` (linear part, then
        constant) is λ·w_j for a λ of that sign, else None."""
        key, sign = hyperplane_key(row)
        hit = self._keys.get(key)
        return None if hit is None else (hit[0], sign * hit[1])

    def sign_constraints(self, signs) -> list:
        """Strict constraints 'sign_i w_i > 0' for a (partial) sign word,
        each w_i given by its integer form.  A sign is '+' or 1, '-' or -1;
        any other sign, or a word longer than the form list, is an
        `InputError`."""
        rows = self.integer_forms()
        signs = tuple(signs)
        if len(signs) > len(rows):
            raise InputError(f"sign word of length {len(signs)} for "
                             f"{len(rows)} forms")
        word = []
        for i, s in enumerate(signs):
            try:
                word.append(_SIGNS[s])
            except (KeyError, TypeError):  # TypeError: unhashable
                raise InputError(f"sign {s!r} at position {i} is not "
                                 "'+', '-', 1 or -1") from None
        return _signed([(row[:-1], row[-1]) for row in rows], word)

    def signs_feasible(self, signs) -> bool:
        return strict_feasible(self.sign_constraints(signs), dim=self.dim)

    def chambers(self) -> tuple:
        """All feasible sign vectors, in lexicographic order ('+' < '-').

        A depth-first search over sign prefixes, each feasible prefix
        having a nonempty open region R; Fourier-Motzkin (`strict_feasible`)
        is the only feasibility test.  It runs in the arrangement's
        essential coordinates, on a central arrangement only on the '+'
        half and there on its decone, and is asked only what the free
        split, cut and face rules below leave open:

        - *Essential coordinates.*  One echelon of the linear parts a_i
          has pivot columns P, which index a coordinate subspace
          complementary to the lineality space L = ∩ ker a_i: a vector
          supported on P with a_i·w = 0 for all i is zero, because the
          echelon rows restricted to P are triangular.  Every point is
          w + l with w supported on P and l in L, and no form sees l, so
          the forms kept on the columns of P answer every sign question
          as before, in rank variables.  The free splits below depend
          only on the span of the linear parts, which this keeps.
        - *Decone.*  On a central arrangement an open cone inside
          {f_0 > 0} is nonempty iff it meets {f_0 = 1}, and so is its
          intersection with any H_i (scale a point by 1/f_0).  So the
          '+' half is '+' followed by the chambers of forms 1..n-1
          restricted to {f_0 = 1}, in rank - 1 variables.  A restricted
          linear part is a_i modulo a_0, so form i is a free split there
          iff it is one in the whole arrangement; no two central forms are
          proportional, so form 1 is one and no test needs H_0.
        - *Antipodal half.*  On a central arrangement -c is a chamber iff
          c is, so only the '+' half is searched and its negations follow
          in reverse order: negation swaps '+' and '-', which reverses
          the lexicographic order.

        Below, r is the number of variables searched: the rank, less one
        on a central arrangement.

        - *Free split.*  When form i's linear part a_i is outside the span
          of a_0, ..., a_{i-1}, both children of every feasible prefix of
          length i are feasible, untested: a vector v with a_j·v = 0 for
          j < i and a_i·v != 0 moves a point of R to either side of H_i
          without leaving R.  Depth 0 is always free.
        - *Cut.*  At any other depth one test in r - 1 variables asks
          whether R meets H_i (the prefix's forms restricted to H_i, see
          `_cut_rows`).  If it does, both children are feasible, untested:
          a point of R on H_i has both sides of H_i within R.  If it does
          not, R lies on one side (a segment in R between the sides would
          cross H_i), and the side is read on a face of R's closure.
        - *Face.*  Let k be the depth of the last node on the prefix's
          path with two children, by a free split or because its region
          R_k meets H_k.  A step with one child never shrinks the region,
          so R is one side of H_k within R_k and its closure holds the
          face F = R_k ∩ H_k, nonempty and open in H_k.  When R misses
          H_i, the form f_i keeps one sign on R, hence >= 0 (say) on F;
          an affine function >= 0 on the open set F of H_k that vanished
          inside F would vanish on all of H_k, making H_i = H_k.  So f_i
          has R's sign on F, and one test in r - 1 variables (the first
          k forms restricted to H_k with the prefix's signs, and f_i
          restricted to H_k with '+') picks the '+' child when it holds
          and the '-' child when it does not.
        """
        return self._memo("chambers", self._search)

    def _search(self) -> tuple:
        if self.n == 0:
            return ("",)
        if not self.central:
            return tuple(_completions(self.integer_forms(), ""))
        half = _completions(self.integer_forms(), "+")
        flip = str.maketrans("+-", "-+")
        return tuple(half + [c.translate(flip) for c in reversed(half)])

    def flat_nonempty(self, subset) -> bool:
        """True iff the affine flat {w_i = 0 : i in subset} is nonempty, i.e.
        iff the subset contains none of the minimal empty flats (a superset
        of an empty flat is empty, and every empty flat contains a minimal
        one).  A central arrangement answers true (the origin lies on every
        hyperplane); an affine one asks the `CircuitSet` of its memoized
        circuit scan (`circuits_from_arrangement`), which the first call runs."""
        ss = self._index_set(subset)
        return self.central or circuits_from_arrangement(self).flat_nonempty(ss)

    def minimal_infeasible_sign_sets(self) -> tuple:
        """All signed sets with empty open intersection whose proper signed
        subsets all have nonempty open intersection, ordered by support
        size, then support, then sign pattern with '+' before '-'.

        They are the signed circuits, in both orientations, plus one set per
        minimal empty flat S: the signs of the affine identity
        sum_{j in S} lambda_j w_j = c, oriented so that c < 0.  Reason: by
        Motzkin's transposition theorem a minimal infeasible set is C - H0
        for a circuit C of cone(A) with C(H0) in {0, -}.  A cone circuit
        with an empty flat that avoids H0 is never minimal: its linear parts
        satisfy a second relation, and moving along it gives a certificate
        on a smaller support.  Every proper subset of a circuit with a
        nonempty flat, or of a minimal empty flat, has independent linear
        parts, so it is feasible; hence every candidate is minimal.  The
        circuit scan (`circuit_scan`) reads both kinds off one kernel per
        support.
        """
        return self._memo("min_infeasible", self._read_minimal_infeasible)

    def _read_minimal_infeasible(self) -> tuple:
        C, identities = circuit_scan(self)
        return tuple(sorted(C.circuits + identities, key=_plus_first))


_SIGNS = {"+": "+", 1: "+", "-": "-", -1: "-"}


def _signed(pairs, word) -> list:
    """The constraints (linear, constant, ±1) of a '+'/'-' word over its
    first len(word) (linear, constant) pairs."""
    return [(lin, c, 1 if s == "+" else -1) for (lin, c), s in zip(pairs, word)]


def _completions(rows, start: str) -> list:
    """The chambers of the integer forms `rows` that begin with `start`, in
    lexicographic order: every chamber for start "", the '+' half of a
    central arrangement for start "+" (see `Arrangement.chambers`).

    One `SparseEchelon` of the linear parts gives both the free-split
    flags (depth i is free iff form i's linear part enlarges the echelon
    of the earlier ones) and the pivot columns, on which every form is
    kept.  For the '+' half the forms are then restricted to {f_0 = 1}
    and form 0 is dropped.  When every depth is a free split nothing is
    tested, so neither is done: every sign word is a chamber.  A stack pops
    '+' before '-', each entry with the depth of the last split on its path;
    the forms restricted to H_i are built once, by the first cut or side
    test on H_i."""
    ech = SparseEchelon()
    free = [ech.add({k: x for k, x in enumerate(row[:-1]) if x}) for row in rows]
    if start:
        free = free[1:]
    if all(free):  # nothing to test: every sign word is a chamber
        return [start + "".join(word) for word in product("+-", repeat=len(free))]
    keep = sorted(ech.pivots)
    rows = [_divide_content([row[k] for k in keep] + [row[-1]]) for row in rows]
    dim = len(keep)
    if start:
        deconed = _cut_rows([rows[0][:-1] + (-1,)] + rows[1:], 0)[1:]
        rows = [lin + (c,) for lin, c in deconed]
        dim -= 1
    faces = [None] * len(rows)

    def face(k: int) -> list:
        if faces[k] is None:
            faces[k] = _cut_rows(rows, k)
        return faces[k]

    n, cut_dim = len(rows), dim - 1
    out = []
    stack = [("", 0)]
    while stack:
        prefix, k = stack.pop()
        i = len(prefix)
        if i == n:
            out.append(start + prefix)
            continue
        if free[i] or strict_feasible(_signed(face(i), prefix), dim=cut_dim):
            stack += ((prefix + "-", i), (prefix + "+", i))
            continue
        on = face(k)
        side = _signed(on, prefix[:k])
        side.append(on[i] + (1,))
        sign = "+" if strict_feasible(side, dim=cut_dim) else "-"
        stack.append((prefix + sign, k))
    return out


def _cut_rows(rows, i: int) -> list:
    """Every integer form restricted to H_i = {rows[i] = 0}, as primitive
    (linear, constant) pairs in dim - 1 variables; row i itself restricts
    to zero.

    With p the first nonzero coordinate of H_i's form a·v + c, substituting
    v_p = -(c + sum_{k != p} a_k v_k) / a_p into b·v + d gives 1/a_p times
    the row (a_p b_k - b_p a_k for k != p; a_p d - b_p c).  Multiplied by
    the sign of a_p and divided by its content, it is a positive multiple
    of the restricted form, so each sign constraint keeps its side.
    """
    a = rows[i]
    p = next(k for k, x in enumerate(a[:-1]) if x)
    ap = a[p]
    if ap < 0:
        a, ap = tuple(-x for x in a), -ap
    out = []
    for b in rows:
        bp = b[p]
        row = _divide_content([ap * y - bp * x for k, (x, y) in
                               enumerate(zip(a, b)) if k != p])
        out.append((row[:-1], row[-1]))
    return out


def _plus_first(X: SignedSet) -> tuple:
    size, supp, signs = X.key()
    return size, supp, tuple(-s for s in signs)


# -- generators ------------------------------------------------------------


def braid(n: int) -> Arrangement:
    """x_i - x_j for 1 <= i < j <= n, labelled "ij"."""
    if n < 2:
        raise InputError("braid arrangement needs n >= 2")
    forms, labels = [], []
    for i in range(n):
        for j in range(i + 1, n):
            lin = [Fraction(0)] * n
            lin[i], lin[j] = Fraction(1), Fraction(-1)
            forms.append(AffineForm(lin, 0))
            labels.append(f"{i + 1}{j + 1}")
    return Arrangement(n, forms, labels)


def semiorder(n: int) -> Arrangement:
    """x_i - x_j - 1 for all ordered pairs i != j, labelled "ij"."""
    if n < 2:
        raise InputError("semiorder arrangement needs n >= 2")
    forms, labels = [], []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            lin = [Fraction(0)] * n
            lin[i], lin[j] = Fraction(1), Fraction(-1)
            forms.append(AffineForm(lin, -1))
            labels.append(f"{i + 1}{j + 1}")
    return Arrangement(n, forms, labels)


def boolean(n: int) -> Arrangement:
    """The coordinate arrangement x_1, ..., x_n."""
    if n < 1:
        raise InputError("boolean arrangement needs n >= 1")
    forms = []
    for i in range(n):
        lin = [Fraction(0)] * n
        lin[i] = Fraction(1)
        forms.append(AffineForm(lin, 0))
    return Arrangement(n, forms, [str(i + 1) for i in range(n)])


def cone(A: Arrangement, label: str = "H0") -> Arrangement:
    """Central arrangement in one higher dimension: each form picks up its
    constant as the coefficient of the new last coordinate r (so it restricts
    to the original at r = 1), plus the extra form -r labelled H0, last."""
    if label in A.labels:
        raise InputError(f"cone label {label!r} collides with an existing label")
    forms = [AffineForm(f.linear + (f.constant,), 0) for f in A.forms]
    forms.append(AffineForm((Fraction(0),) * A.dim + (Fraction(-1),), 0))
    return Arrangement(A.dim + 1, forms, A.labels + (label,))


def delete(A: Arrangement, h) -> Arrangement:
    """Remove one hyperplane."""
    i = A.form_index(h)
    forms = A.forms[:i] + A.forms[i + 1:]
    labels = A.labels[:i] + A.labels[i + 1:]
    return Arrangement(A.dim, forms, labels)


def restrict_with_map(A: Arrangement, h):
    """Restrict the other hyperplanes to H_h, returning the restricted
    arrangement in dimension dim-1 plus a provenance map old label -> kept
    label.  Parallel hyperplanes (empty intersection with H_h) drop out and
    do not appear in the map; scalar-multiple images collapse onto the
    first-seen representative, whose orientation and label are kept.

    The eliminated coordinate is the largest-index one with a nonzero
    coefficient in w_h, which makes the parametrization deterministic.
    """
    i = A.form_index(h)
    f = A.forms[i]
    p = max(k for k in range(A.dim) if f.linear[k] != 0)
    alpha = f.linear[p]
    keep = [k for k in range(A.dim) if k != p]
    out_forms: list[AffineForm] = []
    out_labels: list[str] = []
    seen: dict = {}  # hyperplane key -> kept label
    provenance: dict = {}
    for j, g in enumerate(A.forms):
        if j == i:
            continue
        beta = g.linear[p]
        new_lin = [g.linear[k] - beta * f.linear[k] / alpha for k in keep]
        new_const = g.constant - beta * f.constant / alpha
        if all(x == 0 for x in new_lin):
            continue  # parallel to H_h: a zero form would be a duplicate of it
        key = hyperplane_key(new_lin + [new_const])[0]
        if key not in seen:
            seen[key] = A.labels[j]
            out_forms.append(AffineForm(new_lin, new_const))
            out_labels.append(A.labels[j])
        provenance[A.labels[j]] = seen[key]
    return Arrangement(A.dim - 1, out_forms, out_labels), provenance


def restrict(A: Arrangement, h) -> Arrangement:
    return restrict_with_map(A, h)[0]


# -- JSON ----------------------------------------------------------------


def arrangement_to_json(A: Arrangement) -> dict:
    return {
        "dim": A.dim,
        "forms": [
            {"linear": [str(x) for x in f.linear],
             "constant": str(f.constant),
             "label": lab}
            for f, lab in zip(A.forms, A.labels)
        ],
    }


# a rational string as `arrangement_to_json` writes it: ASCII digits, an
# optional minus sign and an optional denominator
_CANONICAL = re.compile(r"-?[0-9]+(?:/([0-9]+))?")


def _number(value, where: str):
    """An exact JSON number: an integer or a canonical rational string
    (`_CANONICAL`), read before any Fraction is built.  Floats (binary
    fractions), booleans and zero denominators are refused; any other JSON
    kind, or string, is named, with `where`, in a malformed-data error."""
    if isinstance(value, (bool, float)):
        raise _not_exact(value)
    if isinstance(value, str):
        match = _CANONICAL.fullmatch(value)
        if match is None:
            raise _malformed(f"{where} must be an integer or a rational string, "
                             f"not {json.dumps(value)}")
        if match[1] is not None and not match[1].strip("0"):
            raise InputError(f"{json.dumps(value)} has a zero denominator")
    elif not isinstance(value, int):
        raise _malformed(f"{where} must be an integer or a rational string, "
                         f"not {_json_kind(value)}")
    return value


def _integer(value, where: str) -> int:
    """A `_number` that is an integer: a JSON integer or an integer string;
    a rational string that is not one is quoted in the error."""
    value = _number(value, where)
    try:
        return int(value)
    except ValueError:
        raise _malformed(f"{where} must be an integer, not {json.dumps(value)}") from None


def _linear(value) -> list:
    if not isinstance(value, list):
        raise InputError(f'"linear" must be a list, not {_json_kind(value)}')
    return value


def _malformed(message: str) -> InputError:
    return InputError(f"malformed arrangement data: {message}")


def _field(entry: dict, key: str):
    if key not in entry:
        raise _malformed(f"missing key {key!r}")
    return entry[key]


def arrangement_from_json(data: dict) -> Arrangement:
    """The arrangement of a JSON object {"dim": ..., "forms": [{"linear":
    [...], "constant": ..., "label": ...}, ...]}.  A missing key, or a
    value of the wrong JSON kind, is an `InputError` that names it, after
    the "malformed arrangement data: " prefix."""
    if not isinstance(data, dict):
        raise _malformed(f"expected an object, not {_json_kind(data)}")
    try:
        dim = _integer(_field(data, "dim"), '"dim"')
        entries = _field(data, "forms")
        if not isinstance(entries, list):
            raise _malformed(f'"forms" must be a list, not {_json_kind(entries)}')
        for e in entries:
            if not isinstance(e, dict):
                raise _malformed(f"a form must be an object, not {_json_kind(e)}")
        forms = [AffineForm([frac(_number(x, 'a "linear" entry'))
                             for x in _linear(_field(e, "linear"))],
                            frac(_number(_field(e, "constant"), '"constant"')))
                 for e in entries]
        labels = _labels([_field(e, "label") for e in entries], '"label"')
    except InputError:
        raise  # already a full message; InputError is a ValueError
    except (TypeError, ValueError) as exc:  # a number Python cannot read
        raise _malformed(str(exc)) from exc
    return Arrangement(dim, forms, labels)


def load_arrangement(path) -> Arrangement:
    return arrangement_from_json(_read_json(path))


def save_arrangement(A: Arrangement, path):
    with open(path, "w") as fh:
        json.dump(arrangement_to_json(A), fh, indent=2)
        fh.write("\n")
