"""Signed sets and oriented-matroid circuit systems.

Ground elements are addressed by 0-based indices internally; labels appear
only in the JSON file format and in pretty-printing.  A circuit system can
come from an arrangement or from a raw file, in which case it is treated as
the circuit set of a loop-free central oriented matroid.  An arrangement's
circuits (minimal flat-nonempty linear dependencies among the homogenized
forms) come from one scan that grows the independent sets with a nonempty
flat, one element and one incremental integer reduction at a time; each
dependent extension hands over its one kernel vector, so the same scan
finds the minimal empty flats and their affine identities.
`flat_nonempty`, the minimal infeasible sets, the NBC sets and
straightening all read that scan.
Being exact, its output is not re-checked against the circuit axioms;
`circuits_from_json` checks them on outside data.  Both kinds of source are
a `GroundSet`, so the NBC sets and straightening run one code path on them,
with memoized per-ordering tables (canonical circuits, broken circuits, NBC).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd

from .errors import ConsistencyError, InputError
from .linalg import rank


@dataclass(frozen=True)
class SignedSet:
    """A pair of disjoint index sets (plus, minus) with nonempty union."""

    plus: frozenset
    minus: frozenset

    def __post_init__(self):
        object.__setattr__(self, "plus", frozenset(self.plus))
        object.__setattr__(self, "minus", frozenset(self.minus))
        if self.plus & self.minus:
            raise InputError("signed set has overlapping plus and minus parts")
        if not (self.plus or self.minus):
            raise InputError("signed set has empty support")

    @property
    def support(self) -> frozenset:
        return self.plus | self.minus

    def negate(self) -> "SignedSet":
        return SignedSet(self.minus, self.plus)

    def sign(self, i) -> int:
        if i in self.plus:
            return 1
        if i in self.minus:
            return -1
        return 0

    def issubset(self, other: "SignedSet") -> bool:
        return self.plus <= other.plus and self.minus <= other.minus

    def key(self):
        supp = tuple(sorted(self.support))
        return (len(supp), supp, tuple(self.sign(i) for i in supp))

    def pretty(self, labels=None) -> str:
        name = (lambda i: labels[i]) if labels is not None else str
        body = [f"+{name(i)}" for i in sorted(self.plus)]
        body += [f"-{name(i)}" for i in sorted(self.minus)]
        return "".join(sorted(body, key=lambda s: s[1:]))


class GroundSet:
    """Labelled ground elements 0, ..., n-1: label lookup, subset resolution
    and a per-instance memo.  `Arrangement` and `CircuitSet` both extend it,
    so the code below the circuit scan reads either source the same way."""

    def __init__(self, labels, duplicate_message):
        self.labels = tuple(str(x) for x in labels)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._index) != len(self.labels):
            raise InputError(duplicate_message)
        self._indices = frozenset(range(len(self.labels)))
        self._cache: dict = {}

    @property
    def n(self) -> int:
        return len(self.labels)

    def form_index(self, h) -> int:
        """Resolve a 0-based index or a label to a form index.  Only a
        string or an int that is not a bool names a form: any other value
        is refused, not truncated."""
        if isinstance(h, str):
            if h not in self._index:
                raise InputError(f"no hyperplane labelled {h!r}")
            return self._index[h]
        if not isinstance(h, int) or isinstance(h, bool):
            raise InputError(f"form index {h!r} is not an int or a label")
        if not 0 <= h < self.n:
            raise InputError(f"form index {h} out of range")
        return h

    def _index_set(self, subset) -> frozenset:
        """`subset` as a frozenset of indices: valid indices cost one subset
        test, others go through `form_index` in a hash-independent order."""
        ss = frozenset(subset)
        if ss <= self._indices:
            return ss
        return frozenset(map(self.form_index, sorted(ss, key=repr)))

    def _memo(self, key, compute):
        """The value cached on this instance under `key`; `compute()` fills
        it on first use, and every later call returns the same object."""
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]


class CircuitSet(GroundSet):
    """Ground set plus signed circuits: a plain container that checks only
    distinct labels and supports inside the ground set (the circuit axioms
    are `validate_circuit_axioms`'s, run by `circuits_from_json`).

    `empty_flats` are the minimal empty flats of the arrangement the
    circuits come from (index sets whose hyperplanes do not meet); a raw
    circuit system has none.  `_rank` is the size of the largest
    independent set with a nonempty flat, which the circuit scan finds and
    checks against `linalg.rank`; a raw circuit system has none (None).
    """

    def __init__(self, ground, circuits, empty_flats=()):
        super().__init__(ground, "ground set labels must be distinct")
        seen = {}
        for X in circuits:
            if not X.support <= self._indices:
                raise InputError("circuit support outside the ground set")
            seen[X.key()] = X
        self.circuits = tuple(seen[k] for k in sorted(seen))
        self.empty_flats = tuple(frozenset(s) for s in empty_flats)
        self._rank = None

    @property
    def ground(self) -> tuple:
        return self.labels

    def flat_nonempty(self, subset) -> bool:
        """True unless `subset` contains one of the minimal empty flats (a
        superset of an empty flat is empty); always true on a raw system."""
        return not any(map(self._index_set(subset).issuperset, self.empty_flats))

    def supports(self) -> tuple:
        return tuple(sorted({X.support for X in self.circuits},
                            key=lambda s: (len(s), tuple(sorted(s)))))

    def __eq__(self, other):
        return (isinstance(other, CircuitSet) and self.ground == other.ground
                and self.circuits == other.circuits
                and self.empty_flats == other.empty_flats)

    def __repr__(self):
        return f"CircuitSet(n={self.n}, circuits={len(self.circuits)})"


@dataclass(frozen=True)
class AxiomReport:
    ok: bool
    violations: tuple


def _mask(indices) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def validate_circuit_axioms(C: CircuitSet) -> AxiomReport:
    """Exhaustively check the four signed-circuit axioms, with witnesses.

    Elimination (4) of e from X and Y is required only when X u Y contains
    none of `C.empty_flats`, i.e. when the hyperplanes of X u Y meet: there
    the circuits inside X u Y are those of a central arrangement, while
    affine circuits need not eliminate across an empty flat.  A raw circuit
    system has no empty flats, so it gets the full axiom.  Signed sets are
    compared as (plus, minus) bitmasks, and the candidate Y's, the nested
    supports and the eliminators are searched as bitsets over the circuit
    list.

    One negation index `neg` (circuit k's negation is circuit neg[k])
    serves axiom (2) and halves axiom (4).  When every circuit's negation
    is present, the pair (X, Y) and its mirror (-Y, -X) have the same
    answer: e lies in X+ & Y- iff it lies in (-Y)+ & (-X)-, the two pairs
    have the same union of supports, and Z eliminates e from one iff -Z
    eliminates it from the other (Bjorner, Las Vergnas, Sturmfels, White
    and Ziegler, *Oriented Matroids*, 3.2).  Mirroring is an involution on
    the pairs that swaps neg[k] >= x with neg[k] <= x, and neg[k] = x only
    for Y = -X, which is never tested.  So circuit x is paired only with the
    k in `later[x]`, the negations of circuits x, x + 1, ..., and each
    failure is recorded for the mirror too.  A system that is not closed
    under negation pairs every circuit with every circuit.  The violations
    are emitted pair by pair in the order of a scan over all pairs, Y by
    increasing index, e in the order of X.plus & Y.minus.
    """
    violations = []
    circ = C.circuits
    masks = [(_mask(X.plus), _mask(X.minus)) for X in circ]
    flats = [_mask(s) for s in C.empty_flats]
    index = {pm: k for k, pm in enumerate(masks)}
    neg = [index.get((xm, xp)) for xp, xm in masks]
    for X in circ:
        if len(X.support) <= 1:
            violations.append((1, f"|support| = {len(X.support)} for {X.pretty(C.ground)}"))
    for X, j in zip(circ, neg):
        if j is None:
            violations.append((2, f"negation of {X.pretty(C.ground)} missing"))
    # Bit k of has_plus[i] (has_minus[i]) says that i is in circuit k's
    # plus (minus) part.
    has_plus = [0] * C.n
    has_minus = [0] * C.n
    for k, Z in enumerate(circ):
        for i in Z.plus:
            has_plus[i] |= 1 << k
        for i in Z.minus:
            has_minus[i] |= 1 << k
    # (3): the circuits whose support holds X's are the AND over X's
    # support of the circuits through each element.
    all_circuits = (1 << len(circ)) - 1
    for X, (xp, xm) in zip(circ, masks):
        over = all_circuits
        for i in X.support:
            over &= has_plus[i] | has_minus[i]
        for k in _bits(over):
            yp, ym = masks[k]
            if (xp, xm) != (yp, ym) and (xp, xm) != (ym, yp):
                violations.append(
                    (3, f"{X.pretty(C.ground)} nested in {circ[k].pretty(C.ground)}"))
    # (4): a circuit eliminates e iff it lies in no has_plus[i] with i
    # outside plus - e and no has_minus[i] with i outside minus - e; the
    # union over the i outside a mask is read a byte at a time, from
    # tables built for the first pair that needs them.
    mirrored = None not in neg
    later = [all_circuits] * (len(circ) + 1)
    if mirrored:
        later[-1] = 0
        for x in reversed(range(len(circ))):
            later[x] = later[x + 1] | 1 << neg[x]
    failed: dict = {}  # (x, k) -> the e that no circuit eliminates
    tables = None
    ground = (1 << C.n) - 1
    for x, (X, (xp, xm)) in enumerate(zip(circ, masks)):
        partners = 0
        for i in X.plus:
            partners |= has_minus[i]
        for k in _bits(partners & later[x]):
            yp, ym = masks[k]
            if (xp, xm) == (ym, yp):
                continue
            plus, minus = xp | yp, xm | ym
            union = plus | minus
            if any(f & union == f for f in flats):
                continue
            if tables is None:
                tables = _byte_unions(has_plus), _byte_unions(has_minus)
            bad = (_union_over(tables[0], ground & ~plus)
                   | _union_over(tables[1], ground & ~minus))
            for e in _bits(xp & ym):
                if not all_circuits & ~(bad | has_plus[e] | has_minus[e]):
                    failed.setdefault((x, k), set()).add(e)
                    if mirrored:
                        failed.setdefault((neg[k], neg[x]), set()).add(e)
    for x, k in sorted(failed):
        X, Y = circ[x], circ[k]
        for e in X.plus & Y.minus:
            if e in failed[x, k]:
                violations.append(
                    (4, f"no elimination of {C.ground[e]} from "
                        f"{X.pretty(C.ground)} and {Y.pretty(C.ground)}"))
    return AxiomReport(not violations, tuple(violations))


def _bits(mask: int):
    """The indices of the set bits of `mask`, increasing."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _byte_unions(sets: list) -> list:
    """Per byte b of an element mask, the table v -> OR of sets[8b + j]
    over the set bits j of v."""
    tables = []
    for b in range(0, len(sets), 8):
        table = [0]
        for s in sets[b:b + 8]:
            table += [t | s for t in table]
        tables.append(table)
    return tables


def _union_over(tables: list, mask: int) -> int:
    """The OR of the sets indexed by the set bits of `mask`."""
    out = 0
    for table in tables:
        out |= table[mask & 255]
        mask >>= 8
    return out


def circuits_from_arrangement(A) -> CircuitSet:
    """Signed circuits of an arrangement: minimal flat-nonempty supports
    whose homogenized forms are linearly dependent, signed by the (unique,
    full-support) dependency and normalized so the smallest support index
    carries +1.  Both orientations are emitted.  The result also carries the
    arrangement's minimal empty flats, found by the same scan."""
    return circuit_scan(A)[0]


def circuit_scan(A) -> tuple:
    """(circuits_from_arrangement(A), affine identities): one memoized scan.
    The identities are one signed set per minimal empty flat S, the signs
    of sum_{j in S} lambda_j w_j = c oriented so that c < 0."""
    return A._memo("circuits", lambda: _arrangement_circuits(A))


def _arrangement_circuits(A) -> tuple:
    """The circuits and minimal empty flats, grown from independent sets.

    A support S is *good* when its homogenized forms, next to the cone's H0
    column h0 = (0, ..., 0, -1) if A is affine, are linearly independent:
    S is independent with a nonempty flat (Fredholm alternative; a central
    arrangement has no empty flat and no H0).  A kernel vector (lambda, c)
    of S's forms and h0 is an identity sum_{j in S} lambda_j w_j = c.  The
    recorded supports are the minimal supports that are not good: the
    circuits (c = 0) and the minimal empty flats (c != 0; such a flat is
    independent, else dropping a dependent form keeps the flat).

    Good sets pass to subsets, so each one is grown from its prefixes,
    depth first, by one element e > max S at a time.  Every good S keeps an
    integer echelon of h0 and its forms in insertion order, and, for each
    e > max S, the residue of w_e against it with the integer combination
    of h0, S and e that gives it.  Adding s to S adds the row of s's
    residue, so the residue of each later e is one row operation away from
    its residue against S.  A zero residue for S u {e} hands over the
    kernel of S u {e}: it is that one combination, because S is good, so
    the kernel is one-dimensional.  S u {e} is recorded iff lambda has full
    support: a kernel vector vanishing on some i would be one of the
    smaller set S u {e} - i, and conversely a bad S u {e} - i would give a
    kernel vector vanishing at i.  Every minimal bad T is reached: T - max T
    is good, so it is grown, and extending it by max T is tried.  The
    signs are lambda's: a circuit is emitted in both orientations, an
    identity oriented so that c < 0, which makes it a minimal infeasible
    set.  Depth-first growth meets the supports in lexicographic order, not
    by size, so the identities are sorted by (size, indices): `empty_flats`
    and the minimal infeasible sets keep the order of a scan by size.  The
    forms enter as `A.integer_forms()`: positive multiples, with the same
    kernel signs.

    The largest good set and h0 span the homogenized forms and h0 (a good
    set that is not spanning is extended by a form outside its span), which
    the one `rank` call confirms.  Its size r is kept as the circuit set's
    `_rank`: every NBC set is good, and the NBC sets have a member of size
    r, which `CordovilAlgebra` checks.
    """
    forms = A.integer_forms()
    h0 = () if A.central else ((0,) * A.dim + (-1,),)
    circuits: list[SignedSet] = []
    identities: list[SignedSet] = []

    def extend(row, residues, path):
        """Add `row`, the residue of the last element s of `path`, to the
        echelon.  Each residue (e, vector, combination over h0 and the
        elements before s, coefficient of e) takes one row operation; a zero
        vector is the kernel of `path` + (e,), recorded if minimal, and the
        others are returned."""
        _, vec_s, combo_s, c_s = row
        piv = next(k for k, x in enumerate(vec_s) if x)
        p = vec_s[piv]
        out = []
        for e, vec, combo, c_e in residues:
            f = vec[piv]
            if f:
                g = gcd(p, f)
                a, b = p // g, f // g
                vec = [a * x - b * y for x, y in zip(vec, vec_s)]
                combo = [a * x - b * y for x, y in zip(combo, combo_s)] + [-b * c_s]
                c_e *= a
                if a not in (1, -1):
                    g = gcd(*vec, *combo, c_e)
                    if g != 1:
                        vec = [x // g for x in vec]
                        combo = [x // g for x in combo]
                        c_e //= g
            else:
                combo = combo + [0]
            if any(vec):
                out.append((e, vec, combo, c_e))
                continue
            lam = combo[len(h0):] + [c_e]
            if 0 in lam:
                continue
            supp = path + (e,)
            plus = frozenset(j for j, x in zip(supp, lam) if x > 0)
            minus = frozenset(j for j, x in zip(supp, lam) if x < 0)
            c = combo[0] if h0 else 0
            X = SignedSet(minus, plus) if c > 0 else SignedSet(plus, minus)
            if c:
                identities.append(X)
            else:
                circuits.extend((X, X.negate()))
        return out

    def grow(path, residues) -> int:
        """Grow every good set above `path`; the size of the largest."""
        largest = len(path)
        for i, row in enumerate(residues):
            child = path + (row[0],)
            largest = max(largest, grow(child, extend(row, residues[i + 1:], child)))
        return largest

    residues = [(e, list(w), [], 1) for e, w in enumerate(forms)]
    if h0:
        residues = extend((None, list(h0[0]), [], 1), residues, ())
    largest = grow((), residues)
    if largest + len(h0) != rank(list(forms) + list(h0)):
        raise ConsistencyError("the grown independent sets do not span the forms")
    identities.sort(key=lambda X: (len(X.support), sorted(X.support)))
    C = CircuitSet(A.labels, circuits,
                   empty_flats=[X.support for X in identities])
    C._rank = largest
    return C, tuple(identities)


def _per_ordering(source, name: str, ordering, build):
    """`build(source, ordering)` memoized on `source` under the ordering's
    permutation tuple (None: `range(n)`), so every caller of one ordering
    shares one value."""
    key = tuple(range(source.n)) if ordering is None else tuple(ordering)
    return source._memo((name, key), lambda: build(source, key))


def canonical_circuits(source, ordering=None):
    """One representative per +/- circuit pair, with +1 on the
    ordering-minimal support element; memoized per ordering."""
    return _per_ordering(source, "canonical", ordering, _canonical_circuits)


def _circuit_set(source) -> CircuitSet:
    """The circuit system of a source: itself if it is one, else the
    arrangement's memoized circuit scan."""
    return source if isinstance(source, CircuitSet) else circuits_from_arrangement(source)


def _canonical_circuits(source, ordering) -> tuple:
    C = _circuit_set(source)
    ranks = ordering_ranks(C.n, ordering)
    out = {}
    for X in C.circuits:
        lead = min(X.support, key=lambda i: ranks[i])
        rep = X if X.sign(lead) > 0 else X.negate()
        out[tuple(sorted(rep.support))] = rep
    return tuple(out[k] for k in sorted(out, key=lambda s: (len(s), s)))


def ordering_ranks(n: int, ordering=None) -> dict:
    """Rank lookup for a hyperplane ordering given as a permutation tuple."""
    ordering = tuple(range(n) if ordering is None else ordering)
    if sorted(ordering) != list(range(n)):
        raise InputError("ordering must be a permutation of the ground indices")
    return {i: r for r, i in enumerate(ordering)}


def broken_circuits(source, ordering=None) -> tuple:
    """Circuit supports with their ordering-largest element removed."""
    return tuple(sorted(broken_circuit_map(source, ordering),
                        key=lambda s: (len(s), tuple(sorted(s)))))


def broken_circuit_map(source, ordering=None) -> dict:
    """broken circuit -> (support tuple, sign dict, dropped max element),
    memoized per ordering.

    The stored orientation has +1 on the ordering-minimal support element.
    When two circuits break to the same set, the one whose dropped element
    has smaller rank wins, which keeps rewriting deterministic.
    """
    return _per_ordering(source, "broken", ordering, _broken_circuit_map)


def _broken_circuit_map(source, ordering) -> dict:
    ranks = ordering_ranks(source.n, ordering)
    out: dict = {}
    for X in canonical_circuits(source, ordering):
        supp = X.support
        mx = max(supp, key=lambda i: ranks[i])
        B = supp - {mx}
        phi = {i: X.sign(i) for i in supp}
        old = out.get(B)
        if old is None or ranks[mx] < ranks[old[2]]:
            out[B] = (tuple(sorted(supp)), phi, mx)
    return out


def nbc_sets(source, ordering=None) -> tuple:
    """All no-broken-circuit sets with a nonempty flat
    (`source.flat_nonempty`, always true on a raw circuit system, which is
    taken to be central), graded by size (the empty set included) and
    memoized per ordering."""
    return _per_ordering(source, "nbc", ordering, _grow_nbc)


def _grow_nbc(source, ordering) -> tuple:
    """The NBC complex, grown one element at a time in increasing index
    order.  If S has no broken circuit and e > max S, every broken circuit
    inside S u {e} contains e, so it is one whose largest index is e.  Being
    free of broken circuits and having a nonempty flat both pass to subsets,
    so every NBC set is reached through its prefixes.  The list is extended
    while it is read (breadth first, each set by increasing e), so it stays
    sorted by size, then lexicographically."""
    by_max: list[list[int]] = [[] for _ in range(source.n)]
    for b in broken_circuit_map(source, ordering):
        by_max[max(b)].append(_mask(b))
    grown = [((), 0)]
    for supp, mask in grown:
        for e in range(supp[-1] + 1 if supp else 0, source.n):
            cand, cmask = supp + (e,), mask | 1 << e
            if not any(b & cmask == b for b in by_max[e]) and source.flat_nonempty(cand):
                grown.append((cand, cmask))
    return tuple(frozenset(supp) for supp, _ in grown)


def nbc_counts(source, ordering=None) -> tuple:
    """Grade-k NBC counts: the coefficients of the Poincare polynomial in t^2."""
    return _grade_counts(nbc_sets(source, ordering))


def _grade_counts(sets) -> tuple:
    """How many of `sets` have each size, from 0 to the largest."""
    top = max((len(s) for s in sets), default=0)
    counts = [0] * (top + 1)
    for s in sets:
        counts[len(s)] += 1
    return tuple(counts)


# -- JSON ----------------------------------------------------------------


def circuits_to_json(C: CircuitSet) -> dict:
    return {
        "ground": list(C.ground),
        "circuits": [
            {"plus": sorted(C.ground[i] for i in X.plus),
             "minus": sorted(C.ground[i] for i in X.minus)}
            for X in C.circuits
        ],
    }


def _read_json(path):
    """The JSON value in the file at `path`, read as UTF-8.  Text that is
    not UTF-8 or not JSON, or a number Python will not read (an integer
    literal over its digit limit), is a one-line `InputError` naming the
    path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: byte {exc.start}: "
                         f"{exc.reason}") from exc
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _json_kind(value) -> str:
    """How a JSON value reads in an error message."""
    for kind, name in ((bool, "a boolean"), (int, "an integer"), (float, "a float"),
                       (str, "a string"), (list, "a list"), (dict, "an object")):
        if isinstance(value, kind):
            return name
    return "null"


def _labels(value, where: str) -> list:
    """A JSON list of labels (strings or integers), as strings."""
    if not isinstance(value, list):
        raise InputError(f"{where} must be a list of labels, not {_json_kind(value)}")
    for g in value:
        if isinstance(g, bool) or not isinstance(g, (str, int)):
            raise InputError(f"{where}: a label must be a string or an integer, "
                             f"not {_json_kind(g)}")
    return [str(g) for g in value]


def circuits_from_json(data: dict) -> CircuitSet:
    """A raw circuit system, the one way outside data becomes a CircuitSet;
    omitted negations are completed, and the full circuit axioms are checked.
    `data` must be an object with a "ground" list of labels and a "circuits"
    list of objects whose "plus" and "minus" lists name ground labels."""
    if not isinstance(data, dict):
        raise InputError(f"circuit data must be an object, not {_json_kind(data)}")
    for key in ("ground", "circuits"):
        if key not in data:
            raise InputError(f"circuit file missing key {key!r}")
    ground = _labels(data["ground"], '"ground"')
    index = {g: i for i, g in enumerate(ground)}
    if not isinstance(data["circuits"], list):
        raise InputError('"circuits" must be a list of objects, '
                         f"not {_json_kind(data['circuits'])}")
    circuits = []
    for entry in data["circuits"]:
        if not isinstance(entry, dict):
            raise InputError("each circuit must be an object with \"plus\" and "
                             f"\"minus\" lists, not {_json_kind(entry)}")
        parts = []
        for side in ("plus", "minus"):
            names = _labels(entry.get(side, []), f'"{side}"')
            unknown = [g for g in names if g not in index]
            if unknown:
                raise InputError(f'"{side}": label {unknown[0]!r} is not in the ground set')
            parts.append(frozenset(index[g] for g in names))
        circuits.append(SignedSet(*parts))
    circuits += [X.negate() for X in circuits]
    C = CircuitSet(ground, circuits)
    report = validate_circuit_axioms(C)
    if not report.ok:
        (axiom, witness), *rest = report.violations
        more = f" (and {len(rest)} more)" if rest else ""
        raise InputError(f"circuit axioms violated: axiom ({axiom}) {witness}{more}")
    return C


def load_circuits(path) -> CircuitSet:
    return circuits_from_json(_read_json(path))
