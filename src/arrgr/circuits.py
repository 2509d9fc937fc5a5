"""Signed sets and oriented-matroid circuit systems.

Ground elements are addressed by 0-based indices internally; labels appear
only in the JSON file format and in pretty-printing.  A circuit system can
come from an arrangement (minimal flat-nonempty linear dependencies among
the homogenized forms) or from a raw file, in which case it is treated as
the circuit set of a loop-free central oriented matroid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

from .errors import ConsistencyError, InputError
from .linalg import rank, rank_and_kernel


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


class CircuitSet:
    """Ground set plus signed circuits, validated against the circuit axioms.

    Pass validate=False to build deliberately broken systems (the axiom
    checker reports violations instead of raising).
    """

    def __init__(self, ground, circuits, validate: bool = True):
        self.ground = tuple(str(g) for g in ground)
        if len(set(self.ground)) != len(self.ground):
            raise InputError("ground set labels must be distinct")
        seen = {}
        for X in circuits:
            if not X.support <= frozenset(range(len(self.ground))):
                raise InputError("circuit support outside the ground set")
            seen[X.key()] = X
        self.circuits = tuple(seen[k] for k in sorted(seen))
        if validate:
            report = validate_circuit_axioms(self)
            if not report.ok:
                raise InputError(
                    "circuit axioms violated: "
                    + "; ".join(f"axiom ({a}) {w}" for a, w in report.violations)
                )

    @property
    def n(self) -> int:
        return len(self.ground)

    def supports(self) -> tuple:
        out = []
        for X in self.circuits:
            if X.support not in out:
                out.append(X.support)
        return tuple(sorted(out, key=lambda s: (len(s), tuple(sorted(s)))))

    def __eq__(self, other):
        return (isinstance(other, CircuitSet) and self.ground == other.ground
                and self.circuits == other.circuits)

    def __repr__(self):
        return f"CircuitSet(n={self.n}, circuits={len(self.circuits)})"


@dataclass(frozen=True)
class AxiomReport:
    ok: bool
    violations: tuple


def validate_circuit_axioms(C: CircuitSet) -> AxiomReport:
    """Exhaustively check the four signed-circuit axioms, with witnesses."""
    violations = []
    circ = C.circuits
    cset = set(circ)
    for X in circ:
        if len(X.support) <= 1:
            violations.append((1, f"|support| = {len(X.support)} for {X.pretty(C.ground)}"))
    for X in circ:
        if X.negate() not in cset:
            violations.append((2, f"negation of {X.pretty(C.ground)} missing"))
    for X in circ:
        for Y in circ:
            if X.support <= Y.support and X != Y and X != Y.negate():
                violations.append(
                    (3, f"{X.pretty(C.ground)} nested in {Y.pretty(C.ground)}"))
    for X in circ:
        for Y in circ:
            if X == Y.negate():
                continue
            for e in X.plus & Y.minus:
                found = False
                for Z in circ:
                    if (Z.plus <= (X.plus | Y.plus) - {e}
                            and Z.minus <= (X.minus | Y.minus) - {e}):
                        found = True
                        break
                if not found:
                    violations.append(
                        (4, f"no elimination of {C.ground[e]} from "
                            f"{X.pretty(C.ground)} and {Y.pretty(C.ground)}"))
    return AxiomReport(not violations, tuple(violations))


def circuits_from_arrangement(A) -> CircuitSet:
    """Signed circuits of an arrangement: minimal flat-nonempty supports
    whose homogenized forms are linearly dependent, signed by the (unique,
    full-support) dependency and normalized so the smallest support index
    carries +1.  Both orientations are emitted."""
    return A._memo("circuits", lambda: _arrangement_circuits(A))


def _arrangement_circuits(A) -> CircuitSet:
    n = A.n
    cols = [f.homogenized() for f in A.forms]
    height = A.dim + 1
    full_rank = rank([[cols[j][r] for j in range(n)] for r in range(height)]) if n else 0
    found_supports: list[frozenset] = []
    circuits: list[SignedSet] = []
    for size in range(2, min(n, full_rank + 1) + 1):
        for supp in combinations(range(n), size):
            ss = frozenset(supp)
            if any(fs <= ss for fs in found_supports):
                continue
            if not A.flat_nonempty(supp):
                continue
            sub = [[cols[j][r] for j in supp] for r in range(height)]
            k, kernel = rank_and_kernel(sub, ncols=size)
            if not kernel:
                continue
            if len(kernel) != 1 or any(x == 0 for x in kernel[0]):
                raise ConsistencyError(
                    "a minimal dependent support has no full-support dependency")
            lam = kernel[0]
            plus = frozenset(supp[t] for t in range(size) if lam[t] > 0)
            minus = frozenset(supp[t] for t in range(size) if lam[t] < 0)
            X = SignedSet(plus, minus)
            circuits += [X, X.negate()]
            found_supports.append(ss)
    return CircuitSet(A.labels, circuits)


def _resolve(source):
    """(n, circuit list, flat test or None) for an Arrangement or CircuitSet."""
    if isinstance(source, CircuitSet):
        return source.n, source.circuits, None
    return source.n, circuits_from_arrangement(source).circuits, source.flat_nonempty


def canonical_circuits(source, ordering=None):
    """One representative per +/- circuit pair, with +1 on the
    ordering-minimal support element."""
    n, circ, _ = _resolve(source)
    ranks = ordering_ranks(n, ordering)
    out = {}
    for X in circ:
        lead = min(X.support, key=lambda i: ranks[i])
        rep = X if X.sign(lead) > 0 else X.negate()
        out[tuple(sorted(rep.support))] = rep
    return tuple(out[k] for k in sorted(out, key=lambda s: (len(s), s)))


def ordering_ranks(n: int, ordering=None) -> dict:
    """Rank lookup for a hyperplane ordering given as a permutation tuple."""
    if ordering is None:
        ordering = tuple(range(n))
    ordering = tuple(ordering)
    if sorted(ordering) != list(range(n)):
        raise InputError("ordering must be a permutation of the ground indices")
    return {i: r for r, i in enumerate(ordering)}


def broken_circuits(source, ordering=None) -> tuple:
    """Circuit supports with their ordering-largest element removed."""
    return tuple(sorted(broken_circuit_map(source, ordering),
                        key=lambda s: (len(s), tuple(sorted(s)))))


def broken_circuit_map(source, ordering=None) -> dict:
    """broken circuit -> (support tuple, sign dict, dropped max element).

    The stored orientation has +1 on the ordering-minimal support element.
    When two circuits break to the same set, the one whose dropped element
    has smaller rank wins, which keeps rewriting deterministic.
    """
    n, circ, _ = _resolve(source)
    ranks = ordering_ranks(n, ordering)
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
    """All no-broken-circuit sets, graded by size (the empty set included).

    For an arrangement the flat-nonempty filter applies; a raw CircuitSet is
    taken to be central, where every flat is nonempty.
    """
    if isinstance(source, CircuitSet):
        return _scan_nbc(source, ordering)
    key = ("nbc", tuple(ordering) if ordering is not None else None)
    return source._memo(key, lambda: _scan_nbc(source, ordering))


def _scan_nbc(source, ordering) -> tuple:
    n, _, flat_ok = _resolve(source)
    bcs = broken_circuits(source, ordering)
    out = []
    for size in range(n + 1):
        for supp in combinations(range(n), size):
            ss = frozenset(supp)
            if flat_ok is not None and not flat_ok(supp):
                continue
            if any(b <= ss for b in bcs):
                continue
            out.append(ss)
    return tuple(sorted(out, key=lambda s: (len(s), tuple(sorted(s)))))


def nbc_counts(source, ordering=None) -> tuple:
    """Grade-k NBC counts: the coefficients of the Poincare polynomial in t^2."""
    sets = nbc_sets(source, ordering)
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


def circuits_from_json(data: dict, complete_negations: bool = True,
                       validate: bool = True) -> CircuitSet:
    try:
        ground = [str(g) for g in data["ground"]]
        index = {g: i for i, g in enumerate(ground)}
        circuits = []
        for entry in data["circuits"]:
            plus = frozenset(index[str(g)] for g in entry.get("plus", []))
            minus = frozenset(index[str(g)] for g in entry.get("minus", []))
            circuits.append(SignedSet(plus, minus))
    except KeyError as exc:
        raise InputError(f"circuit file missing key {exc}") from exc
    if complete_negations:
        circuits += [X.negate() for X in circuits]
    return CircuitSet(ground, circuits, validate=validate)


def load_circuits(path, complete_negations: bool = True,
                  validate: bool = True) -> CircuitSet:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    return circuits_from_json(data, complete_negations, validate)
