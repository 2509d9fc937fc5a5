"""Finite symmetry groups of arrangements and characters of the filtration.

A symmetry is recorded as a signed permutation of the forms: applying the
inverse affine map to form i gives a positive or negative multiple of form
perm(i).  Characters are class functions, so a group (`GroupSpec`) is kept
as one representative per conjugacy class with the class sizes.  For the
coordinate action of S_n the representatives are one permutation per
cycle type, whose images are read off the forms' primitive integer rows,
one lookup per form and class; a group file lists every element, and each
is checked before the classes are formed.  The induced permutation of
chambers is ρ(w), read on the chambers' plus-masks by bit operations and
their mask-keyed index, both from the arrangement's one tope value
(`vgring._topes`, see `chamber_permutation`).  The characters of the
graded pieces are traces of diagonal blocks: the basis of the filtration
is a set of monomials, 0/1 on the chambers, taken grade by grade, and
since the top stage is every function on the chambers its evaluation
matrix B is square and invertible.  Each stage P^k is ρ(w)-stable (by
construction; see `graded_character`), so B⁻¹ρ(w)B is block upper
triangular along the flag P^0 ⊂ P^1 ⊂ ..., and the trace of its k-th
diagonal block is the character of gr^k = P^k / P^{k-1}.  B⁻¹ is solved
once per call, by one `solve_square` (the inverse) on the sparse rows of B
read off the monomials' chamber masks: one `SparseEchelon` of [B | I],
one row per chamber, and its back-substitution.  It is shared by every
conjugacy class.
The NBC monomials are a Z-basis (Varchenko-Gelfand 1987), so B⁻¹ is
integral (a denominator other than 1 raises `ConsistencyError`) and each
diagonal entry is an integer sum over the stored entries of one row.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .arrangement import Arrangement
from .characters import class_size, decompose_character, partition_str, partitions
from .circuits import (_bits, _byte_unions, _json_kind, _read_json,
                       _union_over, nbc_sets)
from .errors import ConsistencyError, InputError, NotASymmetryError
from .linalg import solve_square
from .vgring import _topes, filtration_profile, monomial_mask


@dataclass(frozen=True)
class SignedPermutation:
    """perm[i] = j and flips[i] = sign(lambda) where w·ω_i = lambda·ω_j."""

    perm: tuple
    flips: tuple

    def __post_init__(self):
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)) or len(self.flips) != n:
            raise InputError("signed permutation data malformed")
        if any(s not in (1, -1) for s in self.flips):
            raise InputError("flips must be +1 or -1")

    @classmethod
    def identity(cls, n: int) -> "SignedPermutation":
        return cls(tuple(range(n)), (1,) * n)

    def compose(self, other: "SignedPermutation") -> "SignedPermutation":
        """self after other (w1 ∘ w2 as maps on the ambient space)."""
        n = len(self.perm)
        if len(other.perm) != n:
            raise InputError("size mismatch in composition")
        perm = tuple(self.perm[other.perm[i]] for i in range(n))
        flips = tuple(other.flips[i] * self.flips[other.perm[i]] for i in range(n))
        return SignedPermutation(perm, flips)

    def inverse(self) -> "SignedPermutation":
        n = len(self.perm)
        inv = [0] * n
        flips = [1] * n
        for i, j in enumerate(self.perm):
            inv[j] = i
            flips[j] = self.flips[i]
        return SignedPermutation(tuple(inv), tuple(flips))


@dataclass(frozen=True)
class GroupSpec:
    """A finite group acting by signed form permutations, given by one
    representative per conjugacy class and the class sizes.

    `cycle_types` is per class and is None for groups that are not
    recognized symmetric groups.
    """

    name: str
    representatives: tuple
    class_sizes: tuple
    class_labels: tuple
    cycle_types: tuple | None

    @property
    def order(self) -> int:
        return sum(self.class_sizes)

    @property
    def n_classes(self) -> int:
        return len(self.class_labels)


def _validate_closure(elements):
    elems = set(elements)
    if len(elems) != len(elements):
        raise InputError("group contains repeated elements")
    n = len(elements[0].perm)
    if SignedPermutation.identity(n) not in elems:
        raise InputError("group does not contain the identity")
    for a in elements:
        if a.inverse() not in elems:
            raise InputError("group not closed under inverse")
        for b in elements:
            if a.compose(b) not in elems:
                raise InputError("group not closed under composition")


def coordinate_action(A: Arrangement) -> GroupSpec:
    """The symmetric group permuting the coordinates of Q^dim, by one
    permutation per cycle type μ, made of consecutive cycles
    (0 1 ... μ1-1)(μ1 ...)...; classes in the order of their labels, sizes
    from `class_size`.

    The permutation g sending e_i to e_{g(i)} carries the form with
    homogenized row (a, c) to (a permuted by g, c), so each image is the
    permuted integer row of its form, looked up by `Arrangement.find_form`,
    which also gives the flip: one dictionary lookup per form and class.
    This checks the whole group: for n >= 2 the representatives include the
    transposition (0 1) and the n-cycle (0 1 ... n-1), which generate S_n;
    a linear bijection maps distinct hyperplanes to distinct hyperplanes,
    so if each generator maps every form onto a form, it permutes the
    hyperplanes, and so does every product of generators.  For n <= 1 the
    one representative is the identity.  A representative that maps some
    form off the arrangement raises `NotASymmetryError`.
    """
    n = A.dim
    rows = A.integer_forms()
    types = sorted(partitions(n), key=partition_str)
    reps = []
    for mu in types:
        g, start = [], 0
        for part in mu:
            g += [start + (i + 1) % part for i in range(part)]
            start += part
        # the image of form i has coordinate g(r) equal to its coordinate r
        ginv = sorted(range(n), key=g.__getitem__)
        perm, flips = [], []
        for i, row in enumerate(rows):
            hit = A.find_form(tuple(row[r] for r in ginv) + (row[n],))
            if hit is None:
                raise NotASymmetryError(
                    f"image of form {A.labels[i]!r} is not in the arrangement")
            perm.append(hit[0])
            flips.append(hit[1])
        reps.append(SignedPermutation(tuple(perm), tuple(flips)))
    return GroupSpec(
        name=f"S{n}-coordinates",
        representatives=tuple(reps),
        class_sizes=tuple(class_size(mu) for mu in types),
        class_labels=tuple(partition_str(mu) for mu in types),
        cycle_types=tuple(types),
    )


def group_from_json(A: Arrangement, data: dict) -> GroupSpec:
    """Load a group from its file form (schema in the README); the first
    element that is not a symmetry raises `NotASymmetryError`."""
    if not isinstance(data, dict):
        raise InputError("group file must hold a JSON object")
    name = data.get("group", "W")
    if not isinstance(name, str):
        raise InputError(f'"group" must be a string, not {_json_kind(name)}')
    if name == "Sn-coordinates":
        return coordinate_action(A)
    entries = data.get("action")
    if not isinstance(entries, list) or not entries:
        raise InputError("group file needs a nonempty 'action' list")
    elements = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise InputError(f"a group element must be an object, not {_json_kind(entry)}")
        if "perm" not in entry:
            raise InputError("group element missing key 'perm'")
        perm = [None] * A.n
        flips = [1] * A.n
        for src, dst in _label_map(entry["perm"], "perm", "labels").items():
            if isinstance(dst, bool) or not isinstance(dst, (str, int)):
                raise InputError('"perm": a label must be a string or an '
                                 f"integer, not {_json_kind(dst)}")
            perm[A.form_index(str(src))] = A.form_index(str(dst))
        if any(p is None for p in perm):
            raise InputError("group element must map every hyperplane")
        for src, s in _label_map(entry.get("flips", {}), "flips", "1 or -1").items():
            if type(s) is not int or s not in (1, -1):
                kind = s if type(s) is int else _json_kind(s)
                raise InputError(f'"flips": a flip must be the integer 1 or -1, not {kind}')
            flips[A.form_index(str(src))] = s
        elements.append(SignedPermutation(tuple(perm), tuple(flips)))
    for k, w in enumerate(elements):
        try:
            chamber_permutation(A, w)
        except ConsistencyError as exc:
            images = ", ".join(f"{A.labels[i]}->{'-' if s < 0 else ''}{A.labels[j]}"
                               for i, (j, s) in enumerate(zip(w.perm, w.flips)))
            raise NotASymmetryError(
                f"group element {k + 1} ({images}) is not a symmetry: {exc}") from exc
    _validate_closure(elements)
    reps, sizes = _conjugacy_classes(elements)
    class_labels = tuple(f"C{c + 1}" for c in range(len(reps)))
    cycle_types = None
    m = re.fullmatch(r"S(\d+)", name)
    if m:
        cycle_types = _identify_sn_classes(int(m.group(1)), reps, sizes)
        class_labels = tuple(partition_str(t) for t in cycle_types)
    return GroupSpec(name, reps, sizes, class_labels, cycle_types)


def _label_map(value, field: str, what: str) -> dict:
    """The JSON object of a group element's `field`, mapping labels to
    `what`; anything else is an `InputError` naming its JSON kind."""
    if not isinstance(value, dict):
        raise InputError(f'"{field}" must be an object mapping labels to {what}, '
                         f"not {_json_kind(value)}")
    return value


def load_group(A: Arrangement, path_or_name: str) -> GroupSpec:
    if path_or_name == "Sn-coordinates":
        return coordinate_action(A)
    return group_from_json(A, _read_json(path_or_name))


def _conjugacy_classes(elements):
    """(representatives, sizes): the first listed element of each class,
    classes in the order of their representatives."""
    index = {w: k for k, w in enumerate(elements)}
    seen = [False] * len(elements)
    reps, sizes = [], []
    for k, g in enumerate(elements):
        if seen[k]:
            continue
        members = {index[h.compose(g).compose(h.inverse())] for h in elements}
        for m in members:
            seen[m] = True
        reps.append(g)
        sizes.append(len(members))
    return tuple(reps), tuple(sizes)


def _element_order(w: SignedPermutation) -> int:
    n = len(w.perm)
    e = SignedPermutation.identity(n)
    g = w
    k = 1
    while g != e:
        g = g.compose(w)
        k += 1
    return k


def _identify_sn_classes(n, representatives, sizes):
    """Match abstract classes to cycle types by (element order, class size);
    the pair is injective over partitions of n <= 5."""
    if n > 5:
        raise InputError("cycle-type identification from files is limited to S5")
    lookup = {}
    for mu in partitions(n):
        key = (lcm(*mu), class_size(mu))
        if key in lookup:
            raise ConsistencyError("ambiguous cycle-type identification")
        lookup[key] = mu
    out = []
    for w, size in zip(representatives, sizes):
        key = (_element_order(w), size)
        if key not in lookup:
            raise InputError(
                f"class with order {key[0]} and size {size} does not "
                f"match any cycle type of S{n}")
        out.append(lookup[key])
    return tuple(out)


def chamber_permutation(A: Arrangement, w: SignedPermutation) -> tuple:
    """Index map chamber -> image chamber.  Every image sign vector must be
    a chamber again and the map a bijection, as for a true symmetry;
    otherwise a `ConsistencyError` is raised (an `InputError` if the sizes
    do not match).

    The image of a chamber has sign flip_i * c_i at perm(i), so on
    plus-masks it is the chamber's mask XOR the mask of the flipped
    hyperplanes, its bits moved i -> perm(i) by one table lookup per byte
    (`_byte_unions`, `_union_over`), then looked up in the plus-mask
    index; both are read from the arrangement's one tope value
    (`vgring._topes`)."""
    if len(w.perm) != A.n:
        raise InputError("signed permutation size does not match the arrangement")
    topes = _topes(A)
    plus, index = topes.plus, topes.index
    flipped = sum(1 << i for i, s in enumerate(w.flips) if s < 0)
    tables = _byte_unions([1 << j for j in w.perm])
    out = [index.get(_union_over(tables, m ^ flipped)) for m in plus]
    if None in out:
        m = _union_over(tables, plus[out.index(None)] ^ flipped)
        signs = "".join("+" if m >> i & 1 else "-" for i in range(A.n))
        raise ConsistencyError(f"image sign vector {signs} is not a chamber")
    if len(set(out)) != len(out):
        raise ConsistencyError("chamber map is not a permutation")
    return tuple(out)


def fixed_chambers(A: Arrangement, w: SignedPermutation) -> int:
    p = chamber_permutation(A, w)
    return sum(1 for i, j in enumerate(p) if i == j)


@dataclass(frozen=True)
class GradedCharacters:
    """Character of every filtration layer, one value per conjugacy class."""

    group: GroupSpec
    grade_values: tuple   # grade -> tuple of Fractions per class
    chamber_values: tuple

    def decompositions(self):
        """Per-grade and total multiplicities; symmetric groups only."""
        if self.group.cycle_types is None:
            raise InputError("irreducible decomposition needs a symmetric group")
        out = []
        for values in self.grade_values:
            table = dict(zip(self.group.cycle_types, values))
            n = sum(self.group.cycle_types[0])
            out.append(decompose_character(table, n))
        total = decompose_character(
            dict(zip(self.group.cycle_types, self.chamber_values)),
            sum(self.group.cycle_types[0]))
        return out, total


def graded_character(A: Arrangement, group: GroupSpec) -> GradedCharacters:
    """Characters of the filtration layers, as diagonal blocks of B⁻¹ρ(w)B.

    B is the chamber evaluation matrix of the NBC monomials of the default
    ordering (`nbc_sets(A)`, in grade order), the basis that
    `filtration_profile` certifies; the first dim P^k columns span P^k, and
    column j's grade is its set's size.  The top stage is every function on
    the chambers, so B is square and invertible.  No stage is checked to be
    W-stable: `chamber_permutation` raises unless every image sign vector
    is a chamber and the map is a bijection; the image of chamber c has
    sign flip_i * c_i at perm(i), so ρ(w) sends the Heaviside function of i
    to that of perm(i), or to 1 minus it when flip_i = -1; and ρ(w),
    composition with a bijection, is multiplicative, so it maps every
    product of at most k Heaviside functions into P^k.  Hence B⁻¹ρ(w)B is
    block upper triangular along the flag, its k-th diagonal block is ρ(w)
    on gr^k = P^k / P^{k-1}, and the grade-k character is the sum of its
    diagonal entries over the grade-k columns j.  With (ρ(w) f)[perm[c]] =
    f[c], entry (j, j) is Σ_{c ∈ mask_j} B⁻¹[j][perm[c]], that is the sum
    of the entries B⁻¹[j][d] of row j whose preimage chamber perm⁻¹(d) is
    in mask_j: one integer sum over the stored entries of row j, B⁻¹ solved
    once per call and shared by every class.  B⁻¹ is integral (the NBC
    monomials are a Z-basis of the chamber functions), so a row with a
    denominator other than 1 raises `ConsistencyError`.
    """
    filtration_profile(A)  # the certificate: raises unless the NBC sets are a basis
    basis = nbc_sets(A)
    top = len(basis[-1])
    nch = len(A.chambers())
    # column j of B is 0/1 on the chambers: those of monomial j's mask
    masks = [monomial_mask(A, subset) for subset in basis]
    if len(masks) != nch:
        raise ConsistencyError("the top filtration stage is not every "
                               "function on the chambers")
    rows = [{} for _ in range(nch)]  # row c of B: 1 where mask j holds c
    for j, mask in enumerate(masks):
        for c in _bits(mask):
            rows[c][j] = 1
    inverse = solve_square(rows)
    if any(p != 1 for _, p in inverse):
        raise ConsistencyError("the inverse of the NBC evaluation matrix is not integral")
    per_class = []
    chamber_vals = []
    for w in group.representatives:
        perm = chamber_permutation(A, w)
        preimage = [0] * nch
        for c, d in enumerate(perm):
            preimage[d] = c
        sums = [0] * (top + 1)
        for (row, _), subset, mask in zip(inverse, basis, masks):
            sums[len(subset)] += sum(v for d, v in row.items() if mask >> preimage[d] & 1)
        per_class.append([Fraction(x) for x in sums])
        chamber_vals.append(Fraction(sum(1 for i, j in enumerate(perm) if i == j)))
    grade_values = [tuple(values[k] for values in per_class)
                    for k in range(top + 1)]
    for c in range(group.n_classes):
        total = sum(grade_values[k][c] for k in range(top + 1))
        if total != chamber_vals[c]:
            raise ConsistencyError("graded characters do not sum to the "
                                   "chamber character")
    return GradedCharacters(group, tuple(grade_values), tuple(chamber_vals))
