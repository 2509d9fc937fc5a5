"""Sparse exact polynomials in the hyperplane generators e_i and the
degree-2 parameter u.

A monomial key is (emon, uexp) where emon is a sorted tuple of generator
indices (repeats allowed, so (3, 3) encodes e_3^2) and uexp is the power
of u.  Almost everything downstream works with squarefree, u-free
polynomials; the general shape exists for the square relations e_i^2 - e_i
and e_i(e_i - u).  The grading puts deg e_i = deg u = 2.

Coefficients are always `Fraction`s: the constructor coerces them through
`linalg.frac` (which refuses floats and booleans) and drops zeros; it is
the one entry for outside data.  Code that already holds canonical keys
and nonzero Fractions builds through `Poly._of`, which checks and copies
nothing: the ring operations (sums, negation, products by a polynomial or
a scalar, each dropping the sums that cancel), `zero`, `top_e_part`,
`divide_u`, `substitute_u` at u = 0 or 1 (where a term's factor u^k is 0
or 1 and no coefficient is multiplied) and the closed-form relation
families.
The product of two polynomials is summed in integers, as
`CordovilAlgebra._combine` sums straightened terms: each term's numerator
and denominator are read once, each pair's product of numerators is
added into its key over one running common denominator, which grows (an
lcm, the sums so far rescaled) only when the pair's denominator does not
divide it, and each nonzero sum becomes one Fraction.  The Fractions of
small integers are made once, in `_FRACTIONS`, and shared by every
result, the algebra's included (a Fraction is immutable).
The constructor takes each index as an int or a label (a str): after the
indices are sorted, one set test on their types refuses any other, such
as a bool, a float or a Fraction, which would name a form by its value,
with an `InputError` naming the monomial.  The constructor and
`monomial` refuse indices that do not sort together, such as an index
and a label, with another; so does a product, which joins indices
already read and tests no type.
`monomial` builds its one term directly: it sorts the indices (testing
no type: it runs once per monomial straightened, and the type test cost
central-scale 1.8% in `BENCH_43.json`), sends the u-power through `_u_power` (as the
constructor does, refusing a float, a bool, a fraction or a negative
power) only when it is not a nonnegative int, and coerces and tests only
a coefficient other than its default, the shared Fraction 1.
`substitute_u` compares an int value directly and sends any other value
through `frac`, so a float or a boolean is refused.  At u = 1 each term
is re-keyed (m, k) -> (m, 0); the re-keyed dict is the result when no two
terms share an e-monomial, as in every relation family, and the colliding
terms are summed (zero sums dropped) otherwise.  Reduction modulo the
squares is not a ring operation here: `CordovilAlgebra.straighten` skips
squared monomials itself, and the rewritings e_i^2 -> 0 and e_i^2 -> e_i
live in the tests as oracles.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import ConsistencyError, InputError
from .linalg import frac


_ONE = Fraction(1)  # `monomial`'s default coefficient (a Fraction is immutable)
_MIXED = "monomial {!r}: name its forms all by index or all by label"
_NOT_INDEX = "monomial {!r}: {!r} is not an index (an int) or a label (a str)"
_INDEX_TYPES = frozenset({int, str})


class _IntFractions(dict):
    """Fraction(k) for an int k; the small ones are made once and shared by
    every result (a Fraction is immutable)."""

    def __missing__(self, k):
        return Fraction(k)


_FRACTIONS = _IntFractions((k, Fraction(k)) for k in range(-16, 17))


def _u_power(x) -> int:
    """A power of u as an int: an integral value such as Fraction(2) or
    "2" is converted; a float, a boolean, or a non-integral or negative
    value is an `InputError`."""
    if type(x) is int and x >= 0:
        return x
    try:
        q = None if isinstance(x, (bool, float)) else Fraction(x)
    except (TypeError, ValueError, OverflowError):
        q = None
    if q is None or q.denominator != 1 or q < 0:
        raise InputError(f"u-power {x!r} is not a nonnegative integer")
    return q.numerator


class Poly:
    """Polynomial with rational coefficients; immutable by convention."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for key, coeff in (terms or {}).items():
            emon, uexp = key
            coeff = frac(coeff)
            if coeff == 0:
                continue
            try:
                idxs = tuple(sorted(emon))
            except TypeError:
                raise InputError(_MIXED.format(emon)) from None
            if not _INDEX_TYPES.issuperset(map(type, idxs)):
                bad = next(i for i in idxs if type(i) not in _INDEX_TYPES)
                raise InputError(_NOT_INDEX.format(emon, bad))
            clean[(idxs, _u_power(uexp))] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, terms: dict) -> "Poly":
        """A polynomial from terms already keyed canonically (sorted index
        tuple, int u-power) with nonzero Fraction values: no checks, no
        copy."""
        p = cls.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def zero(cls):
        return cls._of({})

    @classmethod
    def one(cls):
        return cls({((), 0): 1})

    @classmethod
    def constant(cls, c):
        return cls({((), 0): c})

    @classmethod
    def generator(cls, i: int):
        return cls({((i,), 0): 1})

    @classmethod
    def u(cls, power: int = 1):
        return cls({((), power): 1})

    @classmethod
    def monomial(cls, idxs, uexp: int = 0, coeff=_ONE):
        """coeff * prod(e_i for i in idxs) * u^uexp; zero for a zero coeff."""
        if type(uexp) is not int or uexp < 0:
            uexp = _u_power(uexp)
        p = cls.__new__(cls)
        if coeff is not _ONE:
            coeff = frac(coeff)
            if not coeff:
                p.terms = {}
                return p
        try:
            p.terms = {(tuple(sorted(idxs)), uexp): coeff}
        except TypeError:
            raise InputError(_MIXED.format(idxs)) from None
        return p

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            old = out.get(key)
            if old is None:
                out[key] = c
            else:
                total = old + c
                if total:
                    out[key] = total
                else:
                    del out[key]
        return Poly._of(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly._of({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return Poly.constant(other) - self

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = frac(other)
            return Poly._of({k: v * c for k, v in self.terms.items()} if c else {})
        right = [(m, u, c.numerator, c.denominator) for (m, u), c in other.terms.items()]
        sums: dict = {}
        den = 1
        try:
            for (m1, u1), c1 in self.terms.items():
                n1, d1 = c1.numerator, c1.denominator
                for m2, u2, n2, d2 in right:
                    k, d = n1 * n2, d1 * d2
                    if d != den:
                        if den % d:
                            grown = lcm(den, d)
                            scale = grown // den
                            for key in sums:
                                sums[key] *= scale
                            den = grown
                        k *= den // d
                    key = (tuple(sorted(m1 + m2)), u1 + u2)
                    sums[key] = sums.get(key, 0) + k
        except TypeError:
            raise InputError(_MIXED.format(m1 + m2)) from None
        if den == 1:
            return Poly._of({key: _FRACTIONS[v] for key, v in sums.items() if v})
        return Poly._of({key: Fraction(v, den) for key, v in sums.items() if v})

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    # -- shape predicates ---------------------------------------------------

    @property
    def is_u_free(self) -> bool:
        return all(u == 0 for (_, u) in self.terms)

    @property
    def is_homogeneous(self) -> bool:
        degs = {len(m) + u for (m, u) in self.terms}
        return len(degs) <= 1

    # -- transforms ----------------------------------------------------------

    def substitute_u(self, value) -> "Poly":
        if type(value) is not int:
            value = frac(value)
        if value == 0:
            return Poly._of({key: c for key, c in self.terms.items() if key[1] == 0})
        if value == 1:
            out = {(m, 0): c for (m, _), c in self.terms.items()}
            if len(out) == len(self.terms):
                return Poly._of(out)  # no two terms share an e-monomial
            out = {}
            for (m, u), c in self.terms.items():
                key = (m, 0)
                old = out.get(key)
                out[key] = c if old is None else old + c
            return Poly._of({key: c for key, c in out.items() if c})
        out = {}
        for (m, u), c in self.terms.items():
            key = (m, 0)
            out[key] = out.get(key, Fraction(0)) + c * value**u
        return Poly(out)

    def divide_u(self) -> "Poly":
        """Exact division by u; every term must carry u."""
        for (m, u) in self.terms:
            if u == 0:
                raise ConsistencyError("polynomial is not divisible by u")
        return Poly._of({(m, u - 1): c for (m, u), c in self.terms.items()})

    def top_e_part(self) -> "Poly":
        """Highest-degree homogeneous part in the e generators (u-free input)."""
        if not self.is_u_free:
            raise InputError("top_e_part expects a u-free polynomial")
        top = max((len(m) for (m, _) in self.terms), default=0)
        return Poly._of({key: c for key, c in self.terms.items() if len(key[0]) == top})

    # -- display -------------------------------------------------------------

    def sorted_terms(self):
        """Terms in canonical order: total degree, then e-degree descending,
        then lexicographic on the index tuple."""
        return sorted(
            self.terms.items(),
            key=lambda kv: (-(len(kv[0][0]) + kv[0][1]), -len(kv[0][0]), kv[0][0]),
        )

    def to_str(self, labels=None) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for (m, u), c in self.sorted_terms():
            factors = []
            if u == 1:
                factors.append("u")
            elif u > 1:
                factors.append(f"u^{u}")
            for i in sorted(set(m)):
                name = labels[i] if labels is not None else str(i)
                power = m.count(i)
                factors.append(f"e{name}" if power == 1 else f"e{name}^{power}")
            body = "*".join(factors)
            if not body:
                mag = str(abs(c))
            elif abs(c) == 1:
                mag = body
            else:
                mag = f"{abs(c)}*{body}"
            sign = "-" if c < 0 else "+"
            pieces.append((sign, mag))
        first_sign, first_mag = pieces[0]
        out = ("-" if first_sign == "-" else "") + first_mag
        for sign, mag in pieces[1:]:
            out += f" {sign} {mag}"
        return out

    def to_json_terms(self, labels=None) -> list:
        out = []
        for (m, u), c in self.sorted_terms():
            names = [labels[i] if labels is not None else str(i) for i in m]
            out.append({"monomial": names, "u": u, "coeff": str(c)})
        return out

    def __repr__(self):
        return f"Poly({self.to_str()})"


def format_poincare(coeffs) -> str:
    """Render a polynomial in t^2 from its coefficient list, e.g. [1, 6, 11, 6]."""
    pieces = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if k == 0:
            pieces.append(str(c))
        else:
            head = "" if c == 1 else f"{c}"
            pieces.append(f"{head}t^{2 * k}")
    return " + ".join(pieces) if pieces else "0"
