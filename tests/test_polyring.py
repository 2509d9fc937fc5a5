import random
from fractions import Fraction

import pytest

from arrgr.arrangement import braid
from arrgr.cordovil import CordovilAlgebra
from arrgr.errors import ConsistencyError, InputError
from arrgr.polyring import Poly, format_poincare


def squarefree_reduce_oracle(p: Poly) -> Poly:
    """The rewriting e_i^k -> e_i applied to every monomial of p."""
    out: dict = {}
    for (m, u), c in p.terms.items():
        key = (tuple(sorted(set(m))), u)
        out[key] = out.get(key, 0) + c
    return Poly(out)


def kill_squares_oracle(p: Poly) -> Poly:
    """p with every monomial that repeats a generator dropped (x^2 = 0)."""
    return Poly({key: c for key, c in p.terms.items()
                 if len(set(key[0])) == len(key[0])})


def poly_product_oracle(p: Poly, q: Poly) -> Poly:
    """The product of two polynomials in `Fraction`s: each pair of terms
    multiplied and added into the key of its joined monomial, in the order
    the pairs are met, and the sums that cancel dropped."""
    out: dict = {}
    for (m1, u1), c1 in p.terms.items():
        for (m2, u2), c2 in q.terms.items():
            key = (tuple(sorted(m1 + m2)), u1 + u2)
            old = out.get(key)
            out[key] = c1 * c2 if old is None else old + c1 * c2
    return Poly._of({k: c for k, c in out.items() if c})


def test_zero_coefficients_dropped():
    p = Poly.generator(0) - Poly.generator(0)
    assert p.is_zero
    assert (Poly.monomial((0, 1)) * 0).is_zero


def test_monomials_sorted_with_repeats():
    p = Poly.generator(2) * Poly.generator(0) * Poly.generator(2)
    assert list(p.terms) == [((0, 2, 2), 0)]


def test_monomial_converts_a_u_power_that_is_not_an_int():
    """`monomial` keys an int u-power as it is and converts any other, here
    a Fraction and a numeric string, to an int."""
    for uexp in (2, Fraction(2), "2"):
        [key] = Poly.monomial((1, 0), uexp).terms
        assert key == ((0, 1), 2) and type(key[1]) is int


@pytest.mark.parametrize("uexp", [1.5, 2.7, 2.0, True, -1, Fraction(3, 2), "1/2", "u", None],
                         ids=["1.5", "2.7", "2.0", "bool", "negative", "fraction",
                              "fraction-string", "string", "none"])
def test_u_powers_are_refused_not_truncated(uexp):
    """A u-power is a nonnegative integer: a float, a boolean, or a
    non-integral or negative value is refused with one line naming it, by
    `monomial`, by the constructor and by `Poly.u`, where a float or a bool
    was truncated to an int and a negative power kept."""
    makers = (lambda: Poly.monomial((0,), uexp=uexp),
              lambda: Poly({((0,), uexp): 1}),
              lambda: Poly.u(uexp))
    for make in makers:
        with pytest.raises(InputError) as info:
            make()
        assert str(info.value) == f"u-power {uexp!r} is not a nonnegative integer"
    assert Poly({((0,), "2"): 1}) == Poly.monomial((0,), 2) == Poly.generator(0) * Poly.u(2)


@pytest.mark.parametrize("idxs, bad", [((True,), True), ((1.0,), 1.0),
                                       ((Fraction(1),), Fraction(1)), ((0, 1, True), True),
                                       ((None,), None), ((b"a", b"b"), b"a")],
                         ids=["bool", "float", "fraction", "bool-among-ints", "none",
                              "bytes"])
def test_indices_that_are_not_ints_or_labels_are_refused(idxs, bad):
    """An index is an int or a label string: the constructor refuses any
    other type with one line naming the monomial, where True, 1.0 and
    Fraction(1) named form 1 (so (0, 1, True) straightened to 0, a
    square)."""
    for make in (lambda: Poly({(idxs, 0): 1}), lambda: Poly({(idxs, 1): Fraction(1, 2)}),
                 lambda: Poly({((), 0): 1, (idxs, 2): -3})):
        with pytest.raises(InputError) as info:
            make()
        assert str(info.value) == (f"monomial {idxs!r}: {bad!r} is not an index "
                                   "(an int) or a label (a str)")
    assert Poly({((1, 0), 0): 1}).terms == {((0, 1), 0): 1}
    assert Poly({(("b", "a"), 0): 2}).terms == {(("a", "b"), 0): 2}


@pytest.mark.parametrize("idxs", [(0, "a"), ("a", 0), (0, None), (1, "b", 0)],
                         ids=["index-label", "label-index", "none", "three"])
def test_monomials_that_mix_indices_and_labels_are_refused(idxs):
    """Indices that do not sort together are refused with one line, by
    `monomial` and by the constructor, where the sort raised a bare
    `TypeError`; all indices or all labels still sort."""
    for make in (lambda: Poly.monomial(idxs), lambda: Poly({(idxs, 0): 1})):
        with pytest.raises(InputError) as info:
            make()
        assert str(info.value) == (f"monomial {idxs!r}: name its forms all "
                                   "by index or all by label")
    assert Poly.monomial(("b", "a")).terms == {(("a", "b"), 0): 1}
    assert Poly({((1, 0), 0): 1}) == Poly.monomial((0, 1))


def test_products_that_mix_indices_and_labels_are_refused():
    """A product of a label-keyed and an index-keyed monomial is refused
    with the same line, naming the two monomials joined, where the sort in
    the product raised a bare `TypeError`; so is straightening it."""
    message = "monomial ('a', 0): name its forms all by index or all by label"
    with pytest.raises(InputError) as info:
        Poly.monomial(("a",)) * Poly.generator(0)
    assert str(info.value) == message
    alg = CordovilAlgebra(braid(3))
    with pytest.raises(InputError) as info:
        alg.straighten(Poly.monomial(("12",)) * Poly.generator(1))
    assert str(info.value) == ("monomial ('12', 1): name its forms all by "
                               "index or all by label")
    assert Poly.monomial(("b",)) * Poly.monomial(("a",)) == Poly.monomial(("a", "b"))


def test_arithmetic():
    e0, e1 = Poly.generator(0), Poly.generator(1)
    p = (e0 + 1) * (e1 - 1)
    assert p == Poly({((0, 1), 0): 1, ((0,), 0): -1, ((1,), 0): 1, ((), 0): -1})
    assert p - p == Poly.zero()
    assert 2 * e0 == e0 + e0


def test_substitute_and_divide_u():
    e = Poly.generator(0)
    rel = e * (e - Poly.u())
    assert rel.substitute_u(0) == e * e
    assert rel.substitute_u(1) == e * e - e
    assert squarefree_reduce_oracle(rel.substitute_u(1)).is_zero
    assert rel.substitute_u(2) == rel.substitute_u(Fraction(2)) == e * e - 2 * e
    div = (Poly.u() * e - Poly.u(2)).divide_u()
    assert div == e - Poly.u()
    with pytest.raises(ConsistencyError):
        (e + Poly.u()).divide_u()


def test_kill_squares_and_reduce():
    e = Poly.generator(0)
    sq = e * e + e
    assert kill_squares_oracle(sq) == e
    assert squarefree_reduce_oracle(sq) == 2 * e
    assert squarefree_reduce_oracle(e * e * e - e).is_zero
    assert kill_squares_oracle(e * e - e * e).is_zero


def test_top_e_part():
    e0, e1 = Poly.generator(0), Poly.generator(1)
    p = e0 * e1 - e0 + 3
    assert p.top_e_part() == e0 * e1
    with pytest.raises(InputError):
        (e0 + Poly.u()).top_e_part()


def test_homogeneity_in_the_degree2_grading():
    e = Poly.generator(0)
    assert (e * e - Poly.u() * e).is_homogeneous
    assert not (e * e - e).is_homogeneous


def test_to_str_canonical():
    e0, e1, e2 = (Poly.generator(i) for i in range(3))
    labels = ("12", "13", "23")
    p = e0 * e1 - e0 * e2 + e1 * e2 - Poly.u() * e1
    assert p.to_str(labels) == "e12*e13 - e12*e23 + e13*e23 - u*e13"
    assert (e0 * e0 - Poly.u() * e0).to_str(labels) == "e12^2 - u*e12"
    assert Poly.zero().to_str(labels) == "0"
    assert (Poly.constant(Fraction(-1, 2)) + e0).to_str(labels) == "e12 - 1/2"


def test_format_poincare():
    assert format_poincare([1, 6, 11, 6]) == "1 + 6t^2 + 11t^4 + 6t^6"
    assert format_poincare([1, 0, 2]) == "1 + 2t^4"
    assert format_poincare([]) == "0"


_COEFFS = (1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7))


def _random_poly(rng, n=4, u_free=False):
    """Up to six seeded terms; index tuples may repeat a generator."""
    terms = {}
    for _ in range(rng.randint(0, 6)):
        emon = tuple(sorted(rng.choices(range(n), k=rng.randint(0, 3))))
        terms[(emon, 0 if u_free else rng.randint(0, 2))] = rng.choice(_COEFFS)
    return Poly(terms)


def _naive(pairs) -> Poly:
    """The checking constructor applied to summed (key, coefficient) pairs."""
    out: dict = {}
    for (emon, uexp), c in pairs:
        key = (tuple(sorted(emon)), uexp)
        out[key] = out.get(key, 0) + c
    return Poly(out)


def _assert_canonical(p: Poly, want: Poly) -> None:
    assert p.terms == want.terms
    for (emon, uexp), c in p.terms.items():
        assert type(emon) is tuple and list(emon) == sorted(emon)
        assert type(uexp) is int
        assert type(c) is Fraction and c != 0


def test_ring_operations_keep_the_canonical_form():
    """Sums, differences, negation, products by polynomials and scalars,
    `monomial` and `top_e_part` build through the trusted constructor; each
    equals the checking constructor applied to the naive result, cancelled
    sums included."""
    rng = random.Random(20261019)
    for _ in range(300):
        p, q = _random_poly(rng), _random_poly(rng)
        cancel = q - Poly._of(dict(list(p.terms.items())[:2]))  # p + cancel drops terms
        for a, b in ((p, q), (p, p), (p, -p), (p, cancel)):
            _assert_canonical(a + b, _naive([*a.terms.items(), *b.terms.items()]))
            _assert_canonical(a - b, _naive([*a.terms.items(),
                                             *((k, -c) for k, c in b.terms.items())]))
            _assert_canonical(a * b, _naive(
                ((m1 + m2, u1 + u2), c1 * c2)
                for (m1, u1), c1 in a.terms.items() for (m2, u2), c2 in b.terms.items()))
        _assert_canonical(-p, _naive((k, -c) for k, c in p.terms.items()))
        s = rng.choice(_COEFFS + (0,))
        scaled = _naive((k, c * s) for k, c in p.terms.items())
        _assert_canonical(p * s, scaled)
        _assert_canonical(s * p, scaled)
        _assert_canonical(p + s, _naive([*p.terms.items(), (((), 0), s)]))
        _assert_canonical(s - p, _naive([(((), 0), s),
                                         *((k, -c) for k, c in p.terms.items())]))
        free = _random_poly(rng, u_free=True)
        top = max((len(m) for m, _ in free.terms), default=0)
        _assert_canonical(free.top_e_part(), _naive(
            (k, c) for k, c in free.terms.items() if len(k[0]) == top))
        idxs = rng.choices(range(4), k=rng.randint(0, 4))
        uexp, c = rng.randint(0, 2), rng.choice(_COEFFS + (0,))
        _assert_canonical(Poly.monomial(idxs, uexp, c), _naive([((idxs, uexp), c)]))
    _assert_canonical(Poly.monomial((2, 0, 2)), Poly({((0, 2, 2), 0): 1}))
    _assert_canonical(Poly.monomial((1, 0), 1, 0), Poly.zero())
    with pytest.raises(InputError):
        Poly.monomial((0,), coeff=0.5)


# coefficients whose denominators make the running denominator of a product
# grow by lcm (2, 3, 4, 6) and rescale the sums before them
_PRODUCT_COEFFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3),
                   Fraction(-1, 3), Fraction(3, 4), Fraction(-1, 4), Fraction(5, 6),
                   Fraction(-1, 6))


def _product_factor(rng, names) -> Poly:
    """Up to four seeded terms over `names`, repeats and u-powers allowed."""
    terms = {}
    for _ in range(rng.randint(0, 4)):
        emon = tuple(sorted(rng.choices(names, k=rng.randint(0, 2))))
        terms[(emon, rng.randint(0, 2))] = rng.choice(_PRODUCT_COEFFS)
    return Poly(terms)


def _assert_same_terms(got: Poly, want: Poly) -> None:
    """Equal term for term: the same keys in the same order, equal
    `Fraction` values."""
    assert list(got.terms) == list(want.terms)
    for key, c in got.terms.items():
        assert type(c) is Fraction and c == want.terms[key]


def test_products_match_the_fraction_oracle():
    """`Poly.__mul__` sums integer numerators over one running denominator;
    it equals `poly_product_oracle` term for term on seeded products over
    indices and over labels, with u-powers, repeated generators, the
    denominators 2, 3, 4 and 6, and sums that cancel."""
    rng = random.Random(20261021)
    seen = {"u": 0, "repeat": 0, "grown": 0, "cancelled": 0}
    for names in (range(3), ("a", "b", "c")):
        for _ in range(400):
            a, b = _product_factor(rng, names), _product_factor(rng, names)
            for p, q in ((a, b), (a + b, a - b)):  # the second cancels a*b - b*a
                got, want = p * q, poly_product_oracle(p, q)
                _assert_same_terms(got, want)
                joined = {(tuple(sorted(m1 + m2)), u1 + u2)
                          for m1, u1 in p.terms for m2, u2 in q.terms}
                dens = {c.denominator for c in p.terms.values()} - {1}
                seen["u"] += any(u for _, u in want.terms)
                seen["repeat"] += any(len(set(m)) < len(m) for m, _ in want.terms)
                seen["grown"] += len(dens) > 1
                seen["cancelled"] += len(joined) > len(want.terms)
    assert min(seen.values()) >= 10, seen
    e0, e1, u = Poly.generator(0), Poly.generator(1), Poly.u()
    half, third = Fraction(1, 2), Fraction(1, 3)
    for p, q in ((e0 + e1, e0 - e1),                  # e0*e1 cancels
                 (half * e0 + third * e1, third * e0 - half * e1),
                 (half * e0, third * e1 + Fraction(1, 4) * u + Fraction(1, 6) * e0),
                 (e0 * (e0 - u), e0 - u),              # u-powers and e0^3
                 (Poly.monomial(("a",)), Poly.monomial(("a", "b"), coeff=-half))):
        _assert_same_terms(p * q, poly_product_oracle(p, q))
    assert (e0 + e1) * (e0 - e1) == Poly({((0, 0), 0): 1, ((1, 1), 0): -1})
    assert ((half * e0) * (2 * e0)).terms == {((0, 0), 0): 1}
    assert (Poly.zero() * e0).is_zero and (e0 * Poly.zero()).is_zero
