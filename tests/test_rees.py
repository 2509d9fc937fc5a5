from fractions import Fraction

import pytest

from arrgr.arrangement import braid, semiorder
from arrgr.circuits import canonical_circuits
from arrgr.cordovil import cordovil_relation_families
from arrgr.corpus import parallel_pair, random_rational_arrangement, single_hyperplane
from arrgr.errors import InputError
from arrgr.polyring import Poly
from arrgr.rees import (rees_hilbert_check, rees_relation_families, specialize)
from arrgr.vgring import Relation, vg_relation_families
from test_vgring import divide_u_oracle


def _shifted_product(plus, minus, shift=1):
    """prod_{i in plus} e_i * prod_{j in minus} (e_j - shift)."""
    out = Poly.one()
    for i in sorted(plus):
        out = out * Poly.generator(i)
    for j in sorted(minus):
        out = out * (Poly.generator(j) - shift)
    return out


def vg_families_oracle(A):
    """The chamber-function families built directly, without u: squares
    e_i^2 - e_i, one product per minimal infeasible signed set, and one
    opposite-product difference per canonical circuit."""
    rels = [Relation(1, i, Poly.monomial((i, i)) - Poly.generator(i))
            for i in range(A.n)]
    rels += [Relation(2, X, _shifted_product(X.plus, X.minus))
             for X in A.minimal_infeasible_sign_sets()]
    rels += [Relation(3, X, _shifted_product(X.plus, X.minus)
                      - _shifted_product(X.minus, X.plus))
             for X in canonical_circuits(A)]
    return tuple(rels)


def test_point_in_a_line_single_family():
    rels = rees_relation_families(single_hyperplane())
    assert [r.family for r in rels] == [1]
    e, u = Poly.generator(0), Poly.u()
    assert rels[0].poly == e * (e - u)


def test_family1_specializations():
    e, u = Poly.generator(0), Poly.u()
    rel = e * (e - u)
    assert specialize(rel, 0) == e * e
    assert specialize(rel, 1) == e * e - e
    with pytest.raises(InputError):
        specialize(rel, 2)


def test_family2_parallel_pair():
    rels = [r for r in rees_relation_families(parallel_pair()) if r.family == 2]
    assert len(rels) == 1
    want = Poly.generator(1) * (Poly.generator(0) - Poly.u())
    assert rels[0].poly == want
    assert specialize(rels[0].poly, 1) == \
        Poly.generator(1) * (Poly.generator(0) - 1)


def test_family3_braid3_expansion():
    rels = [r for r in rees_relation_families(braid(3)) if r.family == 3]
    assert len(rels) == 1
    e12, e13, e23 = (Poly.generator(i) for i in range(3))
    want = e12 * e13 - e12 * e23 + e13 * e23 - Poly.u() * e13
    assert rels[0].poly == want


def test_u0_yields_graded_families(corpus_map):
    for name, A in corpus_map.items():
        cord = {(r.family, r.source): r.poly
                for r in cordovil_relation_families(A)}
        for r in rees_relation_families(A):
            if r.family in (1, 3):
                assert specialize(r.poly, 0) == cord[(r.family, r.source)], \
                    (name, r.family)


def test_u1_yields_vg_families(corpus_map):
    for name, A in corpus_map.items():
        oracle = vg_families_oracle(A)
        rees = rees_relation_families(A)
        assert [(r.family, r.source) for r in rees] == \
            [(r.family, r.source) for r in oracle], name
        for r, want in zip(rees, oracle):
            assert specialize(r.poly, 1) == want.poly, (name, r.family)
        assert vg_relation_families(A) == oracle, name


def test_family3_difference_divisible_by_u(corpus_map):
    """Every term of a circuit's difference of products carries u, and the
    family-(3) relation is that difference divided by u."""
    u = Poly.u()
    for name, A in corpus_map.items():
        rels = {r.source: r.poly for r in rees_relation_families(A) if r.family == 3}
        for X in canonical_circuits(A):
            diff = _shifted_product(X.plus, X.minus, u) - _shifted_product(X.minus, X.plus, u)
            assert all(ue >= 1 for (_, ue) in diff.terms), (name, X)
            assert divide_u_oracle(diff) * u == diff
            assert rels[X] * u == diff, (name, X)


def test_relations_homogeneous(corpus_map):
    for name, A in corpus_map.items():
        for r in rees_relation_families(A):
            assert r.poly.is_homogeneous, (name, r.family)


def test_hilbert_check_tables():
    assert rees_hilbert_check(single_hyperplane()).rows == ((0, 1, 1), (1, 2, 2))
    rows4 = rees_hilbert_check(braid(4)).rows
    assert [d for _, d, _ in rows4][:4] == [1, 7, 18, 24]
    rows_s = rees_hilbert_check(semiorder(3)).rows
    assert [d for _, d, _ in rows_s][:3] == [1, 7, 19]


def test_hilbert_check_ok_everywhere(corpus_map):
    for name, A in corpus_map.items():
        assert rees_hilbert_check(A).ok, name


@pytest.mark.parametrize("u", [0, 1])
def test_substitute_u_reads_int_fraction_and_string_alike(u):
    """An int value is compared directly and any other goes through
    `frac`: the int, Fraction and string spellings of u give the same
    specialized families on braid 4 and random8, with Fraction
    coefficients, and a float or a boolean is refused with `frac`'s
    message."""
    for A in (braid(4), random_rational_arrangement()):
        families = rees_relation_families(A)
        got = [[r.poly.substitute_u(v).terms for r in families]
               for v in (u, Fraction(u), str(u))]
        assert got[0] == got[1] == got[2]
        assert all(type(c) is Fraction for terms in got[0] for c in terms.values())
        for bad in (float(u), bool(u)):
            with pytest.raises(InputError, match="is not exact"):
                families[-1].poly.substitute_u(bad)
