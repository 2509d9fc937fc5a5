"""Translation symmetries, small file-defined groups, empty arrangements."""

from fractions import Fraction

from arrgr.arrangement import Arrangement, braid, save_arrangement, semiorder
from arrgr.circuits import circuits_from_arrangement, nbc_counts
from arrgr.cli import main
from arrgr.cordovil import CordovilAlgebra
from arrgr.corpus import parallel_pair
from arrgr.polyring import Poly
from arrgr.symmetry import (SignedPermutation, fixed_chambers,
                            graded_character, group_from_json)
from arrgr.vgring import filtration_profile, presentation_dimension
from test_symmetry import derive_signed_permutation


def test_pure_translation_is_the_identity_symmetry():
    S = semiorder(2)
    eye = [[1, 0], [0, 1]]
    w = derive_signed_permutation(S, eye, [1, 1])
    assert w == SignedPermutation.identity(2)
    B = braid(3)
    eye3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert derive_signed_permutation(B, eye3, [2, 2, 2]) \
        == SignedPermutation.identity(3)


def test_affine_reflection_of_the_parallel_pair():
    # v -> 1 - v swaps the two hyperplanes, reversing both orientations,
    # and fixes only the middle chamber
    P = parallel_pair()
    w = derive_signed_permutation(P, [[-1]], [1])
    assert w.perm == (1, 0)
    assert w.flips == (-1, -1)
    assert fixed_chambers(P, w) == 1


def test_point_reflection_of_braid3():
    B = braid(3)
    neg = [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]
    w = derive_signed_permutation(B, neg)
    assert w.perm == (0, 1, 2)
    assert w.flips == (-1, -1, -1)
    assert fixed_chambers(B, w) == 0


def test_order_two_group_decomposition_on_parallel_pair():
    P = parallel_pair()
    entries = [{"perm": {"a": "a", "b": "b"}},
               {"perm": {"a": "b", "b": "a"}, "flips": {"a": -1, "b": -1}}]
    G = group_from_json(P, {"group": "S2", "action": entries})
    assert G.cycle_types == ((1, 1), (2,))
    gc = graded_character(P, G)
    per_grade, total = gc.decompositions()
    # two swapped outer chambers plus the fixed middle one
    assert total == {(2,): 2, (1, 1): 1}
    assert per_grade[0] == {(2,): 1, (1, 1): 0}
    assert dict(per_grade[1]) == {(2,): 1, (1, 1): 1}


def test_empty_arrangement():
    E = Arrangement(2, [], [])
    assert E.chambers() == ("",)
    assert nbc_counts(E) == (1,)
    assert filtration_profile(E).dims == (1,)
    assert presentation_dimension(E) == 1


def test_empty_arrangement_through_cli(capsys, tmp_path):
    path = tmp_path / "empty.json"
    save_arrangement(Arrangement(2, [], []), path)
    for cmd in ("chambers", "vg", "nbc", "poincare", "cordovil", "rees",
                "circuits"):
        assert main(["--file", str(path), cmd]) == 0, cmd
        capsys.readouterr()


def test_poly_reflected_scalar_ops():
    e = Poly.generator(0)
    assert 1 - e == Poly.one() - e
    assert 1 + e == e + Poly.one()
    assert (Fraction(1, 2) * e) * 2 == e


def test_reprs_name_the_object():
    """The reprs of the value types: a form's exact coefficients, an
    arrangement's and a circuit system's sizes, and an element or a
    polynomial written as `to_str` writes it."""
    A = braid(3)
    assert repr(A.forms[0]) == \
        "AffineForm((Fraction(1, 1), Fraction(-1, 1), Fraction(0, 1)), 0)"
    assert repr(A) == "Arrangement(dim=3, n=3)"
    assert repr(circuits_from_arrangement(A)) == "CircuitSet(n=3, circuits=2)"
    element = CordovilAlgebra(A).straighten(Poly.monomial((0, 1)))
    assert repr(element) == "AlgebraElement(e12*e23 - e13*e23)"
    assert repr(2 * Poly.generator(0) - Poly.u()) == "Poly(2*e0 - u)"
