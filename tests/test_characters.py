import random
from fractions import Fraction

import pytest

from arrgr.acceptance import sn_character_oracle, _permutation_character
from arrgr.characters import (class_size, cycle_type, decompose_character,
                              mn_character, partition_str, partitions,
                              sn_character_table)
from arrgr.errors import InputError, NotACharacterError


def test_partitions_order():
    assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert partitions(1) == ((1,),)


def test_cycle_type():
    assert cycle_type((1, 0, 2)) == (2, 1)
    assert cycle_type((1, 2, 0)) == (3,)
    assert cycle_type((0, 1, 2, 3)) == (1, 1, 1, 1)


def test_class_sizes_sum_to_group_order():
    from math import factorial
    for n in range(1, 7):
        assert sum(class_size(mu) for mu in partitions(n)) == factorial(n)
    assert class_size((2, 1, 1)) == 6
    assert class_size((2, 2)) == 3


def test_trivial_and_sign_characters():
    for n in range(1, 6):
        for mu in partitions(n):
            assert mn_character((n,), mu) == 1
            sign = (-1) ** (n - len(mu))
            assert mn_character((1,) * n, mu) == sign


def test_standard_character_of_s3():
    values = {mu: mn_character((2, 1), mu) for mu in partitions(3)}
    assert values == {(1, 1, 1): 2, (2, 1): 0, (3,): -1}


def test_mn_against_permutation_module_oracle():
    for n in range(1, 6):
        oracle = sn_character_oracle(n)
        for lam in partitions(n):
            for mu in partitions(n):
                assert mn_character(lam, mu) == oracle[lam][mu], (lam, mu)


def test_permutation_character_basics():
    # eta_(n) is the trivial character; eta_(1^n)(identity) = n!
    from math import factorial
    for n in range(1, 6):
        for mu in partitions(n):
            assert _permutation_character((n,), mu) == 1
        assert _permutation_character((1,) * n, (1,) * n) == factorial(n)


def test_first_column_of_table_gives_dimensions():
    # dimensions at the identity follow the hook length formula values for S4
    table = sn_character_table(4)
    dims = {lam: table[lam][(1, 1, 1, 1)] for lam in partitions(4)}
    assert dims == {(4,): 1, (3, 1): 3, (2, 2): 2, (2, 1, 1): 3,
                    (1, 1, 1, 1): 1}
    from math import factorial
    assert sum(d * d for d in dims.values()) == factorial(4)


def test_character_table_row_orthogonality():
    from math import factorial
    for n in range(1, 7):
        table = sn_character_table(n)
        parts = partitions(n)
        for lam1 in parts:
            for lam2 in parts:
                inner = sum(class_size(mu) * table[lam1][mu] * table[lam2][mu]
                            for mu in parts)
                assert inner == (factorial(n) if lam1 == lam2 else 0), \
                    (lam1, lam2)


def test_character_table_column_orthogonality():
    for n in range(1, 7):
        table = sn_character_table(n)
        parts = partitions(n)
        for mu1 in parts:
            for mu2 in parts:
                inner = sum(table[lam][mu1] * table[lam][mu2] for lam in parts)
                from math import factorial
                want = factorial(n) // class_size(mu1) if mu1 == mu2 else 0
                assert inner == want, (mu1, mu2)


def test_mn_size_mismatch():
    with pytest.raises(InputError):
        mn_character((2, 1), (2, 2))


@pytest.mark.parametrize("lam, mu", [((2, 0), (1, 1)), ((2,), (3, -1))],
                         ids=["zero-part", "negative-part"])
def test_mn_parts_must_be_positive(lam, mu):
    with pytest.raises(InputError) as exc:
        mn_character(lam, mu)
    assert str(exc.value) == "partition parts must be positive"


def test_decompose_regular_s3():
    values = {(1, 1, 1): Fraction(6), (2, 1): Fraction(0), (3,): Fraction(0)}
    assert decompose_character(values, 3) == {(3,): 1, (2, 1): 2, (1, 1, 1): 1}


def test_decompose_rejects_non_characters():
    with pytest.raises(NotACharacterError):
        decompose_character({(1, 1): Fraction(1), (2,): Fraction(-1, 2)}, 2)
    with pytest.raises(NotACharacterError):
        # sign-minus-trivial has a negative multiplicity
        decompose_character({(1, 1): Fraction(0), (2,): Fraction(-2)}, 2)
    with pytest.raises(InputError):
        decompose_character({(1, 1): Fraction(1)}, 2)


def inner_product_oracle(values, n):
    """<χ, χ_λ> per λ as one Fraction sum over the classes, term by term:
    the multiplicities before the integrality check."""
    order = sum(class_size(mu) for mu in partitions(n))
    return {lam: sum(class_size(mu) * Fraction(values[mu]) * mn_character(lam, mu)
                     for mu in partitions(n)) / order
            for lam in partitions(n)}


def test_decompose_matches_the_inner_product_oracle():
    """Genuine characters (sums of irreducibles) decompose to the oracle's
    integers; rational class functions that are not characters raise with
    the first failing multiplicity, as the oracle gives it."""
    rng = random.Random(25)
    for n in range(1, 6):
        table = sn_character_table(n)
        for _ in range(20):
            mults = {lam: rng.randint(0, 3) for lam in partitions(n)}
            values = {mu: sum(m * table[lam][mu] for lam, m in mults.items())
                      for mu in partitions(n)}
            assert decompose_character(values, n) == mults
            assert inner_product_oracle(values, n) == mults
            noisy = {mu: Fraction(v, rng.choice((1, 2, 3))) - rng.randint(0, 1)
                     for mu, v in values.items()}
            want = inner_product_oracle(noisy, n)
            bad = [lam for lam, m in want.items() if m.denominator != 1 or m < 0]
            if not bad:
                assert decompose_character(noisy, n) == want
                continue
            with pytest.raises(NotACharacterError) as info:
                decompose_character(noisy, n)
            assert str(info.value) == (f"multiplicity of {partition_str(bad[0])} "
                                       f"is {want[bad[0]]}")


def test_partition_str():
    assert partition_str((2, 1, 1)) == "(2,1,1)"
