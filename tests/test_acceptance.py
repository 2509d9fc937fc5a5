"""One test per acceptance criterion; each prints its PASS/FAIL line.  Each
criterion's FAIL branches, fed wrong answers, name what failed."""

import random
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

from arrgr import acceptance
from arrgr.arrangement import delete
from arrgr.circuits import AxiomReport, nbc_counts
from arrgr.cordovil import CordovilAlgebra, LeadingFormReport
from arrgr.corpus import corpus
from arrgr.polyring import Poly
from arrgr.rees import ReesHilbertReport
from arrgr.symmetry import SignedPermutation, coordinate_action
from arrgr.vgring import RelationCheck
from test_cordovil import FractionStraightening


@pytest.mark.parametrize("criterion", acceptance.ALL_CRITERIA,
                         ids=[f"criterion_{i}" for i in
                              range(1, len(acceptance.ALL_CRITERIA) + 1)])
def test_criterion(criterion):
    result = criterion()
    print(result.line())
    assert result.ok, result.detail


def test_paper_suite_deterministic(capsys):
    from arrgr.cli import main

    assert main(["paper-suite"]) == 0
    first = capsys.readouterr().out
    assert main(["paper-suite"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.count("PASS") == len(acceptance.ALL_CRITERIA)


def identity_classes(A):
    """The coordinate action with every class represented by the identity:
    wrong characters."""
    group = coordinate_action(A)
    return replace(group, representatives=(SignedPermutation.identity(A.n),)
                   * group.n_classes)


def extra_top_grade(A, ordering=None):
    """NBC counts with a spurious top grade."""
    return nbc_counts(A, ordering) + (1,)


def ordering_dependent_counts(A, ordering=None):
    """NBC counts with a spurious top grade under any explicit ordering."""
    return nbc_counts(A) if ordering is None else extra_top_grade(A, ordering)


# per criterion: a name `arrgr.acceptance` reads, a stand-in that answers
# wrongly, and the start of a failure the detail must name
WRONG_ANSWERS = [
    (1, "coordinate_action", identity_classes, "braid4: "),
    (2, "coordinate_action", identity_classes, "semiorder3: "),
    (3, "nbc_counts", extra_top_grade, "single: gr="),
    (3, "exact_filtration_oracle", lambda A: ((), []), "single: dims="),
    (4, "presentation_dimension", lambda A, families=(1, 2): 0, "single: "),
    (5, "cone", lambda A: A, "single: cone"),
    (5, "restrict", delete, "braid3/"),
    (6, "verify_relations", lambda A: RelationCheck(False, 0, len(A.chambers())),
     "single: u=1"),
    (6, "specialize", lambda poly, value: Poly.zero(), "single: u=0 family-1"),
    (6, "specialize", lambda poly, value: Poly.zero(), "parallel: u=0 family-2"),
    (6, "specialize", lambda poly, value: Poly.zero(), "braid3: u=0 family-3"),
    (6, "minimal_empty_flats_oracle", lambda A: (), "parallel: empty-flat"),
    (6, "rees_hilbert_check", lambda A: ReesHilbertReport((), False), "single: filtration"),
    (7, "leading_form_check", lambda A: LeadingFormReport(False, (), ("x",)), "single: "),
    (8, "validate_circuit_axioms", lambda C: AxiomReport(False, ()), "braid2: "),
    (8, "validate_circuit_axioms", lambda C: AxiomReport(False, ()), "singleton circuit"),
    (9, "nbc_counts", ordering_dependent_counts, "single: NBC counts depend"),
    (9, "nbc_counts", extra_top_grade, "single: oracle corank"),
    (9, "mn_character", lambda lam, mu: 0, "MN mismatch"),
]


@pytest.mark.parametrize("number, name, wrong, failure", WRONG_ANSWERS,
                         ids=[f"criterion_{k}-{name}" for k, name, _, _ in WRONG_ANSWERS])
def test_criterion_reports_a_wrong_answer(monkeypatch, number, name, wrong, failure):
    """Each criterion fails, naming what failed, when a library call it
    reads gives a wrong answer."""
    monkeypatch.setattr(acceptance, name, wrong)
    result = acceptance.ALL_CRITERIA[number - 1]()
    assert result.ok is False
    assert result.line().startswith(f"FAIL criterion {number}: ")
    assert failure in result.detail


# per criterion: a `CordovilAlgebra` method, a stand-in built from the real
# one that answers wrongly, and the failure the detail must name
WRONG_ALGEBRA = [
    (9, "multiply", lambda real: lambda self, a, b: a, "multiplication not commutative"),
    (9, "multiply", lambda real: lambda self, a, b: 2 * (a + b),
     "multiplication not associative"),
    (9, "straighten", lambda real: lambda self, poly: 2 * real(self, poly),
     "single: not idempotent on ()"),
    (9, "straighten", lambda real: lambda self, poly: self.element({}),
     "single: straighten(()) differs by a non-relation"),
    (6, "straighten", lambda real: lambda self, poly: self.one(),
     "u=0 support monomial not zero in the graded algebra"),
]


@pytest.mark.parametrize("number, name, wrong, failure", WRONG_ALGEBRA,
                         ids=["not-commutative", "not-associative", "not-idempotent",
                              "non-relation", "u0-support-not-zero"])
def test_criterion_reports_a_wrong_algebra(monkeypatch, number, name, wrong, failure):
    """A product that is not commutative (the first factor) or not
    associative (twice the sum), a straightening that is not idempotent
    (twice the normal form) or differs by a non-relation (zero), and one
    that keeps a dead family-2 monomial (one): each fails its criterion,
    naming what failed."""
    monkeypatch.setattr(CordovilAlgebra, name, wrong(getattr(CordovilAlgebra, name)))
    result = acceptance.ALL_CRITERIA[number - 1]()
    assert result.ok is False
    assert failure in result.detail


def test_criterion_9_draws_the_coefficients_of_fraction_randint(monkeypatch):
    """Criterion 9(d) draws each coefficient as `choice` of seven shared
    Fractions; the old `Fraction(rng.randint(-3, 3))` is the oracle.  From
    seed 987654, past part (a)'s five shuffles per corpus member, every
    product the criterion asks for, in order, has the oracle's factors (the
    drawn a, b, c, and the products they feed) and equals the Fraction
    straightening oracle's product: (a, b), (b, a), (ab, c), (b, c) and
    (a, bc) per draw, on every corpus member."""
    calls = []
    multiply = CordovilAlgebra.multiply

    def spy(self, a, b):
        out = multiply(self, a, b)
        calls.append((a.coords, b.coords, out.coords))
        return out

    monkeypatch.setattr(CordovilAlgebra, "multiply", spy)
    assert acceptance.criterion_9().ok
    monkeypatch.undo()

    rng = random.Random(987654)
    for _, A in corpus():
        for _ in range(5):
            rng.shuffle(list(range(A.n)))
    want = []
    for _, A in corpus():
        alg = CordovilAlgebra(A)
        oracle = FractionStraightening(alg)
        basis = list(alg.nbc)

        def draw():
            coords = {s: Fraction(rng.randint(-3, 3))
                      for s in rng.sample(basis, k=min(2, len(basis)))}
            return {s: v for s, v in coords.items() if v}

        def product(x, y):
            coords = oracle.multiply(SimpleNamespace(coords=x), SimpleNamespace(coords=y))
            want.append((x, y, coords))
            return coords

        for _ in range(200):
            a, b, c = draw(), draw(), draw()
            ab = product(a, b)
            product(b, a)
            product(ab, c)
            product(a, product(b, c))
    assert len(calls) == len(want) == 5 * 200 * len(corpus())
    assert calls == want
