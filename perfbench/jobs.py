"""What one job of each workload calls, and how its outputs are checked.

A job is one arrangement (or one `arrgr paper-suite` run) in a fresh
interpreter, so that no cache of any kind, in the Arrangement or in a
module, survives from one job to the next: users pay cold caches on every
`arrgr` invocation.  It makes the
library calls behind the CLI commands named in its function's docstring,
each through `Ledger.call`, which records a failing call by exception
class and first message line and lets the job go on.  Every call is
attempted even after an earlier one failed (a call whose argument could
not be computed is counted as a failed, skipped call), so the number of
attempted calls is the same on every commit.

A job is verified when none of its calls failed and every output check
passed.  The checks compare independent code paths; the few computations
they need (ranks, realizability by chambers) are written here, not taken
from the library.  Calls go through the `arrgr` namespaces at call time so
that the tracer in spans.py sees them.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, factorial
from typing import NamedTuple

import arrgr

import child
import inputs

FAILED = object()
PRODUCT_TRIPLES = 40

# README tables: braid 4 graded pieces, semiorder 3 chambers and pieces.
BRAID4_GRADES = [{(4,): 1},
                 {(3, 1): 1, (2, 1, 1): 1},
                 {(3, 1): 1, (2, 1, 1): 1, (2, 2): 2, (1, 1, 1, 1): 1},
                 {(3, 1): 1, (2, 1, 1): 1}]
SEMIORDER3_TOTAL = {(3,): 5, (1, 1, 1): 2, (2, 1): 6}
SEMIORDER3_GRADES = [{(3,): 1},
                     {(3,): 1, (1, 1, 1): 1, (2, 1): 2},
                     {(3,): 3, (1, 1, 1): 1, (2, 1): 4}]


class Ledger:
    """Attempted and failed calls, failure reasons and failed checks of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()  # (reason, call name) -> count
        self.problems: list = []
        self.calls_end = 0.0                # perf_counter when the last call ended

    def call(self, name: str, fn, *args):
        self.attempted += 1
        try:
            if any(a is FAILED for a in args):
                self.failed += 1
                self.failures["skipped: an argument failed", name] += 1
                return FAILED
            return fn(*args)
        except Exception as exc:  # a failing call is recorded; the job goes on
            self.failed += 1
            first = (str(exc).splitlines() or [""])[0]
            self.failures[f"{type(exc).__name__}: {first}"[:120], name] += 1
            return FAILED
        finally:
            self.calls_end = time.perf_counter()

    def to_json(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "failures": [[reason, name, n] for (reason, name), n in self.failures.items()],
                "problems": self.problems}

    def merge(self, data: dict) -> None:
        """Add the counts of a job child's ledger (`to_json`)."""
        self.attempted += data["attempted"]
        self.failed += data["failed"]
        for reason, name, n in data["failures"]:
            self.failures[reason, name] += n
        self.problems += data["problems"]


class Job(NamedTuple):
    verified: bool
    seconds: float          # the job's timed section
    paced_s: float          # the same at the nominal pace (pace.py)
    counters: dict | None   # trace counters of a traced job


def fresh_job(led: Ledger, workload: str, seed: int, index: int, traced: bool) -> Job:
    """Job `index` of a pass of `workload`, run by `child.py job` in a fresh
    interpreter.  Its time covers building the Arrangement and the calls:
    not the interpreter's start, nor the output checks."""
    proc = subprocess.run(child.command("job", workload, seed, index, int(traced)),
                          cwd=child.ROOT, env=child.env(), stdout=subprocess.PIPE,
                          text=True, timeout=170)
    if proc.returncode != 0:
        sys.exit(f"perfbench: job child failed ({workload} job {index}): {proc.stdout}")
    reply = json.loads(proc.stdout.splitlines()[-1])
    led.merge(reply["ledger"])
    return Job(reply["verified"], reply["seconds"], reply["paced_s"], reply["trace"])


class Checks:
    def __init__(self, led: Ledger, job: str):
        self.led, self.job, self.ok = led, job, True

    def expect(self, cond: bool, what: str) -> None:
        if not cond:
            self.ok = False
            self.led.problems.append(f"{self.job}: {what}")


def ready(*values) -> bool:
    return all(v is not FAILED for v in values)


def trim(counts) -> tuple:
    counts = list(counts)
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def expected_counts(spec: inputs.Spec):
    """NBC counts known in closed form, or None."""
    if spec.family == "braid":       # prod_{k < n} (1 + k t)
        coeffs = [1]
        for k in range(1, spec.size):
            coeffs = [a + k * b for a, b in zip(coeffs + [0], [0] + coeffs)]
        return tuple(coeffs)
    if spec.family == "boolean":
        return tuple(comb(spec.size, k) for k in range(spec.size + 1))
    if spec.family == "semiorder" and spec.size == 3:   # README: 1 + 6t^2 + 12t^4
        return (1, 6, 12)
    return None


def rank(vectors) -> int:
    """Rank of sparse rational vectors {orderable key: value} by plain
    elimination."""
    pivots: dict = {}
    for vec in vectors:
        v = dict(vec)
        while v:
            k = min(v)
            row = pivots.get(k)
            if row is None:
                lead = v[k]
                pivots[k] = {c: x / lead for c, x in v.items()}
                break
            f = v[k]
            for c, x in row.items():
                y = v.get(c, 0) - f * x
                if y:
                    v[c] = y
                else:
                    v.pop(c, None)
    return len(pivots)


def straighten_all(alg, n: int) -> dict:
    return {s: alg.straighten(arrgr.Poly.monomial(s))
            for k in range(n + 1) for s in combinations(range(n), k)}


def check_straightening(chk: Checks, straight: dict, counts) -> None:
    """Straightened monomials stay in their grade and span NBC_k there."""
    by_grade: dict = {}
    for s, el in straight.items():
        chk.expect(all(len(b) == len(s) for b in el.coords),
                   f"straightening of {s} leaves its grade")
        by_grade.setdefault(len(s), []).append(
            {tuple(sorted(b)): c for b, c in el.coords.items()})
    spans = tuple(rank(by_grade.get(k, [])) for k in range(len(by_grade)))
    chk.expect(trim(spans) == trim(counts), "straightened span differs from NBC counts")


def check_minimal_infeasible(chk: Checks, mis, chambers) -> None:
    """An open signed set is feasible iff some chamber realizes it, so each
    minimal infeasible set is realized by no chamber and each of its
    one-smaller subsets by some chamber."""
    topes = []
    for c in chambers:
        plus = sum(1 << i for i, s in enumerate(c) if s == "+")
        topes.append((plus, ((1 << len(c)) - 1) ^ plus))

    def realized(plus, minus):
        return any(plus & p == plus and minus & m == minus for p, m in topes)

    for X in mis:
        plus = sum(1 << i for i in X.plus)
        minus = sum(1 << i for i in X.minus)
        chk.expect(not realized(plus, minus), f"{X} is realized by a chamber")
        chk.expect(all(realized(plus & ~(1 << i), minus & ~(1 << i)) for i in X.support),
                   f"{X} is not minimal")


# -- affine-census and central-scale ---------------------------------------------


def census_job(spec: inputs.Spec, led: Ledger, central_extras: bool) -> bool:
    """The calls behind `circuits`, `nbc`, `vg` and `rees`; central-scale adds
    `presentation_dimension(families=(1, 3))` and straightening of every
    squarefree monomial."""
    A = inputs.build(spec)
    failed_before = led.failed
    call = led.call
    chambers = call("chambers", A.chambers)
    mis = call("minimal_infeasible_sign_sets", A.minimal_infeasible_sign_sets)
    circuits = call("circuits_from_arrangement", arrgr.circuits_from_arrangement, A)
    axioms = call("validate_circuit_axioms", arrgr.validate_circuit_axioms, circuits)
    call("nbc_sets", arrgr.nbc_sets, A)
    counts = call("nbc_counts", arrgr.nbc_counts, A)
    profile = call("filtration_profile", arrgr.filtration_profile, A)
    relations = call("verify_relations", arrgr.verify_relations, A)
    vg = call("vg_relation_families", arrgr.vg_relation_families, A)
    pdim = call("presentation_dimension", arrgr.presentation_dimension, A)
    rees = call("rees_relation_families", arrgr.rees_relation_families, A)
    hilbert = call("rees_hilbert_check", arrgr.rees_hilbert_check, A)
    at_one = call("specialize", lambda rels: {(r.family, r.source): arrgr.specialize(r.poly, 1)
                                              for r in rels}, rees)
    if central_extras:
        pdim13 = call("presentation_dimension", arrgr.presentation_dimension, A, (1, 3))
        alg = call("CordovilAlgebra", arrgr.CordovilAlgebra, A)
        straight = call("straighten", straighten_all, alg, A.n)

    chk = Checks(led, spec.name)
    if ready(chambers):
        total = len(chambers)
        if ready(counts):
            chk.expect(sum(counts) == total, "NBC counts do not sum to the chamber count")
        if ready(profile):
            chk.expect(profile.dims[-1] == total, "top filtration dimension != chambers")
        if ready(pdim):
            chk.expect(pdim == total, "presentation dimension != chambers")
        if central_extras and ready(pdim13):
            chk.expect(pdim13 == total, "families (1,3) dimension != chambers")
        if ready(mis):
            check_minimal_infeasible(chk, mis, chambers)
    if ready(profile, counts):
        chk.expect(trim(profile.gr_dims) == trim(counts), "gr dims != NBC counts")
    if ready(counts) and expected_counts(spec) is not None:
        chk.expect(trim(counts) == expected_counts(spec), f"NBC counts {counts} are wrong")
    if ready(relations):
        chk.expect(relations.ok, "relations do not vanish on chambers or do not span")
    if ready(hilbert):
        chk.expect(hilbert.ok, "filtration dimensions != NBC partial sums")
    if ready(axioms):
        chk.expect(axioms.ok, "circuit axioms reported violated")
    if ready(at_one, vg):
        chk.expect(at_one == {(r.family, r.source): r.poly for r in vg},
                   "u = 1 does not give the chamber-function relations")
    if central_extras and ready(straight, counts):
        check_straightening(chk, straight, counts)
    return chk.ok and led.failed == failed_before


# -- symmetric-characters ----------------------------------------------------------


def _random_element(basis: list, rng: random.Random) -> dict:
    picks = rng.sample(basis, min(2, len(basis)))
    return {b: Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for b in picks}


def _as_poly(coords: dict):
    out = arrgr.Poly.zero()
    for b, c in coords.items():
        out = out + arrgr.Poly.monomial(tuple(sorted(b)), coeff=c)
    return out


def product_triple(alg, coords: list) -> tuple:
    """Products of three elements both ways round, and a*b through the
    polynomial product and straightening."""
    a, b, c = (alg.element(x) for x in coords)
    ab = a * b
    return (ab, b * a, ab * c, a * (b * c),
            alg.straighten(_as_poly(coords[0]) * _as_poly(coords[1])))


def characters_job(spec: inputs.Spec, led: Ledger, seed: int) -> bool:
    """`characters --group Sn-coordinates` plus `cordovil`: the graded
    character and its decomposition, straightening, seeded random products
    and the leading-form check."""
    A = inputs.build(spec)
    failed_before = led.failed
    call = led.call
    group = call("coordinate_action", arrgr.coordinate_action, A)
    gc = call("graded_character", arrgr.graded_character, A, group)
    dec = call("decompositions", lambda g: g.decompositions(), gc)
    counts = call("nbc_counts", arrgr.nbc_counts, A)
    alg = call("CordovilAlgebra", arrgr.CordovilAlgebra, A)
    straight = call("straighten", straighten_all, alg, A.n)
    rng = random.Random(f"products:{seed}:{spec.name}")
    basis = sorted(alg.nbc, key=lambda b: (len(b), sorted(b))) if ready(alg) else []
    triples = [call("multiply", product_triple, alg,
                    [_random_element(basis, rng) for _ in range(3)])
               for _ in range(PRODUCT_TRIPLES)]
    lead = call("leading_form_check", arrgr.leading_form_check, A)

    chk = Checks(led, spec.name)
    n = spec.dim
    if ready(gc, counts):
        types = list(gc.group.cycle_types)
        ident = types.index((1,) * n)
        grades, chamber = gc.grade_values, gc.chamber_values
        chk.expect(all(sum(g[c] for g in grades) == chamber[c] for c in range(len(types))),
                   "grade characters do not sum to the chamber character")
        chk.expect(trim(g[ident] for g in grades) == trim(counts),
                   "grade dimensions != NBC counts")
        chk.expect(chamber[ident] == sum(counts), "chamber character degree != chambers")
        if spec.family == "braid":
            chk.expect(chamber == tuple(factorial(n) if mu == types[ident] else 0
                                        for mu in types),
                       "braid chamber character is not regular")
        if spec.family == "boolean":
            chk.expect(chamber == tuple(2 ** len(mu) for mu in types),
                       "boolean chamber character != 2^cycles")
    if ready(dec):
        per_grade, total = dec
        nonzero = [{k: v for k, v in d.items() if v} for d in per_grade]
        if spec.name == "braid4":
            chk.expect(nonzero == BRAID4_GRADES, "braid 4 table differs from the README")
        if spec.name == "semiorder3":
            chk.expect(nonzero == SEMIORDER3_GRADES
                       and {k: v for k, v in total.items() if v} == SEMIORDER3_TOTAL,
                       "semiorder 3 tables differ from the README")
    if ready(straight, counts):
        check_straightening(chk, straight, counts)
    for t in triples:
        if ready(t):
            ab, ba, ab_c, a_bc, via_poly = t
            chk.expect(ab == ba, "multiplication is not commutative")
            chk.expect(ab_c == a_bc, "multiplication is not associative")
            chk.expect(via_poly == ab, "product != straightened polynomial product")
    if ready(lead):
        chk.expect(lead.ok, "leading forms do not match circuit boundaries")
    return chk.ok and led.failed == failed_before


# -- paper-suite --------------------------------------------------------------------


CRITERIA = 9


def suite_job(led: Ledger, traced: bool) -> Job:
    """One `arrgr paper-suite` in a fresh interpreter (`child.py suite`),
    timed from the start of the command to its return.  A missing or
    failing criterion is a failed call and a failed check."""
    start = time.perf_counter()
    proc = subprocess.run(child.command("suite", int(traced)), cwd=child.ROOT,
                          env=child.env(), stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=170)
    seconds = time.perf_counter() - start
    try:
        reply = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):   # the interpreter died: wall time from spawning
        reply = {"returncode": proc.returncode, "output": proc.stdout,
                 "seconds": seconds, "paced_s": seconds, "trace": None}
    code, output = reply["returncode"], reply["output"]
    passed = sum(1 for line in output.splitlines() if line.startswith("PASS criterion"))
    led.attempted += CRITERIA
    led.failed += CRITERIA - passed
    if CRITERIA - passed:
        led.failures[f"paper-suite exit {code}", "criteria"] += CRITERIA - passed
    chk = Checks(led, "paper-suite")
    chk.expect(code == 0 and passed == CRITERIA,
               f"exit code {code}, {passed} of {CRITERIA} criteria passed")
    return Job(chk.ok, reply["seconds"], reply["paced_s"], reply["trace"])
