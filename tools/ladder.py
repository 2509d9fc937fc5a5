"""Time one layer of arrgr on a workload ladder, for one or more source
trees.

    python3 tools/ladder.py --layer filtration parent=../old/src change=src > ladder.json
    python3 tools/ladder.py --layer chambers --rungs braid4,random8 change=src
    python3 tools/ladder.py --layer relations parent=../old/src change=src
    python3 tools/ladder.py --layer characters --rungs braid7 change=src

Each positional argument is LABEL=SRC_DIR, a directory that holds the
`arrgr` package.  Every measurement runs in a fresh interpreter that
imports `arrgr` from its tree and, where `os.sched_setaffinity` exists, is
pinned to one CPU.  Per rung the trees run a layer's own number of times
(fewer on its stretch rungs), alternating which goes first.  `--rungs`
picks rungs: a family name followed by its size (braid, semiorder,
boolean), and on the chambers and relations layers also random8 or
randoms, on the algebra layer random8.  A measurement that outlives
TIMEOUT_S seconds is killed and counted under "timeouts" (the exact
filtration echelon alone takes about 25 s at braid 7); the statistics come
from the runs that finished.
Times are `time.perf_counter` wall seconds; each timed key K is reported
as K_best, K_q1, K_median and K_q3 (the inclusive quartiles of
`statistics.quantiles`, which stay within the range of the runs), so one
read shows the spread of the runs as well as their middle.  With exactly
two trees, each rung also has an entry "SECOND/FIRST" (labels) with
K_ratio_median per timed key K: the median over the repeats of the second
tree's time over the first's, each ratio from the pair of runs made back
to back in one repeat, so one read tells a layer change from the host's
pace, which moves both runs of a pair alike.  Every run also reports
peak_rss_mib, the peak resident set size of its interpreter
(`resource.getrusage`), listed per run as peak_rss_mib_runs.  An
interpreter runs its layer's measurement PASSES times (STRETCH_PASSES on
a stretch rung), each pass on fresh inputs built untimed, and reports
the first pass's keys (the cold times, the counts and the md5s) with,
next to each timed key K_s, K_min_s, the least of its times over the
passes: a cold time spreads by a third between interpreters on a shared
host, and one pinned interpreter's best resolves a layer change of 10-30%
that the cold medians hide (on characters' semiorder3, a 0.3 ms call).
Layers:

  chambers    `Arrangement.chambers()` of a fresh copy (the rung `randoms`
              is `random_rational_arrangement` for seeds 1-8, together),
              with the `strict_feasible` calls split into side calls,
              those that directly follow a cut call answered false, and
              cut calls, all the others; fm_rows is the number of rows
              handed to them and fm_vars the largest number of variables
              of one call (0 if there is none); each pass counts its own
              calls, and `strict_feasible` is restored after it.
  algebra     after the circuits and a `CordovilAlgebra` are built:
              straighten_s, `straighten(Poly.monomial(s))` for every subset
              s of the hyperplanes on an empty straightening table,
              axioms_s, one `validate_circuit_axioms`, and products_s,
              criterion 9(d)'s loop (200 seeded triples, five products
              each, by the criterion's own `_law_products`) on a new
              algebra after the straightening, whose products
              products_md5 shows; a tree older than that helper has
              neither key; and polyproducts_s, 200 seeded pairs of
              elements of two basis sets each, with coefficients of
              denominators 1 to 6, each pair straightened as
              `straighten(a.to_poly() * b.to_poly())` (the polynomial
              product route), whose results polyproducts_md5 shows.
  characters  after the chambers: group_s, a cold `coordinate_action`,
              then cold_s, the first `graded_character` under it
              (filtration included), and warm_s, a second call, which
              reuses the cached filtration but solves B⁻¹ again, as every
              call does; perm_s, a cold `chamber_permutation` of every
              class representative on a new arrangement after its
              chambers, building its tope value (plus-masks, Heaviside
              masks and mask index) included; braid6 and braid7 are
              stretch rungs (braid7 is in no default ladder).
  filtration  after the chambers and `nbc_sets` (the benchmark jobs build
              both before the filtration): profile_s, a cold
              `filtration_profile`, then verify_s, `verify_relations`,
              which reads the certificate `filtration_profile` cached;
              presentation_s, a cold
              `presentation_dimension(A, (1, 2), nmax=n)` on a new
              arrangement after its chambers and `nbc_sets`; and vg_s,
              the whole command `arrgr --FAMILY N --nmax max(14, n) vg`
              (chambers, circuits and NBC included) on a new arrangement
              in the same interpreter, stdout discarded.
  relations   after the minimal infeasible sets and the canonical
              circuits: rees_s, a cold `rees_relation_families`, then
              vg_s, `vg_relation_families` (its u = 1 specialization),
              then presentation12_s and presentation13_s,
              `presentation_dimension(A, F, nmax=n)` for F = (1, 2) and
              (1, 3); terms_md5 is over the sorted terms of both families,
              counts_md5 over the two counts (the rung `randoms` is
              random seeds 1-8, together).

The md5 of each layer's results shows that the trees agree.  Stdlib only;
the JSON goes to stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations


def _md5(value) -> str:
    return hashlib.md5(repr(value).encode()).hexdigest()


FAMILIES = ("braid", "semiorder", "boolean")
TIMEOUT_S = 120
PASSES = 15  # measurements per interpreter
STRETCH_PASSES = 5


def _known(rung: str, layer: dict) -> bool:
    """A random rung the layer runs, or a family name followed by its size."""
    kind = rung.rstrip("0123456789")
    return rung in layer["randoms"] or (kind in FAMILIES and kind != rung)


def _make(rung: str) -> list:
    """The arrangements of a rung: one, or eight for `randoms`."""
    from arrgr import arrangement
    from arrgr.corpus import random_rational_arrangement

    if rung == "random8":
        return [random_rational_arrangement()]
    if rung == "randoms":
        return [random_rational_arrangement(seed=s) for s in range(1, 9)]
    kind = rung.rstrip("0123456789")
    return [getattr(arrangement, kind)(int(rung[len(kind):]))]


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def measure_chambers(rung: str) -> dict:
    import arrgr.arrangement

    calls = {"cut": 0, "side": 0, "rows": 0, "vars": 0}
    side_next = False  # the last call was a cut answered false
    feasible = arrgr.arrangement.strict_feasible

    def counted(constraints, dim=None):
        nonlocal side_next
        answer = feasible(constraints, dim=dim)
        calls["rows"] += len(constraints)
        calls["vars"] = max(calls["vars"], dim)
        calls["side" if side_next else "cut"] += 1
        side_next = not side_next and not answer
        return answer

    arrgr.arrangement.strict_feasible = counted
    chambers, elapsed = [], 0.0
    try:
        for A in _make(rung):
            found, seconds = _timed(A.chambers)
            chambers += found
            elapsed += seconds
    finally:  # the next pass counts its own calls, not through this one
        arrgr.arrangement.strict_feasible = feasible
    return {"chambers": len(chambers), "fm_cut_calls": calls["cut"],
            "fm_side_calls": calls["side"], "fm_rows": calls["rows"],
            "fm_vars": calls["vars"], "wall_s": elapsed, "chambers_md5": _md5(chambers)}


def _criterion_9d(law_products, alg) -> list:
    """Criterion 9(d)'s 200 draws on one algebra, each three seeded
    elements and their five products, made by the criterion's own
    `law_products`."""
    import random

    rng = random.Random(987654)
    basis = list(alg.nbc)
    return [law_products(alg, basis, rng) for _ in range(200)]


_PAIR_COEFFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4),
                Fraction(5, 6))


def _element_pairs(alg) -> list:
    """200 seeded pairs of elements of two basis sets each (one if the
    basis has one), with coefficients of denominators 1, 2, 3, 4 and 6."""
    import random

    rng = random.Random(20261021)
    basis = list(alg.nbc)

    def element():
        return alg.element({s: rng.choice(_PAIR_COEFFS)
                            for s in rng.sample(basis, k=min(2, len(basis)))})
    return [(element(), element()) for _ in range(200)]


def measure_algebra(rung: str) -> dict:
    from arrgr import acceptance
    from arrgr.circuits import circuits_from_arrangement, validate_circuit_axioms
    from arrgr.cordovil import CordovilAlgebra
    from arrgr.polyring import Poly

    def coords(el):
        return sorted((tuple(sorted(b)), str(c)) for b, c in el.coords.items())

    [A] = _make(rung)
    C = circuits_from_arrangement(A)
    alg = CordovilAlgebra(A)
    subsets = [s for k in range(A.n + 1) for s in combinations(range(A.n), k)]
    straight, straighten_s = _timed(
        lambda: [alg.straighten(Poly.monomial(s)) for s in subsets])
    report, axioms_s = _timed(validate_circuit_axioms, C)
    out = {"monomials": len(subsets), "circuits": len(C.circuits),
           "axioms_ok": report.ok, "straighten_s": straighten_s,
           "axioms_s": axioms_s, "coords_md5": _md5([coords(el) for el in straight])}
    law_products = getattr(acceptance, "_law_products", None)  # absent in older trees
    if law_products is not None:
        products, out["products_s"] = _timed(_criterion_9d, law_products, CordovilAlgebra(A))
        out["products_md5"] = _md5([[coords(el) for el in five] for five in products])
    pairs = _element_pairs(alg)
    polyproducts, out["polyproducts_s"] = _timed(
        lambda: [alg.straighten(a.to_poly() * b.to_poly()) for a, b in pairs])
    out["polyproducts_md5"] = _md5([coords(el) for el in polyproducts])
    return out


def measure_characters(rung: str) -> dict:
    from arrgr.symmetry import chamber_permutation, coordinate_action, graded_character

    [A], [B] = _make(rung), _make(rung)
    chambers = len(A.chambers())
    group, group_s = _timed(coordinate_action, A)
    gc, cold_s = _timed(graded_character, A, group)
    _, warm_s = _timed(graded_character, A, group)
    B.chambers()
    perms, perm_s = _timed(
        lambda: [chamber_permutation(B, w) for w in group.representatives])
    values = [[str(v) for v in row] for row in gc.grade_values + (gc.chamber_values,)]
    return {"chambers": chambers, "classes": group.n_classes,
            "group_s": group_s, "cold_s": cold_s, "warm_s": warm_s,
            "perm_s": perm_s, "values_md5": _md5(values), "perms_md5": _md5(perms)}


def measure_filtration(rung: str) -> dict:
    from arrgr import cli
    from arrgr.circuits import nbc_sets
    from arrgr.vgring import filtration_profile, presentation_dimension, verify_relations

    [A], [B] = _make(rung), _make(rung)
    chambers = len(A.chambers())
    for arrangement in (A, B):
        arrangement.chambers()
        nbc_sets(arrangement)
    profile, profile_s = _timed(filtration_profile, A)
    check, verify_s = _timed(verify_relations, A)
    count, presentation_s = _timed(presentation_dimension, B, (1, 2), B.n)
    kind = rung.rstrip("0123456789")
    argv = [f"--{kind}", rung[len(kind):], "--nmax", str(max(14, A.n)), "vg"]
    with contextlib.redirect_stdout(io.StringIO()):
        code, vg_s = _timed(cli.main, argv)
    return {"chambers": chambers, "relations_ok": check.ok, "vg_exit": code,
            "profile_s": profile_s, "verify_s": verify_s,
            "presentation_s": presentation_s, "vg_s": vg_s,
            "dims_md5": _md5((profile.dims, count))}


def measure_relations(rung: str) -> dict:
    from arrgr.circuits import canonical_circuits
    from arrgr.vgring import (presentation_dimension, rees_relation_families,
                              vg_relation_families)

    times = dict.fromkeys(("rees_s", "vg_s", "presentation12_s", "presentation13_s"), 0.0)
    terms, counts, relations, size = [], [], 0, 0
    for A in _make(rung):
        A.minimal_infeasible_sign_sets()
        canonical_circuits(A)
        calls = {"rees_s": (rees_relation_families, A),
                 "vg_s": (vg_relation_families, A),
                 "presentation12_s": (presentation_dimension, A, (1, 2), A.n),
                 "presentation13_s": (presentation_dimension, A, (1, 3), A.n)}
        got = {}
        for key, (fn, *args) in calls.items():
            got[key], seconds = _timed(fn, *args)
            times[key] += seconds
        relations += len(got["rees_s"])
        size += sum(len(r.poly.terms) for r in got["rees_s"])
        terms += [sorted((key, str(c)) for key, c in r.poly.terms.items())
                  for r in got["rees_s"] + got["vg_s"]]
        counts.append((got["presentation12_s"], got["presentation13_s"]))
    return {"relations": relations, "terms": size, **times,
            "terms_md5": _md5(terms), "counts_md5": _md5(counts)}


def _best_of(measure, rung: str, passes: int) -> dict:
    """The first of `passes` calls of `measure(rung)` in this interpreter,
    each building its own inputs, with K_min_s for each timed key K_s: the
    least of its times over the calls."""
    runs = [measure(rung) for _ in range(passes)]
    out = dict(runs[0], passes=passes)
    for key in runs[0]:
        if key.endswith("_s"):
            out[f"{key[:-2]}_min_s"] = min(run[key] for run in runs)
    return out


def _layer(rungs, measure, repeats, stretch, what, randoms=()) -> dict:
    return {"rungs": rungs, "measure": measure, "repeats": repeats,
            "stretch": stretch, "what": what, "randoms": randoms}


LAYERS = {
    "chambers": _layer(
        [f"braid{n}" for n in range(3, 8)] + ["semiorder3", "semiorder4"]
        + [f"boolean{n}" for n in range(4, 9)] + ["random8", "randoms"],
        measure_chambers, 7, {"braid7": 3},
        "Arrangement.chambers() of a fresh copy and its strict_feasible "
        "calls, side (directly after a cut answered false) and cut (the "
        "others), with the rows handed to them and the most variables in "
        "one call", ("random8", "randoms")),
    "algebra": _layer(
        ["braid4", "braid5", "braid6", "boolean7"], measure_algebra, 7, {},
        "cold straighten of every squarefree monomial, one "
        "validate_circuit_axioms call, criterion 9(d)'s 200 seeded "
        "triples with five products each, and 200 seeded pairs straightened "
        "from their polynomial product", ("random8",)),
    "characters": _layer(
        ["braid3", "braid4", "braid5", "braid6", "boolean4", "boolean5",
         "semiorder3", "semiorder4"], measure_characters, 5,
        {"braid6": 3, "braid7": 3},
        "a cold coordinate_action of S_n, then graded_character under it, "
        "cold (first call, filtration included) and warm (second call), and "
        "a cold chamber_permutation of every class representative on a new "
        "arrangement after its chambers, tope value included"),
    "filtration": _layer(
        [f"braid{n}" for n in range(4, 8)] + ["semiorder3", "semiorder4", "boolean7"],
        measure_filtration, 5, {"braid7": 3},
        "cold filtration_profile after the chambers and nbc_sets, then "
        "verify_relations, which reads its cached certificate, a cold "
        "presentation_dimension(A, (1, 2), nmax=n) on a second such "
        "arrangement, and the whole `arrgr ... --nmax max(14, n) vg` command "
        "on a new arrangement"),
    "relations": _layer(
        [f"braid{n}" for n in range(4, 8)] + ["semiorder3", "semiorder4", "boolean7",
                                               "random8", "randoms"],
        measure_relations, 7, {"braid7": 3},
        "after the minimal infeasible sets and canonical circuits: cold "
        "rees_relation_families, then vg_relation_families, then "
        "presentation_dimension(A, F, nmax=n) for F = (1, 2) and (1, 3)",
        ("random8", "randoms")),
}


def child(layer: str, src: str, rung: str) -> dict:
    """One measurement of one rung on one tree, in this interpreter, with
    the interpreter's peak resident set size (ru_maxrss: KiB on Linux,
    bytes on macOS)."""
    import resource

    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, src)
    spec = LAYERS[layer]
    passes = STRETCH_PASSES if rung in spec["stretch"] else PASSES
    out = _best_of(spec["measure"], rung, passes)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["peak_rss_mib"] = rss / (2**20 if sys.platform == "darwin" else 2**10)
    return out


def summary(results: list, timeouts: int) -> dict:
    """Per key over the finished runs: best, first quartile, median and
    third quartile of the times (a single run is its own quartiles), the
    sorted distinct md5 values, every run's peak RSS, and the first run's
    value otherwise."""
    out = {"runs": len(results), "timeouts": timeouts}
    for key, value in (results[0].items() if results else ()):
        values = [r[key] for r in results]
        if key.endswith("_s"):
            q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                         if len(values) > 1 else values * 3)
            out[f"{key}_best"] = min(values)
            out[f"{key}_q1"] = q1
            out[f"{key}_median"] = statistics.median(values)
            out[f"{key}_q3"] = q3
        elif key.endswith("_md5"):
            out[key] = sorted(set(values))
        elif key.endswith("_mib"):
            out[f"{key}_runs"] = values
        else:
            out[key] = value
    return out


def ratios(pairs: list, first: str, second: str) -> dict:
    """Per timed key, the median over the repeats where both trees
    finished of the second tree's time over the first's: each ratio is
    read from two back-to-back runs, so it moves with a layer change and
    not with the host's pace."""
    done = [p for p in pairs if first in p and second in p]
    keys = [key for key in (done[0][first] if done else ())
            if key.endswith("_s") and key in done[0][second]]
    out = {"pairs": len(done)}
    for key in keys:
        values = [p[second][key] / p[first][key] for p in done if p[first][key]]
        if values:
            out[f"{key[:-2]}_ratio_median"] = statistics.median(values)
    return out


def main(argv: list) -> int:
    if argv[:1] == ["child"]:
        print(json.dumps(child(*argv[1:4])))
        return 0
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--layer", required=True, choices=sorted(LAYERS))
    parser.add_argument("--rungs", help="comma-separated rungs (default: the layer's ladder)")
    parser.add_argument("trees", nargs="+", metavar="LABEL=SRC_DIR")
    args = parser.parse_args(argv)
    trees = [arg.split("=", 1) for arg in args.trees]
    if any(len(t) != 2 for t in trees):
        parser.error("trees are given as LABEL=SRC_DIR")
    layer = LAYERS[args.layer]
    rungs = args.rungs.split(",") if args.rungs else layer["rungs"]
    unknown = [rung for rung in rungs if not _known(rung, layer)]
    if unknown:
        choices = [*layer["randoms"], f"one of {', '.join(FAMILIES)} followed by its size"]
        parser.error(f"unknown rungs {unknown} for the {args.layer} layer: "
                     f"use {' or '.join(choices)}")
    out = {}
    for rung in rungs:
        repeats = layer["stretch"].get(rung, layer["repeats"])
        timeouts = {label: 0 for label, _ in trees}
        pairs = []  # per repeat, {label: result} of the trees that finished
        for r in range(repeats):
            pairs.append({})
            for label, src in (trees if r % 2 == 0 else trees[::-1]):
                command = [sys.executable, __file__, "child", args.layer, src, rung]
                try:
                    done = subprocess.run(command, check=True, capture_output=True,
                                          text=True, timeout=TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    timeouts[label] += 1
                    continue
                except subprocess.CalledProcessError as failed:
                    sys.stderr.write(failed.stderr)
                    print(f"{label} failed on {rung}", file=sys.stderr)
                    return 1
                pairs[-1][label] = json.loads(done.stdout)
        out[rung] = {label: summary([p[label] for p in pairs if label in p], timeouts[label])
                     for label, _ in trees}
        if len(trees) == 2:
            first, second = (label for label, _ in trees)
            out[rung][f"{second}/{first}"] = ratios(pairs, first, second)
    json.dump({
        "layer": args.layer,
        "what": f"{layer['what']}; wall time (best, quartiles and median "
                "over fresh interpreters per tree, alternating; "
                "time.perf_counter; one "
                f"pinned CPU where available); timeout {TIMEOUT_S} s"
                f"; K_min_s is the least of K_s over {PASSES} passes in one "
                f"interpreter ({STRETCH_PASSES} on a stretch rung), each on "
                "fresh inputs",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "trees": [label for label, _ in trees],
        "rungs": out,
    }, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
