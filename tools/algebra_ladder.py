"""Time cold straightening and the circuit-axiom check on a small ladder,
for one or more source trees.

    python3 tools/algebra_ladder.py parent=../old/src change=src > ladder.json

Each argument is LABEL=SRC_DIR, a directory that holds the `arrgr` package.
Every measurement runs in a fresh interpreter that imports `arrgr` from its
tree and, where `os.sched_setaffinity` exists, is pinned to one CPU.  It
builds the rung's arrangement, its circuits and a `CordovilAlgebra` (not
timed), then times with `time.perf_counter`:
  - straighten_s: `straighten(Poly.monomial(s))` for every subset s of the
    hyperplanes, on an empty straightening table (the table fills as it
    goes, as in `arrgr cordovil` or a fresh benchmark job);
  - axioms_s: one `validate_circuit_axioms` of the arrangement's circuits.
The trees run REPEATS times per rung, alternating which goes first.  The
md5 of the straightened coordinates shows that the trees agree.  Stdlib
only; the JSON goes to stdout.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from itertools import combinations

RUNGS = ["braid4", "braid5", "braid6", "boolean7"]
REPEATS = 7


def child(src: str, rung: str) -> dict:
    """One cold measurement of one rung on one tree, in this interpreter."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, src)
    from arrgr.arrangement import boolean, braid
    from arrgr.circuits import circuits_from_arrangement, validate_circuit_axioms
    from arrgr.cordovil import CordovilAlgebra
    from arrgr.polyring import Poly

    kind = rung.rstrip("0123456789")
    A = {"braid": braid, "boolean": boolean}[kind](int(rung[len(kind):]))
    C = circuits_from_arrangement(A)
    alg = CordovilAlgebra(A)
    subsets = [s for k in range(A.n + 1) for s in combinations(range(A.n), k)]
    start = time.perf_counter()
    straight = [alg.straighten(Poly.monomial(s)) for s in subsets]
    straighten_s = time.perf_counter() - start
    start = time.perf_counter()
    report = validate_circuit_axioms(C)
    axioms_s = time.perf_counter() - start
    coords = repr([sorted((tuple(sorted(b)), str(c)) for b, c in el.coords.items())
                   for el in straight])
    return {"monomials": len(subsets), "circuits": len(C.circuits),
            "axioms_ok": report.ok, "straighten_s": straighten_s,
            "axioms_s": axioms_s,
            "coords_md5": hashlib.md5(coords.encode()).hexdigest()}


def main(argv: list) -> int:
    if argv[:1] == ["child"]:
        print(json.dumps(child(argv[1], argv[2])))
        return 0
    trees = [arg.split("=", 1) for arg in argv]
    if not trees or any(len(t) != 2 for t in trees):
        print(__doc__, file=sys.stderr)
        return 2
    rungs = {}
    for rung in RUNGS:
        runs = {label: [] for label, _ in trees}
        for r in range(REPEATS):
            for label, src in (trees if r % 2 == 0 else trees[::-1]):
                out = subprocess.run([sys.executable, __file__, "child", src, rung],
                                     check=True, capture_output=True, text=True)
                runs[label].append(json.loads(out.stdout))
        rungs[rung] = {}
        for label, results in runs.items():
            first = results[0]
            rungs[rung][label] = {
                "monomials": first["monomials"],
                "circuits": first["circuits"],
                "axioms_ok": all(x["axioms_ok"] for x in results),
                **{f"{key}_{stat}": fn(x[key] for x in results)
                   for key in ("straighten_s", "axioms_s")
                   for stat, fn in (("best", min), ("median", statistics.median))},
                "coords_md5": sorted({x["coords_md5"] for x in results}),
            }
    json.dump({
        "what": "cold straighten of every squarefree monomial and one "
                "validate_circuit_axioms call, wall time (best and median of "
                f"{REPEATS} fresh interpreters per tree, alternating; "
                "time.perf_counter; one pinned CPU where available)",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "trees": [label for label, _ in trees],
        "rungs": rungs,
    }, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
