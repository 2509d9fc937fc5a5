"""Time `Arrangement.chambers()` on the workload ladder, for one or more
source trees.

    python3 tools/chambers_ladder.py parent=../old/src change=src > BENCH.json

Each argument is LABEL=SRC_DIR, a directory that holds the `arrgr` package.
Every (tree, rung) pair runs in a fresh interpreter that imports `arrgr`
from its tree and, where `os.sched_setaffinity` exists, is pinned to one
CPU; there each of REPEATS fresh copies of the rung's arrangements is
built and their `chambers()` timed with `time.perf_counter`, and the calls
made to `strict_feasible` (the Fourier-Motzkin test) are counted: cut
calls, in dim - 1 variables, and side calls, in dim variables.  The rung
`randoms` is `random_rational_arrangement` for seeds 1-8, timed together;
the stretch rung braid 7 runs STRETCH_REPEATS times.  The trees run
alternately, rung by rung.  Stdlib only; the JSON goes to stdout.
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

RUNGS = ([f"braid{n}" for n in range(3, 7)] + ["semiorder3", "semiorder4"]
         + [f"boolean{n}" for n in range(4, 9)] + ["random8", "randoms"])
STRETCH = ["braid7"]
REPEATS = 7
STRETCH_REPEATS = 3


def _make(rung: str) -> list:
    from arrgr.arrangement import boolean, braid, semiorder
    from arrgr.corpus import random_rational_arrangement

    if rung == "random8":
        return [random_rational_arrangement()]
    if rung == "randoms":
        return [random_rational_arrangement(seed=s) for s in range(1, 9)]
    for name, build in (("braid", braid), ("semiorder", semiorder),
                        ("boolean", boolean)):
        if rung.startswith(name):
            return [build(int(rung[len(name):]))]
    raise SystemExit(f"unknown rung {rung!r}")


def child(src: str, rung: str) -> dict:
    """One rung on one tree, in this interpreter."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, src)
    import arrgr.arrangement

    calls = {"cut": 0, "side": 0}
    dims = {}  # dim of a strict_feasible call -> "cut" or "side"
    feasible = arrgr.arrangement.strict_feasible

    def counted(constraints, dim=None):
        calls[dims[dim]] += 1
        return feasible(constraints, dim=dim)

    arrgr.arrangement.strict_feasible = counted
    times, counts = [], []
    for _ in range(STRETCH_REPEATS if rung in STRETCH else REPEATS):
        arrangements = _make(rung)
        calls.update(cut=0, side=0)
        elapsed = 0.0
        chambers = []
        for A in arrangements:
            dims.clear()
            dims.update({A.dim - 1: "cut", A.dim: "side"})
            start = time.perf_counter()
            chambers += A.chambers()
            elapsed += time.perf_counter() - start
        times.append(elapsed)
        counts.append(dict(calls))
    return {
        "chambers": len(chambers),
        "fm_calls": counts[0]["cut"] + counts[0]["side"],
        "fm_cut_calls": counts[0]["cut"],
        "fm_side_calls": counts[0]["side"],
        "wall_s_best": min(times),
        "wall_s_median": statistics.median(times),
        "chambers_md5": hashlib.md5(repr(chambers).encode()).hexdigest(),
    }


def main(argv: list) -> int:
    if argv[:1] == ["child"]:
        print(json.dumps(child(argv[1], argv[2])))
        return 0
    trees = [arg.split("=", 1) for arg in argv]
    if not trees or any(len(t) != 2 for t in trees):
        print(__doc__, file=sys.stderr)
        return 2
    rungs = {}
    for rung in RUNGS + STRETCH:
        rungs[rung] = {}
        for label, src in trees:
            out = subprocess.run([sys.executable, __file__, "child", src, rung],
                                 check=True, capture_output=True, text=True)
            rungs[rung][label] = json.loads(out.stdout)
    json.dump({
        "what": "Arrangement.chambers() wall time (best and median of "
                f"{REPEATS} fresh copies, {STRETCH_REPEATS} for "
                f"{', '.join(STRETCH)}; time.perf_counter; one pinned CPU "
                "where available) and strict_feasible calls per rung, split "
                "into cut calls (dim - 1 variables) and side calls (dim)",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "trees": [label for label, _ in trees],
        "rungs": rungs,
    }, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
