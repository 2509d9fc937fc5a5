"""Time `Arrangement.chambers()` on the workload ladder, for one or more
source trees.

    python3 tools/chambers_ladder.py parent=../old/src change=src > BENCH.json

Each argument is LABEL=SRC_DIR, a directory that holds the `arrgr` package.
Every (tree, rung) pair runs in a fresh interpreter that imports `arrgr`
from its tree; there each of REPEATS fresh arrangements is built and its
`chambers()` timed with `time.perf_counter`, and the calls it makes to
`strict_feasible` (the Fourier-Motzkin test) are counted.  The trees run
alternately, rung by rung.  Stdlib only; the JSON goes to stdout.
"""

from __future__ import annotations

import hashlib
import json
import platform
import statistics
import subprocess
import sys
import time

RUNGS = ([f"braid{n}" for n in range(3, 7)] + ["semiorder3", "semiorder4"]
         + [f"boolean{n}" for n in range(4, 9)] + ["random8"])
REPEATS = 7


def _make(rung: str):
    from arrgr.arrangement import boolean, braid, semiorder
    from arrgr.corpus import random_rational_arrangement

    if rung == "random8":
        return random_rational_arrangement()
    for name, build in (("braid", braid), ("semiorder", semiorder),
                        ("boolean", boolean)):
        if rung.startswith(name):
            return build(int(rung[len(name):]))
    raise SystemExit(f"unknown rung {rung!r}")


def child(src: str, rung: str) -> dict:
    """One rung on one tree, in this interpreter."""
    sys.path.insert(0, src)
    import arrgr.arrangement

    calls = [0]
    feasible = arrgr.arrangement.strict_feasible

    def counted(*args, **kwargs):
        calls[0] += 1
        return feasible(*args, **kwargs)

    arrgr.arrangement.strict_feasible = counted
    times, fm_calls = [], []
    for _ in range(REPEATS):
        A = _make(rung)
        calls[0] = 0
        start = time.perf_counter()
        chambers = A.chambers()
        times.append(time.perf_counter() - start)
        fm_calls.append(calls[0])
    return {
        "chambers": len(chambers),
        "fm_calls": fm_calls[0],
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
    for rung in RUNGS:
        rungs[rung] = {}
        for label, src in trees:
            out = subprocess.run([sys.executable, __file__, "child", src, rung],
                                 check=True, capture_output=True, text=True)
            rungs[rung][label] = json.loads(out.stdout)
    json.dump({
        "what": "Arrangement.chambers() wall time (best and median of "
                f"{REPEATS} fresh arrangements, time.perf_counter) and "
                "strict_feasible calls per rung",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "trees": [label for label, _ in trees],
        "rungs": rungs,
    }, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
