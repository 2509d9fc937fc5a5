"""Time cold graded characters on a small ladder, for one or more source
trees.

    python3 tools/characters_ladder.py parent=../old/src change=src > ladder.json

Each argument is LABEL=SRC_DIR, a directory that holds the `arrgr` package.
Every measurement runs in a fresh interpreter that imports `arrgr` from its
tree and, where `os.sched_setaffinity` exists, is pinned to one CPU.  It
builds the rung's arrangement, its chambers and its coordinate action of
S_n (not timed), then times with `time.perf_counter`:
  - cold_s: the first `graded_character` call, which also runs the
    filtration elimination it reads (as in `arrgr characters` or a fresh
    benchmark job);
  - warm_s: a second call on the same arrangement and group.
The trees run REPEATS times per rung, alternating which goes first.  The
md5 of the grade and chamber values shows that the trees agree.  Stdlib
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

RUNGS = ["braid3", "braid4", "braid5", "boolean4", "boolean5",
         "semiorder3", "semiorder4"]
REPEATS = 5


def child(src: str, rung: str) -> dict:
    """One cold and one warm measurement of one rung on one tree, in this
    interpreter."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, src)
    from arrgr.arrangement import boolean, braid, semiorder
    from arrgr.symmetry import coordinate_action, graded_character

    kind = rung.rstrip("0123456789")
    make = {"braid": braid, "boolean": boolean, "semiorder": semiorder}[kind]
    A = make(int(rung[len(kind):]))
    chambers = len(A.chambers())
    group = coordinate_action(A)
    start = time.perf_counter()
    gc = graded_character(A, group)
    cold_s = time.perf_counter() - start
    start = time.perf_counter()
    graded_character(A, group)
    warm_s = time.perf_counter() - start
    values = repr([[str(v) for v in row]
                   for row in gc.grade_values + (gc.chamber_values,)])
    return {"chambers": chambers, "classes": group.n_classes,
            "cold_s": cold_s, "warm_s": warm_s,
            "values_md5": hashlib.md5(values.encode()).hexdigest()}


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
                "chambers": first["chambers"],
                "classes": first["classes"],
                **{f"{key}_{stat}": fn(x[key] for x in results)
                   for key in ("cold_s", "warm_s")
                   for stat, fn in (("best", min), ("median", statistics.median))},
                "values_md5": sorted({x["values_md5"] for x in results}),
            }
    json.dump({
        "what": "graded_character under the coordinate action of S_n, cold "
                "(first call, filtration elimination included) and warm "
                f"(second call), wall time (best and median of {REPEATS} fresh "
                "interpreters per tree, alternating; time.perf_counter; one "
                "pinned CPU where available)",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "trees": [label for label, _ in trees],
        "rungs": rungs,
    }, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
