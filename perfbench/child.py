"""Child processes of the benchmark, and how to start them.

    python3 perfbench/child.py setup WORKLOAD SEED
        import arrgr.cli, build the workload's arrangements, print
        "ready <import seconds>", then a digest of the inputs, and exit.
        The parent times the interval from spawning to the first line: the
        workload's set-up.
    python3 perfbench/child.py job WORKLOAD SEED INDEX TRACED
        run job INDEX of a pass of WORKLOAD (jobs.py) in this fresh
        interpreter, under the tracer if TRACED is 1, and print one JSON
        line with the seconds from building its Arrangement to the end of
        its last call (wall and paced, pace.py), whether it was verified,
        its call ledger and its trace counters.
    python3 perfbench/child.py suite TRACED
        run `arrgr paper-suite` in this interpreter, under the tracer if
        TRACED is 1, and print one JSON line with its exit code, output,
        seconds (wall and paced) and trace counters.

This module imports nothing from arrgr at module level, so run.py can use
its paths before it knows whether the checkout has sources at all.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time
from pathlib import Path

import pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def command(*args) -> list:
    return [sys.executable, str(HERE / "child.py"), *map(str, args)]


def env() -> dict:
    """The environment for a child interpreter that imports arrgr from SRC."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def _setup(workload: str, seed: int) -> None:
    start = time.perf_counter()
    import arrgr.cli  # noqa: F401  (the entry point a user starts)
    import_s = time.perf_counter() - start
    import inputs

    if workload == "paper-suite":
        import arrgr.acceptance  # noqa: F401
        from arrgr.corpus import corpus

        arrangements = [A for _, A in corpus()]
    else:
        arrangements = [inputs.build(s) for s in inputs.workload_specs(workload, seed)]
    print(f"ready {import_s!r}", flush=True)
    digests = " ".join(inputs.digest(A) for A in arrangements)
    print(hashlib.sha256(digests.encode()).hexdigest()[:16])


def _job(workload: str, seed: int, index: int, traced: bool) -> None:
    import inputs
    import jobs
    import spans

    spec = inputs.workload_specs(workload, seed)[index]
    tracer = spans.Tracer()
    if traced:
        tracer.install()
    led = jobs.Ledger()
    with pace.Sampler() as sampler:
        start = time.perf_counter()
        if workload == "symmetric-characters":
            verified = jobs.characters_job(spec, led, seed)
        else:
            verified = jobs.census_job(spec, led, workload == "central-scale")
    print(json.dumps({"seconds": led.calls_end - start,
                      "paced_s": sampler.paced(start, led.calls_end),
                      "verified": verified, "ledger": led.to_json(),
                      "trace": tracer.snapshot() if traced else None}))


def _suite(traced: bool) -> None:
    import arrgr.acceptance  # noqa: F401
    import arrgr.cli

    import spans

    tracer = spans.Tracer()
    if traced:
        tracer.install()
    out = io.StringIO()
    with pace.Sampler() as sampler, contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = arrgr.cli.main(["paper-suite"])
        end = time.perf_counter()
    print(json.dumps({"returncode": code, "output": out.getvalue(),
                      "seconds": end - start, "paced_s": sampler.paced(start, end),
                      "trace": tracer.snapshot() if traced else None}))


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"] and len(sys.argv) == 4:
        _setup(sys.argv[2], int(sys.argv[3]))
    elif sys.argv[1:2] == ["job"] and len(sys.argv) == 6:
        _job(sys.argv[2], int(sys.argv[3]), int(sys.argv[4]), sys.argv[5] == "1")
    elif sys.argv[1:2] == ["suite"] and len(sys.argv) == 3:
        _suite(sys.argv[2] == "1")
    else:
        sys.exit(__doc__)
