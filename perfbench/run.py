"""Benchmark of the arrgr pipeline on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports arrgr from src/ there.

Load model: a closed loop with one client, one single-threaded process at
a time, all on one CPU.  A pass runs the workload's jobs once, each in a
fresh interpreter on a freshly built Arrangement, so no cache of the
library, in an object or in a module, outlives its job; a run repeats
whole passes until --seconds have gone by (at least one).  A job's time
runs from building its Arrangement to the end of its last call: the
interpreter's start and the output checks are outside it.  A paper-suite
job is one `arrgr paper-suite` in a fresh interpreter, timed from the
start of the command to its return.

Times are paced (pace.py): divided by how many times slower than nominal
the host ran while they were taken, measured by a fixed loop of
small-Fraction arithmetic in the same process and on the same CPU.  The
unpaced figures are printed too.

--trace 0 prints the end-to-end metrics:
  verified_per_min  jobs that completed and passed every output check, per
                    paced minute of job time (median over passes);
  ok_ratio          public calls that returned, over public calls attempted,
                    i.e. 1 - fail_ratio (fail_ratio itself is printed too,
                    but is 0 on three workloads);
  setup_s           median over SETUP_REPEATS fresh interpreters, half
                    started before the passes and half after them, of the
                    paced time from spawning to ready: import arrgr.cli,
                    generate and construct the workload's arrangements;
  peak_rss_mib      peak resident memory of the workload's processes.
--trace 1 alternates untraced and traced passes (spans.py) and prints the
per-layer metrics (self times in unpaced seconds), with the tracing overhead
taken from the pairs; its self-check fails the run if a layer does not
fire where it must.  The last line is one JSON object: correct,
attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from typing import NamedTuple

import child
import pace
import spans

WORKLOADS = ("affine-census", "central-scale", "symmetric-characters", "paper-suite")
SETUP_REPEATS = 16  # half before the passes, half after them
SETUP_PACE = 10 * pace.ITERATIONS   # iterations of a pace sample between set-ups


class Pass(NamedTuple):
    verified: int
    seconds: float          # the jobs' timed sections, summed
    paced_s: float          # the same at the nominal pace
    counters: dict | None   # trace counters of a traced pass


def run_jobs(pass_jobs: list) -> Pass:
    """Run the jobs of one pass (thunks returning a jobs.Job)."""
    done = [job() for job in pass_jobs]
    counters = [job.counters for job in done]
    return Pass(sum(job.verified for job in done), sum(job.seconds for job in done),
                sum(job.paced_s for job in done),
                spans.merge(counters) if None not in counters else None)


class Setup(NamedTuple):
    seconds: float   # from spawning to ready
    pace: float
    import_s: float
    digest: str      # of the inputs the set-up interpreter built


def measure_setup(workload: str, seed: int, repeats: int) -> list:
    """[Setup] of `repeats` fresh set-up interpreters, each paced by the mean
    of the pace samples taken just before and just after it."""
    out, before = [], pace.pace(SETUP_PACE)
    for _ in range(repeats):
        start = time.perf_counter()
        with subprocess.Popen(child.command("setup", workload, seed), cwd=child.ROOT,
                              env=child.env(), stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            end = time.perf_counter()
            rest = proc.stdout.read()
        if proc.returncode != 0 or not line.startswith("ready "):
            sys.exit(f"perfbench: set-up child failed: {line}{rest}")
        after = pace.pace(SETUP_PACE)
        out.append(Setup(end - start, (before + after) / 2, float(line.split()[1]),
                         rest.strip()))
        before = after
    return out


def repeat_for(seconds: float, step) -> list:
    """Results of `step()`, repeated until `seconds` have gone by (at least once)."""
    out, start = [], time.perf_counter()
    while not out or time.perf_counter() - start < seconds:
        out.append(step())
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (child.SRC / "arrgr" / "__init__.py").is_file():
        sys.exit(f"perfbench: no arrgr sources in {child.SRC}; run from a checkout")
    sys.path.insert(0, str(child.SRC))
    import inputs
    import jobs

    pace.pin_to_one_cpu()
    setups = measure_setup(args.workload, args.seed, SETUP_REPEATS // 2)
    specs = inputs.workload_specs(args.workload, args.seed)
    digests = [inputs.digest(inputs.build(s)) for s in specs]
    led = jobs.Ledger()

    def run_pass(traced: bool) -> Pass:
        if args.workload == "paper-suite":
            return run_jobs([lambda: jobs.suite_job(led, traced)])
        return run_jobs([
            lambda i=i: jobs.fresh_job(led, args.workload, args.seed, i, traced)
            for i in range(len(specs))])

    if not args.trace:
        passes = repeat_for(args.seconds, lambda: run_pass(False))
        traced = []
    else:
        pairs = repeat_for(args.seconds, lambda: (run_pass(False), run_pass(True)))
        passes, traced = [p for p, _ in pairs], [t for _, t in pairs]
    setups += measure_setup(args.workload, args.seed, SETUP_REPEATS - len(setups))
    if not args.trace:
        peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                       resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        values = {
            "verified_per_min": statistics.median(60 * p.verified / p.paced_s
                                                  for p in passes),
            "ok_ratio": 1 - led.failed / led.attempted,
            "setup_s": statistics.median(x.seconds / x.pace for x in setups),
            "peak_rss_mib": peak_kib / 1024,
        }
        units = {"verified_per_min": "1/min", "ok_ratio": "ratio", "setup_s": "s",
                 "peak_rss_mib": "MiB"}
    else:
        snapshots = [t.counters for t in traced]
        values = spans.layer_metrics(snapshots)
        values["cli.import.s"] = statistics.median(x.import_s for x in setups)
        values["trace.overhead_ratio"] = statistics.median(
            t.paced_s / p.paced_s for p, t in pairs) - 1
        led.problems += spans.self_check(args.workload, snapshots)
        units = {name: unit for name, unit, _ in spans.METRICS}
    setup_digests = {x.digest for x in setups}
    if specs and setup_digests != {hashlib.sha256(" ".join(digests).encode()).hexdigest()[:16]}:
        led.problems.append("set-up and benchmark built different inputs")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("inputs  " + (" ".join(f"{s.name}:{d}" for s, d in zip(specs, digests))
                        or "arrgr corpus") + f"  (all: {' '.join(sorted(setup_digests))})")
    for label, group in (("untraced", passes), ("traced", traced)):
        if group:
            print(f"{label} passes  " + "  ".join(
                f"{p.seconds:.3f}s (pace {p.seconds / p.paced_s:.3f})" for p in group)
                  + f"  ({len(specs) or 1} jobs each, verified "
                  + "/".join(str(p.verified) for p in group) + ")")
    print("set-up  " + " ".join(f"{x.seconds:.3f}" for x in setups) + " s, paces "
          + " ".join(f"{x.pace:.3f}" for x in setups))
    print(f"calls   {led.attempted} attempted, {led.failed} failed")
    reasons: dict = defaultdict(Counter)
    for (reason, name), n in led.failures.items():
        reasons[reason][name] += n
    for reason, names in sorted(reasons.items()):
        print(f"failure {sum(names.values())} calls  {reason}  ["
              + ", ".join(f"{name} x{n}" for name, n in sorted(names.items())) + "]")
    for problem in sorted(set(led.problems)):
        print(f"CHECK FAILED  {problem}")
    if not args.trace:
        print(f"{'fail_ratio':<52}{led.failed / led.attempted:.6g} ratio")
        print(f"{'unpaced verified_per_min':<52}"
              f"{statistics.median(60 * p.verified / p.seconds for p in passes):.6g} 1/min")
        print(f"{'unpaced setup_s':<52}{statistics.median(x.seconds for x in setups):.6g} s")
    for name, value in values.items():
        print(f"{name:<52}{value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not led.problems,
        "attempted": led.attempted,
        "failed": led.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
