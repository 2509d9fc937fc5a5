"""Checks of the benchmark itself.

    python3 perfbench/check.py steady [--runs 10] [--workload NAME ...]
        run each workload once per seed 1..runs and print, per end-to-end
        metric, the median and the spread (quartile distance over median),
        next to the bound from BENCHMARK.json; for the paced metrics, the
        spread of their unpaced values from the same runs as well.
    python3 perfbench/check.py repeat [--seed 1] [--workload NAME ...]
        run each workload traced twice with one seed and require every
        per-layer count to repeat exactly.

Run from the root of a checkout.  Exit code 1 if a spread exceeds its
bound, a count differs or a run is not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int) -> dict:
    """The result line of one run, with the unpaced figures it printed
    added to its metrics as "unpaced NAME"."""
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    lines = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           check=True, timeout=900).stdout.splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("unpaced "):
            name, value, unit = line.rsplit(None, 2)
            result["metrics"][name] = {"value": float(value), "unit": unit}
    return result


def spread(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def steady(workloads: list, runs: int) -> bool:
    ok = True
    for w in workloads:
        results = [run(w, seed, 0) for seed in range(1, runs + 1)]
        ok &= all(r["correct"] for r in results)
        for m in SPEC["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med, s = spread(values)
            ok &= s <= m["bound"]
            print(f"{w:<22}{m['name']:<18}median {med:<12.6g}spread {s:.4f}  "
                  f"bound {m['bound']}  values {' '.join(f'{v:.5g}' for v in values)}")
            unpaced = [r["metrics"].get(f"unpaced {m['name']}") for r in results]
            if None not in unpaced:
                med, s = spread([u["value"] for u in unpaced])
                print(f"{w:<22}{'  unpaced':<18}median {med:<12.6g}spread {s:.4f}")
    return ok


def repeat(workloads: list, seed: int) -> bool:
    ok = True
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    for w in workloads:
        first, second = run(w, seed, 1), run(w, seed, 1)
        ok &= first["correct"] and second["correct"]
        for name in counts:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            ok &= a == b
            print(f"{w:<22}{name:<52}{a:<10}{'' if a == b else f'!= {b}'}")
    return ok


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("mode", choices=("steady", "repeat"))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in SPEC["workloads"]])
    args = p.parse_args()
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    ok = steady(workloads, args.runs) if args.mode == "steady" else repeat(workloads, args.seed)
    print("ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
