"""Command-line surface.

One binary, subcommand style.  Global flags select the arrangement (from a
file or a generator) and the output format; each computation is a
subcommand.  Exit codes: 0 pass, 1 verification failure (a failed
internal consistency check prints one `consistency error:` line to
stderr), 2 input error, 3 resource bound exceeded, 141 (128 + SIGPIPE)
when the reader of stdout goes away.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .arrangement import (Arrangement, arrangement_to_json, boolean, braid,
                          load_arrangement, semiorder)
from .characters import partition_str
from .circuits import (circuits_from_arrangement, circuits_to_json,
                       nbc_counts, nbc_sets, validate_circuit_axioms)
from .cordovil import CordovilAlgebra, leading_form_check
from .errors import ConsistencyError, InputError, ResourceBoundError
from .polyring import Poly, format_poincare
from .rees import rees_hilbert_check, rees_relation_families, specialize
from .symmetry import graded_character, load_group
from .vgring import (filtration_profile, presentation_dimension,
                     vg_relation_families, verify_relations)

PASS, FAIL, BAD_INPUT, BOUND, BROKEN_PIPE = 0, 1, 2, 3, 141


def _make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="arrgr",
        description="exact chamber, circuit, filtration and character "
                    "computations for rational hyperplane arrangements")
    src = p.add_mutually_exclusive_group()
    src.add_argument("--file", metavar="PATH", help="arrangement JSON file")
    src.add_argument("--braid", type=int, metavar="N")
    src.add_argument("--semiorder", type=int, metavar="N")
    src.add_argument("--boolean", type=int, metavar="N")
    def add_common(parser):
        # accepted both before and after the subcommand; SUPPRESS keeps the
        # subcommand parse from clobbering values given up front
        parser.add_argument("--order", metavar="L1,L2,...",
                            default=argparse.SUPPRESS,
                            help="hyperplane ordering override (labels)")
        parser.add_argument("--json", action="store_true",
                            default=argparse.SUPPRESS,
                            help="machine-readable output")
        parser.add_argument("--nmax", type=int, metavar="K",
                            default=argparse.SUPPRESS,
                            help="resource bound on the number of hyperplanes")

    add_common(p)
    p.set_defaults(order=None, json=False, nmax=14)
    sub = p.add_subparsers(dest="command", required=True)
    commands = {
        "chambers": "feasible sign vectors",
        "circuits": "signed circuits and axiom check",
        "nbc": "graded no-broken-circuit sets",
        "poincare": "Poincare polynomial from NBC counts",
        "vg": "filtration, relation verification, presentation dimension",
        "cordovil": "Hilbert series, straightening spot checks, "
                    "leading-form check",
        "rees": "u-relation families, specializations, Hilbert consistency",
        "characters": "graded character decomposition",
        "paper-suite": "run the full verification battery",
    }
    for name, help_text in commands.items():
        sp = sub.add_parser(name, help=help_text)
        add_common(sp)
        if name == "characters":
            sp.add_argument("--group", default="Sn-coordinates",
                            help="group file or 'Sn-coordinates'")
    return p


def _load_source(args) -> Arrangement:
    picked = [x for x in (args.file, args.braid, args.semiorder, args.boolean)
              if x is not None]
    if len(picked) != 1:
        raise InputError("exactly one arrangement source is required "
                         "(--file/--braid/--semiorder/--boolean)")
    if args.file is not None:
        A = load_arrangement(args.file)
        _check_size(A.n, args.nmax)
        return A
    # a generator's form count is known before it builds anything
    if args.braid is not None:
        make, N, forms = braid, args.braid, args.braid * (args.braid - 1) // 2
    elif args.semiorder is not None:
        make, N, forms = semiorder, args.semiorder, args.semiorder * (args.semiorder - 1)
    else:
        make, N, forms = boolean, args.boolean, args.boolean
    if N > 0 and forms > 0:  # any other N is an input error of the generator
        _check_size(forms, args.nmax)
    return make(N)


def _check_size(n: int, nmax: int) -> None:
    if n > nmax:
        raise ResourceBoundError(f"arrangement has {n} > --nmax {nmax} forms")


def _parse_order(A: Arrangement, spec: str | None):
    if spec is None:
        return None
    labels = [s.strip() for s in spec.split(",") if s.strip()]
    if sorted(labels) != sorted(A.labels):
        raise InputError("--order must list every hyperplane label exactly once")
    return tuple(A.form_index(lab) for lab in labels)


def _emit(args, payload: dict, text_lines: list) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def cmd_chambers(args, A, ordering) -> int:
    ch = A.chambers()
    _emit(args, {"arrangement": arrangement_to_json(A),
                 "chambers": list(ch), "count": len(ch)},
          [*ch, f"count: {len(ch)}"])
    return PASS


def cmd_circuits(args, A, ordering) -> int:
    C = circuits_from_arrangement(A)
    report = validate_circuit_axioms(C)
    payload = circuits_to_json(C)
    payload["axioms_ok"] = report.ok
    payload["violations"] = [{"axiom": a, "witness": w} for a, w in report.violations]
    lines = [X.pretty(A.labels) for X in C.circuits]
    lines.append(f"axioms: {'ok' if report.ok else 'VIOLATED'}")
    lines += [f"  axiom ({a}): {w}" for a, w in report.violations]
    _emit(args, payload, lines)
    return PASS if report.ok else FAIL


def cmd_nbc(args, A, ordering) -> int:
    sets = nbc_sets(A, ordering)
    counts = nbc_counts(A, ordering)
    payload = {
        "counts": list(counts),
        "sets": [[A.labels[i] for i in sorted(s)] for s in sets],
    }
    lines = [f"grade {k}: {c}" for k, c in enumerate(counts)]
    lines.append("sets: " + " ".join(
        "{" + ",".join(A.labels[i] for i in sorted(s)) + "}" for s in sets))
    _emit(args, payload, lines)
    return PASS


def cmd_poincare(args, A, ordering) -> int:
    coeffs = nbc_counts(A)
    _emit(args, {"coeffs": list(coeffs), "pretty": format_poincare(coeffs)},
          [format_poincare(coeffs)])
    return PASS


def cmd_vg(args, A, ordering) -> int:
    profile = filtration_profile(A)
    check = verify_relations(A)
    pdim = presentation_dimension(A, nmax=args.nmax)
    rels = vg_relation_families(A)
    gens = ",".join(f"e{lab}" for lab in A.labels)
    ideal = ", ".join(r.poly.to_str(A.labels) for r in rels)
    payload = {
        "dims": list(profile.dims),
        "gr": list(profile.gr_dims),
        "chambers": check.chambers,
        "presentation_dim": pdim,
        "presentation": f"Q[{gens}] / < {ideal} >",
        "relations_ok": check.ok,
    }
    lines = [
        "dims:   " + " ".join(str(d) for d in profile.dims),
        "gr:     " + " ".join(str(g) for g in profile.gr_dims),
        f"chambers: {check.chambers}",
        f"presentation dimension: {pdim}",
        f"presentation: Q[{gens}] / < {ideal} >",
        f"relations vanish and span: {'ok' if check.ok else 'FAILED'}",
    ]
    lines += ["relations:"] + ["  " + r.pretty(A.labels) for r in rels]
    ok = check.ok and pdim == check.chambers
    _emit(args, payload, lines)
    return PASS if ok else FAIL


def cmd_cordovil(args, A, ordering) -> int:
    alg = CordovilAlgebra(A, ordering)
    hs = alg.hilbert_series()
    lead = leading_form_check(A, ordering)
    # spot checks: every degree-2 squarefree monomial straightens idempotently
    spots = []
    spot_ok = True
    from itertools import combinations
    for supp in combinations(range(A.n), min(2, A.n)):
        el = alg.straighten(Poly.monomial(supp))
        again = alg.straighten(el.to_poly())
        if again.coords != el.coords:
            spot_ok = False
        spots.append((supp, el))
    payload = {
        "hilbert": list(hs),
        "pretty": format_poincare(hs),
        "leading_form_ok": lead.ok,
        "leading_signs": [
            {"circuit": X.pretty(A.labels), "sign": s} for X, s in lead.signs],
        "straightening_ok": spot_ok,
    }
    lines = [f"Hilbert series: {format_poincare(hs)}",
             f"straightening spot checks: {'ok' if spot_ok else 'FAILED'}"]
    lines += [f"  x{{{','.join(A.labels[i] for i in supp)}}} -> {el.to_str()}"
              for supp, el in spots[:8]]
    lines.append(f"leading forms: {'ok' if lead.ok else 'MISMATCH'}")
    lines += ["  " + s for s in lead.sign_lines(A.labels)]
    _emit(args, payload, lines)
    return PASS if (lead.ok and spot_ok) else FAIL


def cmd_rees(args, A, ordering) -> int:
    rels = rees_relation_families(A)
    table = rees_hilbert_check(A)
    payload = {
        "relations": [
            {"family": r.family, "source": r.source_str(A.labels),
             "poly": r.poly.to_str(A.labels),
             "terms": r.poly.to_json_terms(A.labels),
             "u0": specialize(r.poly, 0).to_str(A.labels),
             "u1": specialize(r.poly, 1).to_str(A.labels)}
            for r in rels
        ],
        "hilbert_rows": [list(row) for row in table.rows],
        "hilbert_ok": table.ok,
    }
    lines = ["relations (with u = 0 and u = 1 specializations):"]
    for r in rels:
        lines.append("  " + r.pretty(A.labels))
        lines.append(f"      u=0: {specialize(r.poly, 0).to_str(A.labels)}")
        lines.append(f"      u=1: {specialize(r.poly, 1).to_str(A.labels)}")
    lines += table.lines()
    _emit(args, payload, lines)
    return PASS if table.ok else FAIL


def cmd_characters(args, A, ordering) -> int:
    group = load_group(A, args.group)
    gc = graded_character(A, group)
    payload = {
        "group": group.name,
        "classes": list(group.class_labels),
        "class_sizes": list(group.class_sizes),
        "chamber_character": [str(v) for v in gc.chamber_values],
        "grades": [{"character": [str(v) for v in row]} for row in gc.grade_values],
    }
    lines = ["classes:      " + "  ".join(group.class_labels),
             "class sizes:  " + "  ".join(str(s) for s in group.class_sizes)]
    for k, row in enumerate(gc.grade_values):
        lines.append(f"grade {k} char: " + "  ".join(str(v) for v in row))
    lines.append("chamber char: " + "  ".join(str(v) for v in gc.chamber_values))
    if group.cycle_types is not None:
        per_grade, total = gc.decompositions()
        payload["decompositions"] = [
            {partition_str(lam): m for lam, m in d.items() if m} for d in per_grade]
        payload["chamber_decomposition"] = {
            partition_str(lam): m for lam, m in total.items() if m}
        for k, d in enumerate(per_grade):
            body = "  ".join(f"{partition_str(lam)}:{m}" for lam, m in d.items() if m)
            lines.append(f"grade {k}: {body or '0'}")
        body = "  ".join(f"{partition_str(lam)}:{m}" for lam, m in total.items() if m)
        lines.append(f"total:   {body}")
    _emit(args, payload, lines)
    return PASS


def cmd_paper_suite(args) -> int:
    from .acceptance import run_all

    results = run_all()
    if args.json:
        print(json.dumps([{"criterion": r.number, "name": r.name, "ok": r.ok,
                           "detail": r.detail} for r in results], indent=2))
    else:
        for r in results:
            print(r.line())
    return PASS if all(r.ok for r in results) else FAIL


def _run(args) -> int:
    if args.command == "paper-suite":
        return cmd_paper_suite(args)
    A = _load_source(args)
    ordering = _parse_order(A, args.order)
    handler = {
        "chambers": cmd_chambers,
        "circuits": cmd_circuits,
        "nbc": cmd_nbc,
        "poincare": cmd_poincare,
        "vg": cmd_vg,
        "cordovil": cmd_cordovil,
        "rees": cmd_rees,
        "characters": cmd_characters,
    }[args.command]
    return handler(args, A, ordering)


def main(argv=None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left (`arrgr ... | head`); point stdout at devnull so
        # the flush at interpreter exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return BROKEN_PIPE
    except ResourceBoundError as exc:
        print(f"resource bound: {exc}", file=sys.stderr)
        return BOUND
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return BAD_INPUT
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return BAD_INPUT
    except ConsistencyError as exc:
        print(f"consistency error: {exc}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())
