"""Per-layer tracing from outside the library.

`Tracer.install` replaces public functions and methods of the arrgr modules
with timing wrappers, in every arrgr namespace that holds them (so calls
between modules are seen too) and in tuples such as the acceptance
battery's ALL_CRITERIA.  Nothing under src/ is edited.  A layer may cover
several functions; a call into a layer that is already open is part of the
open span, so nested or recursive calls are not counted twice.

Each span adds its duration to its parent's child time; a layer's self time
is its spans' durations minus their child time.  Counters are kept per
layer, per (enclosing layer, layer) pair and per layer outcome, in memory,
and `snapshot` returns them as plain JSON data.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict

# layer -> (module, attribute) targets; "Class.method" patches the class.
LAYERS = {
    "linalg.strict_feasible": [("arrgr.linalg", "strict_feasible")],
    "linalg.rank": [("arrgr.linalg", "rank"), ("arrgr.linalg", "rank_and_kernel"),
                    ("arrgr.linalg", "affine_system_consistent")],
    "linalg.solve_square": [("arrgr.linalg", "solve_square")],
    "linalg.SparseEchelon.add": [("arrgr.linalg", "SparseEchelon.add")],
    "arrangement.chambers": [("arrgr.arrangement", "Arrangement.chambers")],
    "arrangement.minimal_infeasible_sign_sets": [
        ("arrgr.arrangement", "Arrangement.minimal_infeasible_sign_sets")],
    "arrangement.flat_nonempty": [("arrgr.arrangement", "Arrangement.flat_nonempty")],
    "circuits.circuits_from_arrangement": [("arrgr.circuits", "circuits_from_arrangement")],
    "circuits.validate_circuit_axioms": [("arrgr.circuits", "validate_circuit_axioms")],
    "circuits.nbc_sets": [("arrgr.circuits", "nbc_sets")],
    "vgring.filtration_profile": [("arrgr.vgring", "filtration_profile")],
    "vgring.verify_relations": [("arrgr.vgring", "verify_relations")],
    "vgring.presentation_dimension": [("arrgr.vgring", "presentation_dimension")],
    "cordovil.CordovilAlgebra": [("arrgr.cordovil", "CordovilAlgebra.__init__")],
    "cordovil.straighten": [("arrgr.cordovil", "CordovilAlgebra.straighten")],
    "cordovil.multiply": [("arrgr.cordovil", "CordovilAlgebra.multiply")],
    "cordovil.leading_form_check": [("arrgr.cordovil", "leading_form_check")],
    "rees.rees_relation_families": [("arrgr.rees", "rees_relation_families")],
    "rees.rees_hilbert_check": [("arrgr.rees", "rees_hilbert_check")],
    "symmetry.coordinate_action": [("arrgr.symmetry", "coordinate_action")],
    "symmetry.graded_character": [("arrgr.symmetry", "graded_character")],
    "symmetry.chamber_permutation": [("arrgr.symmetry", "chamber_permutation")],
    "characters.decompose_character": [("arrgr.characters", "decompose_character")],
    "polyring.Poly.mul": [("arrgr.polyring", "Poly.__mul__")],
    **{f"acceptance.criterion_{k}": [("arrgr.acceptance", f"criterion_{k}")]
       for k in range(1, 10)},
}

# Layers whose distinct results are sized (sets found, chambers enumerated);
# a cached answer is the same object, so it is counted once.
SIZED = ("arrangement.chambers", "arrangement.minimal_infeasible_sign_sets",
         "circuits.nbc_sets")
TRUTHS = ("arrangement.flat_nonempty",)

_CORE = ("linalg.strict_feasible", "linalg.rank", "linalg.SparseEchelon.add",
         "arrangement.chambers", "arrangement.flat_nonempty",
         "circuits.circuits_from_arrangement", "circuits.nbc_sets", "polyring.Poly.mul")
_CENSUS = _CORE + ("arrangement.minimal_infeasible_sign_sets",
                   "circuits.validate_circuit_axioms", "vgring.filtration_profile",
                   "vgring.verify_relations", "vgring.presentation_dimension",
                   "rees.rees_relation_families", "rees.rees_hilbert_check")
_CORDOVIL = ("cordovil.CordovilAlgebra", "cordovil.straighten")
_CHARACTERS = ("linalg.solve_square", "symmetry.coordinate_action",
               "symmetry.graded_character", "symmetry.chamber_permutation",
               "characters.decompose_character")

# The traced-run self-check: layers that must fire on a workload, and the
# layers a workload is built to leave alone.
MUST_FIRE = {
    "affine-census": _CENSUS,
    "central-scale": _CENSUS + _CORDOVIL,
    "symmetric-characters": _CORE + _CORDOVIL + _CHARACTERS
    + ("cordovil.multiply", "cordovil.leading_form_check"),
    "paper-suite": tuple(x for x in _CENSUS if x != "vgring.verify_relations")
    + _CORDOVIL + _CHARACTERS + ("cordovil.multiply", "cordovil.leading_form_check")
    + tuple(f"acceptance.criterion_{k}" for k in range(1, 10)),
}
MUST_NOT_FIRE = {
    "affine-census": _CHARACTERS,
    "central-scale": _CHARACTERS,
    "symmetric-characters": ("arrangement.minimal_infeasible_sign_sets",),
    "paper-suite": (),
}

# (name, unit, better) of every per-layer metric, in report order.
METRICS = [
    ("linalg.strict_feasible.calls", "count", "lower"),
    ("linalg.strict_feasible.s", "s", "lower"),
    ("linalg.rank.calls", "count", "lower"),
    ("linalg.rank.s", "s", "lower"),
    ("linalg.solve_square.calls", "count", "lower"),
    ("linalg.solve_square.s", "s", "lower"),
    ("linalg.SparseEchelon.add.calls", "count", "lower"),
    ("linalg.SparseEchelon.add.s", "s", "lower"),
    ("arrangement.chambers.s", "s", "lower"),
    ("arrangement.chambers.fm_per_chamber", "calls/chamber", "lower"),
    ("arrangement.minimal_infeasible_sign_sets.s", "s", "lower"),
    ("arrangement.minimal_infeasible_sign_sets.fm_calls", "count", "lower"),
    ("arrangement.minimal_infeasible_sign_sets.yield", "sets/call", "higher"),
    ("arrangement.flat_nonempty.calls", "count", "lower"),
    ("arrangement.flat_nonempty.true_ratio", "ratio", "higher"),
    ("circuits.circuits_from_arrangement.s", "s", "lower"),
    ("circuits.circuits_from_arrangement.fail", "count", "lower"),
    ("circuits.validate_circuit_axioms.s", "s", "lower"),
    ("circuits.nbc_sets.s", "s", "lower"),
    ("circuits.nbc_sets.yield", "sets/call", "higher"),
    ("vgring.filtration_profile.s", "s", "lower"),
    ("vgring.verify_relations.s", "s", "lower"),
    ("vgring.presentation_dimension.s", "s", "lower"),
    ("vgring.presentation_dimension.echelon_adds", "count", "lower"),
    ("cordovil.CordovilAlgebra.s", "s", "lower"),
    ("cordovil.straighten.calls", "count", "lower"),
    ("cordovil.straighten.s", "s", "lower"),
    ("cordovil.multiply.calls", "count", "lower"),
    ("cordovil.multiply.s", "s", "lower"),
    ("cordovil.leading_form_check.s", "s", "lower"),
    ("rees.rees_relation_families.s", "s", "lower"),
    ("rees.rees_hilbert_check.s", "s", "lower"),
    ("symmetry.coordinate_action.s", "s", "lower"),
    ("symmetry.graded_character.s", "s", "lower"),
    ("symmetry.chamber_permutation.calls", "count", "lower"),
    ("characters.decompose_character.s", "s", "lower"),
    ("polyring.Poly.mul.calls", "count", "lower"),
    *[(f"acceptance.criterion_{k}.s", "s", "lower") for k in range(1, 10)],
    ("cli.import.s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


class Tracer:
    def __init__(self):
        self.missing: list = []
        self.stack: list = []                 # open spans: [layer, child seconds]
        self.calls: Counter = Counter()
        self.fails: Counter = Counter()
        self.trues: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.within: Counter = Counter()      # (enclosing layer, layer) -> calls
        self.results: defaultdict = defaultdict(dict)   # layer -> {id: result}

    def wrap(self, layer: str, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self.stack
            if any(frame[0] == layer for frame in stack):
                return fn(*args, **kwargs)
            for frame in stack:
                self.within[frame[0], layer] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.fails[layer] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                self.calls[layer] += 1
                self.self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if layer in SIZED:
                self.results[layer][id(result)] = result
            elif layer in TRUTHS and result is True:
                self.trues[layer] += 1
            return result

        return traced

    def install(self) -> None:
        """Wrap every LAYERS target wherever an arrgr module holds it."""
        for module_name in {m for targets in LAYERS.values() for m, _ in targets}:
            importlib.import_module(module_name)
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "arrgr" or name.startswith("arrgr."))]
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                owner = sys.modules.get(module_name)
                *cls_path, name = attr.split(".")
                for part in cls_path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, name, None) if owner is not None else None
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                wrapper = self.wrap(layer, original)
                for namespace in [owner] if cls_path else modules:
                    for key, value in list(vars(namespace).items()):
                        if value is original:      # also aliases such as __rmul__
                            setattr(namespace, key, wrapper)
                        elif isinstance(value, tuple) and original in value:
                            setattr(namespace, key, tuple(wrapper if v is original else v
                                                          for v in value))

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "fails": dict(self.fails),
            "trues": dict(self.trues),
            "self_s": dict(self.self_s),
            "within": {f"{a}|{b}": n for (a, b), n in self.within.items()},
            "found": {layer: sum(len(r) for r in found.values())
                      for layer, found in self.results.items()},
            "missing": list(self.missing),
        }


def merge(snapshots: list) -> dict:
    """One snapshot of a pass from the snapshots of its jobs."""
    keys = ("calls", "fails", "trues", "self_s", "within", "found")
    total = {key: Counter() for key in keys}
    for snap in snapshots:
        for key in keys:
            total[key].update(snap[key])
    return {**{key: dict(c) for key, c in total.items()},
            "missing": sorted({m for snap in snapshots for m in snap["missing"]})}


def layer_metrics(snapshots: list) -> dict:
    """Per-layer metrics from the snapshots of a run's traced passes: self
    times are medians over passes, counts and ratios come from the first
    pass (every pass runs the same inputs)."""
    first = snapshots[0]
    calls, within, found = first["calls"], first["within"], first["found"]

    def self_s(layer):
        return statistics.median(s["self_s"].get(layer, 0.0) for s in snapshots)

    def inside(outer, layer):
        return within.get(f"{outer}|{layer}", 0)

    fm_chambers = inside("arrangement.chambers", "linalg.strict_feasible")
    fm_mis = inside("arrangement.minimal_infeasible_sign_sets", "linalg.strict_feasible")
    chambers = found.get("arrangement.chambers", 0)
    flat_calls = calls.get("arrangement.flat_nonempty", 0)
    out = {}
    for name, _, _ in METRICS:
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = calls.get(layer, 0)
        elif kind == "s" and layer in LAYERS:
            out[name] = self_s(layer)
    out.update({
        "arrangement.chambers.fm_per_chamber": fm_chambers / chambers if chambers else 0.0,
        "arrangement.minimal_infeasible_sign_sets.fm_calls": fm_mis,
        "arrangement.minimal_infeasible_sign_sets.yield":
            found.get("arrangement.minimal_infeasible_sign_sets", 0) / max(1, fm_mis),
        "arrangement.flat_nonempty.true_ratio":
            first["trues"].get("arrangement.flat_nonempty", 0) / flat_calls
            if flat_calls else 0.0,
        "circuits.circuits_from_arrangement.fail":
            first["fails"].get("circuits.circuits_from_arrangement", 0),
        "circuits.nbc_sets.yield": found.get("circuits.nbc_sets", 0)
            / max(1, inside("circuits.nbc_sets", "arrangement.flat_nonempty")),
        "vgring.presentation_dimension.echelon_adds":
            inside("vgring.presentation_dimension", "linalg.SparseEchelon.add"),
    })
    return out


def self_check(workload: str, snapshots: list) -> list:
    """Problems with the trace itself: missing targets, layers that did not
    fire where they must, layers that fired where they must not."""
    first = snapshots[0]
    calls = first["calls"]
    problems = [f"trace target missing: {t}" for t in first["missing"]]
    problems += [f"layer {layer} did not fire" for layer in MUST_FIRE[workload]
                 if not calls.get(layer)]
    problems += [f"layer {layer} fired {calls[layer]} times" for layer in
                 MUST_NOT_FIRE[workload] if calls.get(layer)]
    return problems
