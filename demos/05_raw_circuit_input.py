#!/usr/bin/env python3
"""Working from signed circuits alone, without an arrangement.

A loop-free central oriented matroid can be handed over as a ground set
plus signed circuits; negations may be left out of the file and are
completed automatically.  The graded algebra and its NBC machinery work
unchanged on that input.
"""

import json
import os
import tempfile

from arrgr import (CordovilAlgebra, Poly, broken_circuits, circuits_from_json,
                   load_circuits, nbc_counts, validate_circuit_axioms)

# the circuit system of three concurrent lines, one orientation per pair;
# the opposite orientations are implied
data = {
    "ground": ["a", "b", "c"],
    "circuits": [{"plus": ["a", "c"], "minus": ["b"]}],
}
C = circuits_from_json(data)
print("ground:", C.ground)
print("circuits after negation completion:",
      [X.pretty(C.ground) for X in C.circuits])
print("axioms:", "pass" if validate_circuit_axioms(C).ok else "fail", "\n")

print("broken circuits:", [sorted(C.ground[i] for i in b) for b in broken_circuits(C)])
print("NBC counts:", nbc_counts(C))

alg = CordovilAlgebra(C)
print("Hilbert series:", alg.hilbert_series())
el = alg.straighten(Poly.monomial((0, 1)))  # x_a x_b contains the broken circuit
print("straighten(xa*xb) =", el.to_str())

# the same data round-trips through a file
with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
    json.dump(data, fh)
    path = fh.name
try:
    print("\nreloaded from file equals in-memory system:",
          load_circuits(path) == C)
finally:
    os.remove(path)
