#!/usr/bin/env python3
"""Chambers, deletion/restriction, coning, and signed circuits.

Everything below is computed exactly over Q. Run as a script to follow
along; each block prints what it found.
"""

from arrgr import (Arrangement, braid, cone, delete, restrict_with_map,
                   semiorder, circuits_from_arrangement,
                   validate_circuit_axioms)

# A hyperplane arrangement is a list of labelled affine forms. The braid
# arrangement on 3 coordinates has the three forms x_i - x_j.
A = braid(3)
print(f"braid(3): {A.n} hyperplanes in Q^{A.dim}")

# Chambers are the sign vectors realized by points off every hyperplane,
# found by exact Fourier-Motzkin feasibility with pruning.
print("chambers:", " ".join(A.chambers()))
print("(6 chambers = 3! orderings of three values)\n")

# Deleting a hyperplane and restricting to it splits the chamber count.
d = delete(A, "12")
r, provenance = restrict_with_map(A, "12")
print(f"delete 12: {len(d.chambers())} chambers;",
      f"restrict to 12: {len(r.chambers())} chambers;",
      f"together: {len(A.chambers())}")
print("restriction collapsed forms:", provenance, "\n")

# Coning makes an affine arrangement central in one higher dimension by
# appending the hyperplane -r, labelled H0. Chamber counts double.
S = semiorder(2)
print(f"semiorder(2) has {len(S.chambers())} chambers;",
      f"cone(semiorder(2)) has {len(cone(S).chambers())}")

# Signed circuits record the minimal infeasible sign patterns supported on
# flat-nonempty dependent sets; they come in opposite pairs.
C = circuits_from_arrangement(A)
print("\nbraid(3) circuits:", [X.pretty(A.labels) for X in C.circuits])
report = validate_circuit_axioms(C)
print("circuit axioms:", "all pass" if report.ok else report.violations)

# A custom arrangement: three generic lines in the plane.
G = Arrangement(2, [((1, 0), 0), ((0, 1), 0), ((1, 1), -1)], ["a", "b", "c"])
print(f"\ngeneric 3 lines: {len(G.chambers())} chambers,",
      f"{len(circuits_from_arrangement(G).circuits)} circuits",
      "(the triple intersection is empty, so no circuit forms)")
