#!/usr/bin/env python3
"""Broken circuits, NBC bases, and Poincare polynomials.

The no-broken-circuit sets grade a basis of the algebra associated with the
arrangement; their counts satisfy the classical deletion-restriction
recursion and a coning factorization.
"""

from arrgr import (boolean, braid, cone, delete, restrict, semiorder,
                   broken_circuits, format_poincare, nbc_counts, nbc_sets)

A = braid(3)
bc = broken_circuits(A)
print("braid(3) broken circuits:",
      [sorted(A.labels[i] for i in b) for b in bc])
print("NBC sets by grade:", nbc_counts(A), "=",
      [sorted(sorted(A.labels[i] for i in s) for s in nbc_sets(A)
              if len(s) == k) for k in range(3)])
print("Poincare polynomial:", format_poincare(nbc_counts(A)), "\n")

# The counts never depend on which ordering of the hyperplanes is used.
print("reversed ordering gives the same counts:",
      nbc_counts(A, ordering=(2, 1, 0)) == nbc_counts(A), "\n")

for name, arr in [("braid(4)", braid(4)), ("semiorder(3)", semiorder(3)),
                  ("boolean(3)", boolean(3))]:
    print(f"{name}: {format_poincare(nbc_counts(arr))}")

# Deletion-restriction: Poin(A) = Poin(A') + t^2 Poin(A'').
B = braid(4)
for lab in B.labels[:2]:
    left = nbc_counts(B)
    d = nbc_counts(delete(B, lab))
    r = nbc_counts(restrict(B, lab))
    print(f"\ndelete/restrict at {lab}:")
    print("  ", format_poincare(left), "=",
          f"[{format_poincare(d)}] + t^2 [{format_poincare(r)}]")

# Coning multiplies the Poincare polynomial by (1 + t^2).
S = semiorder(3)
print("\nsemiorder(3):", format_poincare(nbc_counts(S)))
print("cone(semiorder(3)):", format_poincare(nbc_counts(cone(S))))
