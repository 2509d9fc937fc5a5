#!/usr/bin/env python3
"""Symmetric-group actions and character decompositions of the filtration.

Coordinate permutations act on the braid and semiorder arrangements; each
filtration layer is a subrepresentation; the character of each graded piece
is an exact trace of one diagonal block of B⁻¹ρ(w)B (B the chamber values of
the filtration basis), decomposed into irreducibles.
"""

from arrgr import (braid, semiorder, coordinate_action, fixed_chambers,
                   graded_character, mn_character, partition_str, partitions)

# Character values straight from the border-strip rule.
print("chi_(2,1) on the classes of S3:",
      {partition_str(mu): mn_character((2, 1), mu) for mu in partitions(3)})

B = braid(4)
G = coordinate_action(B)
gc = graded_character(B, G)
per_grade, total = gc.decompositions()

print("\nbraid(4) under S4 (classes:", ", ".join(G.class_labels) + ")")
for k, d in enumerate(per_grade):
    body = " + ".join(f"{m}x{partition_str(lam)}" if m > 1
                      else partition_str(lam)
                      for lam, m in d.items() if m)
    print(f"  grade {k}: {body}")
print("  chamber character:", tuple(map(int, gc.chamber_values)),
      "(the regular representation)")

S = semiorder(3)
H = coordinate_action(S)
w = H.representatives[H.class_labels.index("(2,1)")]
print(f"\nsemiorder(3): a transposition fixes {fixed_chambers(S, w)}",
      "of the 19 chambers")

gs = graded_character(S, H)
per_grade, total = gs.decompositions()
for k, d in enumerate(per_grade):
    body = " + ".join(f"{m}x{partition_str(lam)}" if m > 1
                      else partition_str(lam)
                      for lam, m in d.items() if m)
    print(f"  grade {k}: {body}")
body = " + ".join(f"{m}x{partition_str(lam)}" for lam, m in total.items() if m)
print("  all chambers:", body)
