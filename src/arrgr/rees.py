"""The one-parameter deformation of the Heaviside presentation.

Adjoining the degree-2 parameter u deforms the three relation families so
that u = 1 recovers the chamber-function presentation and u = 0 recovers
the graded algebra's relations.  The u-families are the primary data:
`rees_relation_families` (built in `vgring`, next to the relation type) is
the only builder of families (1)-(3), and the chamber-function families are
defined as its u = 1 specialization.  The graded families are built
independently in `cordovil`, so comparing them with the u = 0
specialization is a real check.  The deformed object itself is verified
through these two specializations plus the freeness identity
dim P^k = sum of the NBC counts up to grade k.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arrangement import Arrangement
from .circuits import nbc_counts
from .errors import InputError
from .polyring import Poly
from .vgring import filtration_profile, rees_relation_families  # re-exported


def specialize(poly: Poly, u_value) -> Poly:
    """Substitute u = 0 or u = 1."""
    if u_value not in (0, 1):
        raise InputError("specialization point must be 0 or 1")
    return poly.substitute_u(u_value)


@dataclass(frozen=True)
class ReesHilbertReport:
    """Rows (k, dim P^k, partial NBC sum); ok iff every row agrees."""

    rows: tuple
    ok: bool

    def lines(self):
        out = ["  k   dim P^k   sum NBC_<=k"]
        for k, d, s in self.rows:
            mark = "" if d == s else "   MISMATCH"
            out.append(f"  {k:<3} {d:<9} {s}{mark}")
        return out


def rees_hilbert_check(A: Arrangement) -> ReesHilbertReport:
    """Freeness forces dim P^k to equal the NBC counts accumulated up to
    grade k; report the whole table.  The NBC counts do not depend on the
    hyperplane ordering, so the default one is read."""
    dims = filtration_profile(A).dims
    counts = nbc_counts(A)
    rows = []
    ok = True
    for k, d in enumerate(dims):
        partial = sum(counts[: k + 1])
        rows.append((k, d, partial))
        ok = ok and d == partial
    return ReesHilbertReport(tuple(rows), ok)
