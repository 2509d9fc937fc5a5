"""Cross-checks against the intersection poset.

The region count of a real arrangement is the sum of absolute Mobius
values over the poset of nonempty flats, and the graded NBC counts are the
unsigned Whitney numbers.  Neither fact is used anywhere in the library:
this oracle is pure poset combinatorics on exactly-computed flats, so it
independently certifies both the feasibility-based chamber enumeration and
the broken-circuit machinery.  Its flats are reduced with the Fraction
elimination `fraction_rref_oracle`, not with the library's integer `rref`,
and the same elimination decides which flats are empty (the library reads
that off its circuit scan).
"""

from itertools import combinations

from arrgr.arrangement import cone
from arrgr.circuits import nbc_counts
from test_linalg import fraction_rref_oracle


def rank(rows):
    return len(fraction_rref_oracle(rows)[1])


def intersection_poset(A):
    """Distinct nonempty flats as canonical RREF row sets, with their
    codimensions.  The ambient space is the empty row set."""
    flats = {}
    for size in range(A.n + 1):
        for supp in combinations(range(A.n), size):
            rows = [list(A.forms[i].linear) + [-A.forms[i].constant]
                    for i in supp]
            red, pivots = fraction_rref_oracle(rows)
            if A.dim in pivots:  # a row 0 = 1: the flat is empty
                continue
            key = tuple(tuple(r) for r in red if any(r))
            flats.setdefault(key, len(pivots))
    return flats


def _contains(small_key, big_key):
    """Flat(small) contains flat(big): small's equations hold on big."""
    big = [list(r) for r in big_key]
    if not small_key:
        return True
    joined = big + [list(r) for r in small_key]
    return rank(joined) == rank(big)


def mobius_values(flats):
    """mu(ambient, X) for every flat X, by the defining recursion."""
    order = sorted(flats.items(), key=lambda kv: kv[1])
    mu = {}
    for key, _ in order:
        below = [k for k, _ in order
                 if k != key and _contains(k, key)]
        mu[key] = 1 if not below else -sum(mu[k] for k in below)
    return mu


def test_region_counts_match_zaslavsky(corpus_map):
    for name, A in corpus_map.items():
        flats = intersection_poset(A)
        mu = mobius_values(flats)
        regions = sum(abs(v) for v in mu.values())
        assert regions == len(A.chambers()), name


def test_nbc_counts_match_whitney_numbers(corpus_map):
    for name, A in corpus_map.items():
        flats = intersection_poset(A)
        mu = mobius_values(flats)
        top = max(flats.values())
        whitney = [0] * (top + 1)
        for key, codim in flats.items():
            whitney[codim] += abs(mu[key])
        counts = list(nbc_counts(A)) + [0] * (top + 1 - len(nbc_counts(A)))
        assert whitney == counts, name


def test_oracle_also_holds_on_cones(corpus_map):
    for name in ("parallel", "semiorder2", "generic3"):
        A = cone(corpus_map[name])
        flats = intersection_poset(A)
        mu = mobius_values(flats)
        assert sum(abs(v) for v in mu.values()) == len(A.chambers()), name
