"""Exact combinatorics of rational hyperplane arrangements.

Chambers and signed circuits, no-broken-circuit bases, the Heaviside
(degree) filtration on locally constant functions, its graded algebra with
a straightening normal form, the one-parameter deformation tying the two
presentations together, and character decompositions under finite
symmetry groups.  Every computation is exact over Q.
"""

from .arrangement import (AffineForm, Arrangement, arrangement_from_json,
                          arrangement_to_json, boolean, braid, cone, delete,
                          load_arrangement, restrict, restrict_with_map,
                          save_arrangement, semiorder)
from .characters import (class_size, cycle_type, decompose_character,
                         mn_character, partition_str, partitions,
                         sn_character_table)
from .circuits import (AxiomReport, CircuitSet, SignedSet, broken_circuits,
                       canonical_circuits, circuits_from_arrangement,
                       circuits_from_json, circuits_to_json, load_circuits,
                       nbc_counts, nbc_sets, validate_circuit_axioms)
from .cordovil import (AlgebraElement, CordovilAlgebra, circuit_boundary,
                       cordovil_relation_families, leading_form_check,
                       minimal_empty_flat_subsets)
from .errors import (ConsistencyError, DuplicateFormError, InputError,
                     NotACharacterError, NotASymmetryError,
                     ResourceBoundError)
from .linalg import rank_and_kernel, strict_feasible
from .polyring import Poly, format_poincare
from .rees import rees_hilbert_check, rees_relation_families, specialize
from .symmetry import (GradedCharacters, GroupSpec, SignedPermutation,
                       chamber_permutation, coordinate_action, fixed_chambers,
                       graded_character, group_from_json, load_group)
from .vgring import (FiltrationProfile, Relation, filtration_profile,
                     heaviside, monomial_eval, presentation_dimension,
                     vg_relation_families, verify_relations)

__version__ = "0.1.0"
