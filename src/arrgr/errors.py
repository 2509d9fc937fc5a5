"""Exception types shared across the toolkit."""


class InputError(ValueError):
    """Invalid user-supplied data: bad forms, indices, files or sizes."""


class DuplicateFormError(InputError):
    """Two forms describe the same hyperplane: one is a nonzero (possibly
    negative) multiple of the other.  The message names the least such
    pair (i, j) in lexicographic order."""


class NotASymmetryError(InputError):
    """An affine map does not permute the arrangement's hyperplanes."""


class NotACharacterError(InputError):
    """A class function has a negative or non-integer irreducible multiplicity."""


class ResourceBoundError(RuntimeError):
    """A computation exceeds the configured size bound."""


class ConsistencyError(RuntimeError):
    """Internal invariant violated; indicates a bug, not bad input."""
