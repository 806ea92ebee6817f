"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """A family or operation parameter is out of its admissible range."""


class FloatRangeError(InvalidParameterError):
    """A certificate's Laplacian levels lie past the float range."""


class InvalidInputError(ValueError):
    """Malformed input data: non-symmetric matrix, bad file, dimension mismatch."""


class DegenerateStateError(ValueError):
    """The marked state equals the uniform state, so no search dynamics exist."""


class OrthogonalStateError(ValueError):
    """The marked state has zero overlap with the uniform state."""


class DisconnectedGraphError(ValueError):
    """The Laplacian spectrum has a repeated zero eigenvalue."""


class PoleError(ValueError):
    """The secular function was evaluated at one of its poles."""


class NumericError(RuntimeError):
    """A numeric routine failed to converge or to bracket a root."""
