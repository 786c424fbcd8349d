"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: UsageError -> 1, DataError -> 2,
NumericalError -> 3, and any other LusoforgeError (ShapeError,
ContractError) -> 2.
"""


class LusoforgeError(Exception):
    pass


class UsageError(LusoforgeError, ValueError):
    """Bad command line or configuration, including an out-of-range setting."""


class DataError(LusoforgeError):
    """Malformed, missing, or degenerate input data."""


class NumericalError(LusoforgeError):
    """Run aborted on a numerical fault (NaN loss/gradient, etc.)."""


class ShapeError(LusoforgeError, ValueError):
    """Tensor shape mismatch; message names both shapes."""


class ContractError(LusoforgeError, RuntimeError):
    """An API was used outside its stated contract (e.g. backward on a
    non-scalar, or re-running backward on a consumed graph)."""


class EmptyLossError(DataError):
    """A loss was requested over zero contributing positions."""
