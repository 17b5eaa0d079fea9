"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI: InputError -> 1, ResourceError -> 2,
InternalError -> 3.  Everything else is a bug and also maps to 3.
"""


class DeckIndexError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 3


class InputError(DeckIndexError):
    """Malformed or mathematically inadmissible input (exit code 1)."""

    exit_code = 1


class OrientationError(InputError):
    """No coherent orientation exists (e.g. a non-orientable quotient)."""


class TamenessError(InputError):
    """A map or field fails the tameness precondition of an operation."""


class ResourceError(DeckIndexError):
    """A configured budget would be exceeded (exit code 2).

    The message always names the budget flag or document field, so the
    caller knows which knob to turn.
    """

    exit_code = 2


class InternalError(DeckIndexError):
    """An internal invariant was violated; always a bug (exit code 3)."""
