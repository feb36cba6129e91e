"""Error taxonomy shared across the package.

Three failure classes matter to callers and to the CLI exit-code mapping:

* ``InputError`` -- the request itself is malformed or unsupported
  (bad parse, violated precondition, unsupported mathematical input).
* ``TruncationError`` -- a computation needed a series coefficient beyond
  the truncation order of an inexact series.
* ``InsufficientDataError`` -- a detection or search routine was given too
  little data to even attempt its job at the requested budget.

Anything else escaping the library is a bug, not a usage error.
"""

import sys


class InputError(ValueError):
    """Malformed or unsupported input (precondition violation)."""


def digit_limit_error(what: str) -> InputError:
    """``what`` is an integer past the interpreter's int/str conversion limit."""
    return InputError(
        f"{what} has more than {sys.get_int_max_str_digits()} digits, "
        "the interpreter's limit for converting between int and str"
    )


class TruncationError(ArithmeticError):
    """A coefficient beyond the truncation order of an inexact series was needed."""

    def __init__(self, needed: int, order: int, what: str = "series"):
        self.needed = needed
        self.order = order
        super().__init__(
            f"{what} truncated at order {order}, coefficient {needed} required"
        )


class InsufficientDataError(ArithmeticError):
    """Not enough data to run a detection/search at the requested budget."""
