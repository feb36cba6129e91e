"""Error taxonomy and the record decorator shared across the package.

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
from operator import attrgetter


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

    def __init__(self, needed: int, order: int):
        self.needed = needed
        self.order = order
        super().__init__(f"series truncated at order {order}, coefficient {needed} required")


class InsufficientDataError(ArithmeticError):
    """Not enough data to run a detection/search at the requested budget."""


def _record(cls):
    """Make ``cls`` a frozen record of its annotated fields, as ``dataclass`` would.

    From closures, not generated source: ``__init__`` (fields by position or
    keyword, class attributes as defaults) and the ``Cls(field=value, ...)``
    repr unless ``cls`` has its own, same-class equality, the field-tuple
    hash, and ``AttributeError`` on setting or deleting any attribute."""
    names = tuple(cls.__annotations__)
    defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}
    get = attrgetter(*names)
    fields = get if len(names) > 1 else lambda self: (get(self),)

    def __init__(self, *args, **kwargs):
        if args:  # a field given twice raises TypeError here
            kwargs = dict(**dict(zip(names, args)), **kwargs)
        values = {**defaults, **kwargs}
        if len(args) > len(names) or values.keys() != set(names):
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(names)}")
        self.__dict__.update(values)

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        return fields(self) == fields(other) if type(other) is type(self) else NotImplemented

    def __setattr__(self, name, *value):
        raise AttributeError(f"{cls.__name__} is immutable: cannot set or delete {name!r}")

    cls.__init__ = vars(cls).get("__init__", __init__)
    cls.__repr__ = vars(cls).get("__repr__", __repr__)
    cls.__eq__, cls.__hash__ = __eq__, lambda self: hash(fields(self))
    cls.__setattr__ = cls.__delattr__ = __setattr__
    return cls
