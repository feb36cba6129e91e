"""Exact linear algebra over the rationals: one incremental row echelon.

All routines work on lists of rows of ``int`` or ``Fraction`` (the two
mix through the numeric tower) and never introduce rounding.
``RowEchelon`` is the one elimination of the Gram, recurrence and
singular-vector routes (``rootsys`` keeps its own pivot-sign test for
positive definiteness): it grows an echelon basis one row at a time, so
callers can read the rank and the pivot columns after every added row,
back-substitutes its rows on demand to the reduced row echelon form
(``Fraction`` entries) and reads the kernel off that form, with no second
elimination.  It stores one row form, fraction-free as in Bareiss: a row
holding a ``Fraction`` is cleared by the lcm of its denominators on
arrival, which keeps its span, and every stored row is a primitive
``int`` row.  Back-substitution is fraction-free too, on new ``int``
rows, and each entry is divided by its row's pivot once, at the end.
``rref``, ``rank`` and ``nullspace`` feed a whole matrix through it.  The
reduced form is canonical for the row space, so the kernel basis is
canonical for the solution space: two constraint systems have equal
solution spaces iff these bases match.  Nothing here works mod a prime:
the recurrence scan's modular bound is a Berlekamp-Massey profile in
``recurrence``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from .rational import _cleared, _primitive

_ZERO = Fraction(0)
_ONE = Fraction(1)

Matrix = list[list[int | Fraction]]


class RowEchelon:
    """Echelon basis of the span of the rows added so far.

    Each stored row is a primitive ``int`` row with a positive lead and
    zeros before its pivot column.  A new row, its denominators cleared, is
    reduced by the stored rows in ascending pivot order, by ``lead*a - f*b``;
    what remains is zero iff the row was already in the span.
    """

    def __init__(self) -> None:
        self._rows: dict[int, list[int]] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> list[int]:
        """Sorted pivot columns of the rows added so far (no back-substitution)."""
        return sorted(self._rows)

    def add(self, row: Sequence[int | Fraction]) -> None:
        """Add ``row`` to the span (the rank grows iff it was not in it)."""
        v = list(row)
        if any(type(x) is not int for x in v):  # clear denominators: same span
            v = _cleared(v)[1]
        v = _clear(v, sorted(self._rows.items()))
        if (lead := next((c for c, x in enumerate(v) if x), None)) is not None:
            g = gcd(*v) if v[lead] > 0 else -gcd(*v)
            self._rows[lead] = [x // g for x in v]

    def reduced(self) -> tuple[Matrix, list[int]]:
        """Reduced row echelon form of the span and its pivot columns.

        Back-substitutes fraction-free, from the last pivot up: each stored
        row is cleared at every later pivot by the rows already reduced, by
        ``lead*a - f*b`` as in ``add``, and divided by its content.  Each
        row is divided by its pivot entry once, at the end: one division
        per entry.  New lists throughout: the stored rows stay as ``add``
        wrote them.
        """
        pivots = self.pivots
        done: list[tuple[int, list[int]]] = []  # the reduced rows below p
        for p in reversed(pivots):
            done.insert(0, (p, _primitive(_clear(self._rows[p], done))))
        return [[Fraction(x, row[p]) for x in row] for p, row in done], pivots

    def kernel(self, ncols: int) -> list[tuple[Fraction, ...]]:
        """Canonical basis of the vectors of length ``ncols`` that every row kills.

        One vector per free column f, with a 1 there and zeros in the other
        free columns, read off ``reduced()``; at full column rank the
        kernel is empty.  The 1 at f is the last nonzero entry, since a
        reduced row pivoting after f is zero at f.
        """
        if self.rank == ncols:
            return []
        reduced, pivots = self.reduced()
        basis = []
        for f in sorted(set(range(ncols)) - set(pivots)):
            vec = [_ZERO] * ncols
            vec[f] = _ONE
            for row, p in zip(reduced, pivots):
                vec[p] = -row[f]
            basis.append(tuple(vec))
        return basis


def _clear(v: list[int], rows: list[tuple[int, list[int]]]) -> list[int]:
    """``v`` cleared at the pivot p of each (p, row), by ``lead*a - f*b``.

    Echelon rows in ascending pivot order are zero before p, and reduced
    rows are zero at every other pivot: either way, clearing one pivot
    column never refills one cleared before it."""
    for p, row in rows:
        if f := v[p]:
            lead = row[p]
            v = [lead * a - f * b for a, b in zip(v, row)]
    return v


def _echelon(rows: Matrix) -> RowEchelon:
    echelon = RowEchelon()
    for row in rows:
        echelon.add(row)
    return echelon


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices (input unchanged)."""
    return _echelon(rows).reduced()


def rank(rows: Matrix) -> int:
    return _echelon(rows).rank


def nullspace(rows: Matrix, ncols: int) -> list[tuple[Fraction, ...]]:
    """Canonical basis of the right nullspace (``RowEchelon.kernel``).

    With no constraint rows the answer is the standard basis.
    """
    return _echelon(rows).kernel(ncols)
