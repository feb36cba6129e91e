"""Exact linear algebra over the rationals: RREF, rank, nullspace.

All routines work on lists of rows of ``Fraction`` and never introduce
rounding.  The reduced row echelon form is canonical for the row space,
so the nullspace basis returned here is canonical for the solution space:
two constraint systems have equal solution spaces iff these bases match.
``RowEchelon`` grows an echelon basis one row at a time, for callers that
need the rank after every added row rather than once at the end.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)

Matrix = list[list[Fraction]]


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices (input unchanged)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


class RowEchelon:
    """Echelon basis of the span of the rows added so far.

    Each stored row has a leading 1 in its pivot column and zeros before
    it, so a new row is reduced by the stored rows in ascending pivot
    order; what remains is zero iff the row was already in the span.
    """

    def __init__(self) -> None:
        self._rows: dict[int, list[Fraction]] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, row: Sequence[Fraction]) -> None:
        """Add ``row`` to the span (the rank grows iff it was not in it)."""
        v = list(row)
        for p in sorted(self._rows):
            f = v[p]
            if f:
                v = [a - f * b for a, b in zip(v, self._rows[p])]
        lead = next((c for c, x in enumerate(v) if x), None)
        if lead is not None:
            inv = 1 / v[lead]
            self._rows[lead] = [x * inv for x in v]


def rank(rows: Matrix) -> int:
    return len(rref(rows)[1])


def nullspace(rows: Matrix, ncols: int) -> list[tuple[Fraction, ...]]:
    """Canonical basis of the right nullspace of the matrix.

    With no constraint rows the answer is the standard basis.  Each basis
    vector carries a 1 in its free coordinate and zeros in the other free
    coordinates, which makes the basis unique given the solution space.
    """
    if ncols == 0:
        return []
    reduced, pivots = rref([r for r in rows if any(r)])
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [_ZERO] * ncols
        vec[f] = _ONE
        for i, p in enumerate(pivots):
            vec[p] = -reduced[i][f]
        basis.append(tuple(vec))
    return basis
