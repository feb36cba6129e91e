"""Finite root systems from Cartan matrices, and PBW spanning counts.

A valid generalized Cartan matrix has 2 on the diagonal, nonpositive
integers off it, with A[i][j] = 0 iff A[j][i] = 0; it must additionally be
symmetrizable here: positive coprime integers d_i with d_i A[i][j] =
d_j A[j][i] are computed by propagating ratios along the Coxeter graph.

Positive roots are generated level by level using root strings: for a
root alpha of height h and a simple root alpha_i, the string through
alpha in direction alpha_i satisfies q = p - <alpha, alpha_i^vee> with
p the depth of the string below alpha, and alpha + alpha_i is a root iff
q >= 1.  Here <alpha, alpha_i^vee> = sum_j alpha_j A[i][j], and p is
carried from alpha - alpha_i, one height lower, instead of walking the
string.  Before any root is generated, the matrix must be of finite
type: diag(d) A is then positive definite, so every pivot of its exact
elimination is positive.  On any other matrix the strings never stop,
so it is rejected up front.

``spanning_count`` counts the ordered PBW monomials in the negative root
vectors f_alpha^(r) available below a polynomial highest weight: the pair
(alpha, r) is admissible when r < sum_i [alpha : alpha_i] p_i, and a
weight-space spanning set at content eta is the set of multisets of
admissible pairs with total simple-root content eta.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, Optional, Sequence

from .errors import InputError, digit_limit_error, _record
from .rational import _primitive_ints

CartanMatrix = tuple[tuple[int, ...], ...]
_MAX_RANK = 100  # A100 has 5050 positive roots; the root count grows as rank^2


def _as_matrix(a: Iterable[Iterable[int]]) -> CartanMatrix:
    try:
        rows = tuple(tuple(row) for row in a)
    except TypeError:
        raise InputError("Cartan matrix must be a sequence of rows") from None
    n = len(rows)
    if n > _MAX_RANK:
        raise InputError(f"Cartan rank {n} is above the cap of {_MAX_RANK}")
    if n == 0 or any(len(r) != n for r in rows):
        raise InputError("Cartan matrix must be square and nonempty")
    if not all(isinstance(x, int) and not isinstance(x, bool) for r in rows for x in r):
        raise InputError("Cartan matrix entries must be integers")
    return rows


def validate_cartan(a: Iterable[Iterable[int]]) -> CartanMatrix:
    """Check the generalized Cartan matrix axioms; returns the normalized tuple."""
    rows = _as_matrix(a)
    n = len(rows)
    for i in range(n):
        if rows[i][i] != 2:
            raise InputError(f"diagonal entry A[{i}][{i}] must be 2")
        for j in range(n):
            if i != j:
                if rows[i][j] > 0:
                    raise InputError(f"off-diagonal A[{i}][{j}] must be <= 0")
                if (rows[i][j] == 0) != (rows[j][i] == 0):
                    raise InputError(
                        f"zero pattern must be symmetric at ({i},{j})"
                    )
    return rows


@_record
class CartanData:
    """A validated Cartan matrix with its minimal positive symmetrizers."""

    matrix: CartanMatrix
    d: tuple[int, ...]

    @classmethod
    def from_matrix(cls, a: Iterable[Iterable[int]]) -> "CartanData":
        """Validate ``a`` and solve d_i A[i][j] = d_j A[j][i] for positive coprime d.

        Ratios are forced along edges of the Coxeter graph, so each connected
        component has a unique minimal solution.  Every edge is checked from
        both of its ends, so an inconsistent cycle (a matrix that is not
        symmetrizable) is rejected.
        """
        rows = validate_cartan(a)
        n = len(rows)
        d: list[Optional[Fraction | int]] = [None] * n
        for start in range(n):
            if d[start] is not None:
                continue
            d[start] = Fraction(1)
            queue = [start]
            component = [start]
            while queue:
                i = queue.pop()
                for j in range(n):
                    if i == j or rows[i][j] == 0:
                        continue
                    forced = d[i] * Fraction(rows[i][j], rows[j][i])
                    if d[j] is None:
                        d[j] = forced
                        queue.append(j)
                        component.append(j)
                    elif d[j] != forced:
                        raise InputError("Cartan matrix is not symmetrizable")
            for i, x in zip(component, _primitive_ints([d[i] for i in component])):
                d[i] = x
        return cls(matrix=rows, d=tuple(d))

    @property
    def rank(self) -> int:
        return len(self.matrix)


def symmetrizers(a: Iterable[Iterable[int]]) -> tuple[int, ...]:
    """Positive coprime integers d with d_i A[i][j] = d_j A[j][i]; see ``CartanData``."""
    return CartanData.from_matrix(a).d


#: Coordinate vector of a root over the simple roots.
Root = tuple[int, ...]


@_record
class RootSystem:
    cartan: CartanData
    positive: tuple[Root, ...]

    @property
    def rank(self) -> int:
        return self.cartan.rank

    def count(self) -> int:
        return len(self.positive)

    def highest(self) -> Optional[Root]:
        """The highest root, or ``None``: a disconnected diagram has one per component."""
        return self.positive[-1] if all(self.positive[-1]) else None


def root_height(alpha: Root) -> int:
    return sum(alpha)


def _positive_definite(m: list[list[int]]) -> bool:
    """True iff the symmetric matrix m is positive definite.

    Eliminates without row exchanges, exactly; m is positive definite iff
    every pivot is positive.  Zero multipliers are skipped, so a sparse
    Dynkin diagram costs O(n^2).
    """
    s = [[Fraction(x) for x in row] for row in m]
    n = len(s)
    for k in range(n):
        pivot = s[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, n):
            f = s[i][k] / pivot
            if f:
                for j in range(k + 1, n):
                    s[i][j] -= f * s[k][j]
    return True


def positive_roots(a: Iterable[Iterable[int]]) -> RootSystem:
    """Generate all positive roots by root strings; reject non-finite systems.

    Roots are returned sorted by (height, coordinates).  A matrix whose
    symmetrization diag(d) A is not positive definite is not of finite
    type, and ``InputError`` is raised before any root is generated.
    """
    cartan = CartanData.from_matrix(a)
    rows, n = cartan.matrix, cartan.rank
    if not _positive_definite([[di * x for x in row] for di, row in zip(cartan.d, rows)]):
        raise InputError("Cartan matrix is not of finite type")
    # nonzero entries of each row: <alpha, alpha_i^vee> reads only those
    sparse = [[(j, x) for j, x in enumerate(row) if x] for row in rows]
    # depth[alpha][i]: how far the alpha_i-string runs below alpha, nonzero only
    depth: dict[Root, dict[int, int]] = {
        tuple(1 if j == i else 0 for j in range(n)): {} for i in range(n)
    }
    frontier = list(depth)
    while frontier:
        # a new root beta is reached from beta - alpha_i for every i where
        # that is a root, so each nonzero depth of beta is carried from there
        nxt: dict[Root, dict[int, int]] = {}
        for alpha in frontier:
            below = depth[alpha]
            for i, row in enumerate(sparse):
                p = below.get(i, 0)
                if p - sum(alpha[j] * x for j, x in row) >= 1:
                    up = list(alpha)
                    up[i] += 1
                    nxt.setdefault(tuple(up), {})[i] = p + 1
        depth.update(nxt)
        frontier = list(nxt)
    ordered = sorted(depth, key=lambda r: (root_height(r), r))
    return RootSystem(cartan=cartan, positive=tuple(ordered))


# Standard finite-type Cartan matrices, all from one bond list: node i is
# joined to node i-1, except that the last node hangs on node n-3 for D_n
# and on node 2 for E_n.  B, C, F and G then turn one entry of a bond into
# a multiple bond: for B_n the last simple root is short (A[n-1][n-2] = -2),
# C_n is its transpose, G2 is [[2,-1],[-3,2]] (d = (3,1)).
def cartan_matrix(label: str) -> CartanMatrix:
    label = label.strip().upper()
    if len(label) < 2 or label[0] not in "ABCDEFG" or not label[1:].isdecimal():
        raise InputError(f"unknown Cartan type {label!r}")
    try:
        family, n = label[0], int(label[1:])
    except ValueError:
        raise digit_limit_error("the Cartan rank") from None
    mins = {"A": 1, "B": 2, "C": 2, "D": 3, "E": 6, "F": 4, "G": 2}
    low, top = mins[family], {"E": 8, "F": 4, "G": 2}.get(family, _MAX_RANK)
    if not low <= n <= top:
        raise InputError(f"unsupported rank for type {family}: {n} (ranks {low}..{top})")
    last_hang = {"D": n - 3, "E": 2}.get(family, n - 2)
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(1, n):
        j = last_hang if i == n - 1 else i - 1
        m[i][j] = m[j][i] = -1
    # (i, j, A[i][j]) of the one multiple bond
    multiple = {"B": (n - 1, n - 2, -2), "C": (n - 2, n - 1, -2),
                "F": (1, 2, -2), "G": (1, 0, -3)}
    if family in multiple:
        i, j, x = multiple[family]
        m[i][j] = x
    return _as_matrix(m)


def spanning_count(
    p: Sequence[int], eta: Sequence[int], a: Iterable[Iterable[int]]
) -> int:
    """Number of admissible PBW multisets with simple-root content eta.

    ``p`` lists the polynomial degrees of the highest-weight components;
    a pair (alpha, r) is admissible when 0 <= r < sum_i [alpha:alpha_i] p_i,
    and multisets may repeat pairs.  Each positive root alpha contributing
    m times (in any exponents) accounts for a factor C(bound+m-1, m).
    """
    system = positive_roots(a)
    n = system.rank
    p, eta = list(p), list(eta)
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in p + eta):
        raise InputError("p and eta must be integers")
    if len(p) != n or len(eta) != n:
        raise InputError("p and eta must have one entry per simple root")
    if any(x < 0 for x in p) or any(x < 0 for x in eta):
        raise InputError("p and eta must be nonnegative")
    counts: dict[Root, int] = {tuple(0 for _ in range(n)): 1}
    for alpha in system.positive:
        bound = sum(alpha[i] * p[i] for i in range(n))
        new_counts: dict[Root, int] = {}
        for content, ways in counts.items():
            m = 0
            while True:
                shifted = tuple(content[i] + m * alpha[i] for i in range(n))
                if any(shifted[i] > eta[i] for i in range(n)):
                    break
                mult = comb(bound + m - 1, m) if m else 1
                if mult:
                    new_counts[shifted] = new_counts.get(shifted, 0) + ways * mult
                m += 1
        counts = new_counts
    return counts.get(tuple(eta), 0)
