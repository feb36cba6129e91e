"""Weight-space dimensions of the irreducible quotient, two ways.

*Gram route.*  The module carries a contravariant bilinear form fixed by
``<1,1> = 1`` and the transposition anti-automorphism t_12 <-> t_21.  On
PBW monomials of equal level it obeys the level recursion

    <m1, m2> = sum_m c_m <m1 without m1[0], m>,   t_12^(m1[0]) m2 = sum_m c_m m,

so a level-k entry is a short sum of level-(k-1) entries.  Entries are
memoized in the ``ActionCache`` beside the actions they read, and the
Gram matrices are built level by level, so each entry costs one
t_12-action and one pass over its support.

The radical of the form is the maximal proper submodule.  For a rational
weight mu of degree p on its canonical polynomial weights, monomials
with an index > p span a submodule N (the tail submodule) inside that
radical.  So the monomials with all indices in {1..p} span the
irreducible quotient L, and the Gram route works in M/N: on its cache
t_21^(r), r > p, acts by zero, so no monomial of N is ever created, and
the pairing recursion reads the cached kernel images directly.

Every Gram entry is an ``int``: the route pairs in Y_D on the weights'
``integral_rescaling``, where the Gram matrix of the T-monomials is
S G S, S = diag(D^|m|), so its rank and pivot columns are those of G.

The spanning set is carried from level to level.  If the images of the
monomials B_{k-1} form a basis of L_{k-1}, the monomials
S_k = {b with r inserted : b in B_{k-1}, 1 <= r <= p}, the images
t_21^(r) b, span L_k, since t_21^(r) maps the radical into itself.  The
form is nondegenerate on L_k, so the exact rank of Gram[S_k x S_k] is
dim L_k, and the pivot columns of that symmetric matrix index a basis
B_k.  The matrix thus stays at most p * dim L_{k-1} square, and every
level past the first empty B_k costs nothing.

*Product-formula route.*  Writing mu(u) = prod_i (u + a_i) / (u + b_i)
with the pairs greedily reordered so that a_1 - b_1, ..., a_l - b_l are
the nonnegative integer differences (smallest difference first, ties by
smaller a), the character of the irreducible quotient factors as

    prod_{i<=l} (x^{d_i+1} - x^{-d_i-1})/(x - x^{-1})
    * prod_{i>l} x^{d_i+1}/(x - x^{-1}),        d_i = a_i - b_i,

whose level-k coefficients are window sums: each factor with i <= l sums
the running coefficients over windows of width d_i + 1, each other
factor over all lower levels.  Agreement of the two routes is part of
the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb
from typing import Optional, Sequence

from . import linalg
from .errors import InputError, _record
from .rational import RationalFn, rational_roots, require_rational_fn
from .verma import (
    ActionCache,
    HighestWeightGL2,
    Monomial,
    _act_mono,
    _insert,
    bind_cache,
    canonical_polynomial_weights,
    integral_rescaling,
    monomial,
)


def contravariant_pairing(
    m1: Monomial,
    m2: Monomial,
    hw: HighestWeightGL2,
    cache: Optional[ActionCache] = None,
) -> int | Fraction:
    """<m1, m2>: the 1-coefficient of the t_12-word of m1 applied to m2.

    Defined for monomials of equal level; the t_12^(r) commute, so the
    word is applied one index at a time through the memoized level
    recursion, and entries are kept in ``cache`` for later calls.
    """
    m1 = monomial(m1)
    m2 = monomial(m2)
    if len(m1) != len(m2):
        raise InputError("pairing requires equal levels")
    # _pairing reads the kernel and the memo from the cache alone, so bind here
    return _pairing(m1, m2, bind_cache(hw, cache))


def _pairing(m1: Monomial, m2: Monomial, cache: ActionCache) -> int | Fraction:
    """<m1, m2> = sum_m c_m <m1[1:], m> where t_12^(m1[0]) m2 = sum_m c_m m.

    Reads the cached kernel image t_12^(m1[0]) m2, all int on an integral
    weight, so there every entry is an int.
    """
    if not m1:
        return 1
    key = (m1, m2)
    hit = cache.data.get(key)
    if hit is not None:
        return hit
    rest = m1[1:]
    total = 0
    for m, c in _act_mono(1, 2, m1[0], m2, cache).items():
        total += c * _pairing(rest, m, cache)
    cache.data[key] = total
    return total


@_record
class GramReport:
    """Gram data of level k of the irreducible quotient.

    ``spanning_size`` is C(p+k-1, k), the number of level-k monomials with
    all indices in {1..p}: the full spanning set, not the size of the
    matrix built from the carried basis.  ``rank`` is the exact rank of
    the form on that level, the dimension of the weight space.
    """

    level: int
    spanning_size: int
    rank: int


def irreducible_weight_dims(mu: RationalFn, max_level: int) -> list[GramReport]:
    """dim of the weight space mu^(0) - 2k of the irreducible quotient, k <= max_level.

    Uses the canonical polynomial realization, rescaled to an integral
    pair in Y_D by ``integral_rescaling``, and a cache projected onto M/N:
    t_21^(r) with r > p = deg(mu) acts by zero, and N lies in the
    radical.  Level k pairs only the monomials S_k built from the previous
    level's basis B_{k-1} (B_0 = [()]), fills the upper triangle of the
    symmetric Gram matrix and mirrors it, and takes B_k from the pivot
    columns of its echelon; the rank is |B_k|.  Levels run upward, so each
    level-k entry recurses once into level-(k-1) entries already memoized.
    """
    if max_level < 0:
        raise InputError("max_level must be >= 0")
    hw = integral_rescaling(canonical_polynomial_weights(mu))
    p = mu.degree
    cache = ActionCache(hw)
    cache._tail = p
    reports = []
    basis: list[Monomial] = []
    for k in range(max_level + 1):
        monos = sorted({_insert(b, r) for b in basis for r in range(1, p + 1)}) if k else [()]
        n = len(monos)
        gram = [[0] * n for _ in range(n)]
        for i, m1 in enumerate(monos):
            row = gram[i]
            for j in range(i, n):
                row[j] = gram[j][i] = contravariant_pairing(m1, monos[j], hw, cache)
        echelon = linalg.RowEchelon()
        for row in gram:
            echelon.add(row)
        basis = [monos[c] for c in echelon.pivots]
        spanning = comb(p + k - 1, k) if k else 1
        reports.append(GramReport(level=k, spanning_size=spanning, rank=len(basis)))
    return reports


def reorder_strings(
    alphas: Sequence[Fraction], betas: Sequence[Fraction]
) -> tuple[tuple[tuple[Fraction, Fraction], ...], int]:
    """Greedy pairing of numerator/denominator shifts for the character product.

    Repeatedly extracts the pair (a, b) whose difference a - b is the
    smallest nonnegative integer (ties broken by smaller a); stops when no
    remaining pair has a nonnegative integer difference and pairs the rest
    by descending value.  Returns the ordered pairs and the count l of
    integer-difference leading pairs.

    Taking a pair only removes candidates, so one pass over the sorted keys
    (a - b, a) of all candidate pairs, taking each while both shifts remain,
    extracts the same pairs in the same order.
    """
    if len(alphas) != len(betas):
        raise InputError("need equally many numerator and denominator shifts")
    rem_a, rem_b = list(alphas), list(betas)
    keys = {(d, a) for a in rem_a for b in rem_b if (d := a - b) >= 0 and d.denominator == 1}
    pairs: list[tuple[Fraction, Fraction]] = []
    for d, a in sorted(keys):
        b = a - d
        while a in rem_a and b in rem_b:
            rem_a.remove(a)
            rem_b.remove(b)
            pairs.append((a, b))
    l = len(pairs)
    pairs.extend(zip(sorted(rem_a, reverse=True), sorted(rem_b, reverse=True)))
    return tuple(pairs), l


@_record
class CharacterResult:
    """Shift pairs in formula order, the integer-pair count, and level dims."""

    alphas: tuple[Fraction, ...]
    betas: tuple[Fraction, ...]
    integer_pair_count: int
    dims: tuple[int, ...]


def character_formula(mu: RationalFn, max_level: int) -> CharacterResult:
    """Level dimensions of the irreducible quotient via the product formula.

    Requires both numerator and denominator of mu to split over Q;
    otherwise the input is unsupported and ``InputError`` is raised.
    ``dims[k]`` is the dimension at weight mu^(0) - 2k for k <= max_level.
    """
    require_rational_fn(mu)
    if max_level < 0:
        raise InputError("max_level must be >= 0")
    num_roots = rational_roots(mu.num)
    den_roots = rational_roots(mu.den)
    if num_roots is None or den_roots is None:
        raise InputError(
            "character formula needs mu to factor into rational linear factors"
        )
    alphas = [-r for r in num_roots]
    betas = [-r for r in den_roots]
    pairs, l = reorder_strings(alphas, betas)

    dims = [1] + [0] * max_level
    for i, (a, b) in enumerate(pairs):
        # times 1 + x + ... + x^(width-1), truncated at max_level: window sums
        width = int(a - b) + 1 if i < l else max_level + 1
        prefix = list(accumulate(dims, initial=0))
        dims = [prefix[k + 1] - prefix[max(0, k + 1 - width)] for k in range(max_level + 1)]
    return CharacterResult(
        alphas=tuple(a for a, _ in pairs),
        betas=tuple(b for _, b in pairs),
        integer_pair_count=l,
        dims=tuple(dims),
    )

