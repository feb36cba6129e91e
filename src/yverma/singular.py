"""Singular vectors: exact search and the canonical one-parameter family.

A vector of level k is *singular* when every e^(r) kills it.  The search
space at level k is spanned by ordered products f^(r_1) ... f^(r_k) applied
to the highest vector with 0 <= r_1 <= ... <= r_k (expanded into the PBW
basis through the Gauss decomposition); bounding the exponent sum by a
degree budget makes the space finite, and the conditions e^(r) v = 0 for
r = 0..R become an exact linear system.  R is raised adaptively until its
rank is full or unchanged for two rounds (or the data runs out, which is
reported, never guessed away).

For a rational weight mu = P/Q of degree p realized on the polynomial
weight pair, each s >= p yields a singular vector with expansion exactly
t_21^(s+1) applied to the highest vector; its f-coordinates read off the
lambda2 tail:

    t_21^(s+1) 1 = sum_{r=0}^{s} lambda2^(s-r) f^(r) 1,

which follows from t_21(u) = f(u) t_22(u) applied to the highest vector.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Iterator, Optional, Union

from . import linalg
from .errors import InputError, InsufficientDataError, TruncationError, _record
from .gauss import SL2Weight, act_f, as_gl2_weights, e_series
from .rational import RationalFn, rat, require_rational_fn
from .verma import ActionCache, HighestWeightGL2, ModuleVector, _mono_sort_key, bind_cache
from .verma import _add_scaled_into, _narrow, integral_rescaling, nondecreasing_tuples

#: Exponent tuple of an ordered f-monomial: non-decreasing, entries >= 0.
FMonomial = tuple[int, ...]
#: Linear combination of ordered f-monomials.
FVector = dict[FMonomial, Fraction]


#: Largest candidate space ``find_singular`` expands; a larger one is an input error.
_SIZE_CAP = 5000
#: Relation rounds added past the initial bound before a search stops unstabilized.
_MAX_EXTRA_RELATIONS = 32


def _f_monomials(level: int, degree_bound: int) -> Iterator[FMonomial]:
    """Lazily yield the candidates, exponent sum <= degree_bound, in lexicographic order.

    The arguments are checked at call time, before the first candidate.
    """
    if level < 0:
        raise InputError("level must be >= 0")
    if degree_bound < 0:
        raise InputError("degree bound must be >= 0")
    return nondecreasing_tuples(level, 0, degree_bound)


def expand_f_monomial(
    fmono: FMonomial,
    hw: HighestWeightGL2,
    cache: Optional[ActionCache] = None,
) -> ModuleVector:
    """PBW expansion of f^(r_1) ... f^(r_k) 1 (rightmost factor acts first)."""
    cache = bind_cache(hw, cache)
    v = ModuleVector.highest()
    for r in reversed(fmono):
        v = act_f(r, v, hw, cache)
    return v


def expand_f_vector(
    fvec: FVector,
    mu_or_hw: Union[HighestWeightGL2, SL2Weight],
    cache: Optional[ActionCache] = None,
) -> ModuleVector:
    hw = as_gl2_weights(mu_or_hw)
    cache = bind_cache(hw, cache)
    acc: dict = {}
    for fmono, c in fvec.items():
        image = expand_f_monomial(tuple(fmono), hw, cache)
        _add_scaled_into(acc, image.terms, _narrow(rat(c)))
    return ModuleVector._of(acc)


@_record
class SingularSearchResult:
    """Outcome of a bounded singular-vector search.

    ``fbasis`` lists the canonical solution basis in f-coordinates and
    ``basis`` the same vectors expanded in the PBW basis.  ``stabilized``
    records whether raising the relation bound stopped changing the
    answer; when data ran out first it is False and ``relation_bound``
    is the last bound fully imposed.
    """

    level: int
    degree_bound: int
    relation_bound: int
    stabilized: bool
    candidates: tuple[FMonomial, ...]
    fbasis: tuple[FVector, ...]
    basis: tuple[ModuleVector, ...]


def find_singular(mu: SL2Weight, level: int, degree_bound: int) -> SingularSearchResult:
    """Exact solution space of { v : e^(r) v = 0, r <= R } at fixed level.

    One loop adds the relation rounds r = 0, 1, ... under one stop test.
    R starts at degree_bound + level + 1; past it, the loop stops once the
    rank of the constraint rows is full or two further rounds leave it
    unchanged (rows only ever shrink the solution space, so equal ranks
    mean equal spaces).  On an exact weight it also stops at full rank
    before that, since no later round can change an empty kernel or run
    out of data; the report still reads R = degree_bound + level + 1.  The
    space is solved once, at the end, off the echelon of the rows: one
    elimination.  For truncated weight series the initial bound must be
    computable or ``InsufficientDataError`` is raised; a round beyond the
    window ends the loop with ``stabilized=False``.  A candidate space of
    more than 5000 monomials raises ``InputError`` before any is expanded.
    An exact weight is searched on its ``integral_rescaling``, a pair in
    Y_D, on ``int`` rows: F^(r) = D^(r+1) f^(r) and E^(r) = D^(r+1) e^(r)
    scale rows and columns by powers of D, which keeps every rank, pivot
    and stop; the solutions are scaled back by the D the pair carries.  A
    truncated window is not rescaled, since D^r grows with it.
    """
    given = as_gl2_weights(mu)
    # an exact weight cannot run out of data, so its rounds may end at full rank
    exact = given.lambda1.exact and given.lambda2.exact
    hw = integral_rescaling(given) if exact else given
    cache = ActionCache(hw)
    cands = list(islice(_f_monomials(level, degree_bound), _SIZE_CAP + 1))
    if len(cands) > _SIZE_CAP:
        raise InputError(f"candidate space exceeds the cap of {_SIZE_CAP} monomials")

    try:
        vectors = [expand_f_monomial(fm, hw, cache) for fm in cands]
    except TruncationError as exc:
        raise InsufficientDataError(
            f"weight series too short to expand level-{level} candidates: {exc}"
        ) from exc

    r_start = degree_bound + level + 1
    echelon = linalg.RowEchelon()
    # one lazy e-series per candidate; each relation round reads the next term
    e_images = [e_series(v, hw, cache) for v in vectors]

    def add_relations() -> None:
        images = [next(series) for series in e_images]
        monos = sorted({m for img in images for m in img.terms}, key=_mono_sort_key)
        for mono in monos:
            if echelon.rank == len(cands):
                break  # the kernel is already empty
            # an int 0 keeps the rows of an integral weight all int
            echelon.add([img.terms.get(mono, 0) for img in images])

    bound, unchanged = r_start, 0
    for r in range(r_start + _MAX_EXTRA_RELATIONS + 1):
        full = echelon.rank == len(cands)
        if (full and (exact or r > r_start)) or unchanged >= 2:
            break
        before = echelon.rank
        try:
            add_relations()
        except TruncationError as exc:
            if r > r_start:
                break
            raise InsufficientDataError(
                f"weight series too short for relation bound {r_start}: {exc}"
            ) from exc
        if r > r_start:
            bound = r
            unchanged = unchanged + 1 if echelon.rank == before else 0

    d = hw.hbar // given.hbar  # the D of the rescaling, 1 on a truncated window
    fbasis, basis = [], []
    for vec in echelon.kernel(len(cands)):
        coords = [(j, coord) for j, coord in enumerate(vec) if coord]
        acc: dict = {}
        for j, coord in coords:
            _add_scaled_into(acc, vectors[j].terms, _narrow(coord))
        if d > 1:  # out of Y_D, with f = the free column = the last nonzero one:
            # coordinate j times D^(|r_j| - |r_f|), monomial m times D^(|m| - |r_f| - level)
            top = sum(cands[coords[-1][0]])
            coords = [(j, coord * Fraction(d) ** (sum(cands[j]) - top)) for j, coord in coords]
            acc = {m: _narrow(c * Fraction(d) ** (sum(m) - top - level)) for m, c in acc.items()}
        fbasis.append({cands[j]: coord for j, coord in coords})
        basis.append(ModuleVector._of(acc))

    return SingularSearchResult(
        level=level,
        degree_bound=degree_bound,
        relation_bound=bound,
        stabilized=echelon.rank == len(cands) or unchanged >= 2,
        candidates=tuple(cands),
        fbasis=tuple(fbasis),
        basis=tuple(basis),
    )


def canonical_singular_vector(mu: RationalFn, s: int) -> FVector:
    """The singular vector with leading term f^(s), in f-coordinates.

    Defined for s >= deg(mu) on the polynomial weight realization; its PBW
    expansion is exactly t_21^(s+1) applied to the highest vector, hence
    the coefficient of f^(r) is lambda2^(s-r).
    """
    require_rational_fn(mu)
    p = mu.degree
    if s < p:
        raise InputError(f"need s >= deg(mu) = {p}, got s = {s}")
    hw = as_gl2_weights(mu)
    out: FVector = {}
    for r in range(s + 1):
        c = hw.lambda2.coeff(s - r)
        if c:
            out[(r,)] = c
    return out


def verify_singular(
    zeta: ModuleVector,
    mu: SL2Weight,
    rmax: int,
    cache: Optional[ActionCache] = None,
) -> bool:
    """Check e^(r) zeta = 0 exactly for every r = 0..rmax."""
    if rmax < 0:
        raise InputError("rmax must be >= 0")
    # e_series binds the cache to the weight
    return all(img.is_zero() for img in islice(e_series(zeta, mu, cache), rmax + 1))
