"""Singular vectors: exact search and the canonical one-parameter family.

A vector of level k is *singular* when every e^(r) kills it.  The search
space at level k is spanned by ordered products f^(r_1) ... f^(r_k) applied
to the highest vector with 0 <= r_1 <= ... <= r_k (expanded into the PBW
basis through the Gauss decomposition); bounding the exponent sum by a
degree budget makes the space finite, and the conditions e^(r) v = 0 for
r = 0..R become an exact linear system.  R is raised adaptively until the
solution space stops changing (or the data runs out, which is reported,
never guessed away).

For a rational weight mu = P/Q of degree p realized on the polynomial
weight pair, each s >= p yields a singular vector with expansion exactly
t_21^(s+1) applied to the highest vector; its f-coordinates read off the
lambda2 tail:

    t_21^(s+1) 1 = sum_{r=0}^{s} lambda2^(s-r) f^(r) 1,

which follows from t_21(u) = f(u) t_22(u) applied to the highest vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Optional, Union

from . import linalg
from .errors import InputError, InsufficientDataError, TruncationError
from .gauss import SL2Weight, act_f, act_h, as_gl2_weights, e_series
from .rational import RationalFn, format_rat, rat
from .verma import ActionCache, HighestWeightGL2, ModuleVector, _mono_sort_key

_ZERO = Fraction(0)
_ONE = Fraction(1)

#: Exponent tuple of an ordered f-monomial: non-decreasing, entries >= 0.
FMonomial = tuple[int, ...]
#: Linear combination of ordered f-monomials.
FVector = dict[FMonomial, Fraction]


def f_candidates(level: int, degree_bound: int) -> list[FMonomial]:
    """All ordered f-monomials of the given level with exponent sum <= bound."""
    if level < 0:
        raise InputError("level must be >= 0")
    if degree_bound < 0:
        raise InputError("degree bound must be >= 0")
    out: list[FMonomial] = []

    def extend(prefix: list[int], smallest: int, budget: int) -> None:
        if len(prefix) == level:
            out.append(tuple(prefix))
            return
        slots_left = level - len(prefix)
        for r in range(smallest, budget // slots_left + 1):
            prefix.append(r)
            extend(prefix, r, budget - r)
            prefix.pop()

    extend([], 0, degree_bound)
    return sorted(out)


def expand_f_monomial(
    fmono: FMonomial,
    hw: HighestWeightGL2,
    cache: Optional[ActionCache] = None,
) -> ModuleVector:
    """PBW expansion of f^(r_1) ... f^(r_k) 1 (rightmost factor acts first)."""
    v = ModuleVector.highest()
    for r in reversed(fmono):
        v = act_f(r, v, hw, cache)
    return v


def expand_f_vector(
    fvec: FVector,
    mu_or_hw: Union[HighestWeightGL2, SL2Weight],
    cache: Optional[ActionCache] = None,
) -> ModuleVector:
    hw = mu_or_hw if isinstance(mu_or_hw, HighestWeightGL2) else as_gl2_weights(mu_or_hw)
    out = ModuleVector.zero()
    for fmono, c in fvec.items():
        out = out + expand_f_monomial(tuple(fmono), hw, cache).scaled(c)
    return out


def fvector_to_obj(fvec: FVector) -> dict:
    return {
        "terms": [
            {"mono": list(m), "coef": format_rat(rat(c))}
            for m, c in sorted(fvec.items(), key=lambda kv: _mono_sort_key(kv[0]))
            if c
        ]
    }


@dataclass(frozen=True)
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
    h_eigen: Optional[tuple[bool, ...]] = None


def find_singular(
    mu: SL2Weight,
    level: int,
    degree_bound: int,
    *,
    size_cap: int = 5000,
    classify_h: bool = False,
    max_extra_relations: int = 32,
) -> SingularSearchResult:
    """Exact solution space of { v : e^(r) v = 0, r <= R } at fixed level.

    R starts at degree_bound + level + 1 and is raised until two further
    increments leave the solution space unchanged (constraints only ever
    shrink it, so an empty space is final immediately).  For truncated
    weight series the initial bound must be computable or
    ``InsufficientDataError`` is raised; bounds beyond the window stop
    the adaptive phase with ``stabilized=False``.
    """
    hw = as_gl2_weights(mu)
    cache = ActionCache(hw)
    cands = f_candidates(level, degree_bound)
    if len(cands) > size_cap:
        raise InputError(
            f"candidate space has {len(cands)} monomials, over the cap {size_cap}"
        )

    try:
        vectors = [expand_f_monomial(fm, hw, cache) for fm in cands]
    except TruncationError as exc:
        raise InsufficientDataError(
            f"weight series too short to expand level-{level} candidates: {exc}"
        ) from exc

    r_start = degree_bound + level + 1
    rows: list[list[Fraction]] = []
    # one lazy e-series per candidate; each relation round reads the next term
    e_images = [e_series(v, hw, cache) for v in vectors]

    def add_relations() -> None:
        images = [next(series) for series in e_images]
        monos = sorted({m for img in images for m in img.terms}, key=_mono_sort_key)
        for mono in monos:
            rows.append([img.coefficient(mono) for img in images])

    def kernel() -> list[tuple[Fraction, ...]]:
        return linalg.nullspace(rows, len(cands))

    try:
        for _ in range(r_start + 1):
            add_relations()
    except TruncationError as exc:
        raise InsufficientDataError(
            f"weight series too short for relation bound {r_start}: {exc}"
        ) from exc

    current = kernel()
    bound = r_start
    stabilized = not current
    if current:
        unchanged = 0
        for extra in range(1, max_extra_relations + 1):
            try:
                add_relations()
            except TruncationError:
                break
            bound = r_start + extra
            nxt = kernel()
            unchanged = unchanged + 1 if nxt == current else 0
            current = nxt
            if not current or unchanged >= 2:
                stabilized = True
                break

    fbasis = tuple(
        {cands[j]: coord for j, coord in enumerate(vec) if coord} for vec in current
    )
    basis = []
    for vec in current:
        acc = ModuleVector.zero()
        for j, coord in enumerate(vec):
            if coord:
                acc = acc + vectors[j].scaled(coord)
        basis.append(acc)

    h_eigen = None
    if classify_h:
        h_eigen = tuple(_is_h0_eigenvector(w, hw, cache) for w in basis)

    return SingularSearchResult(
        level=level,
        degree_bound=degree_bound,
        relation_bound=bound,
        stabilized=stabilized,
        candidates=tuple(cands),
        fbasis=fbasis,
        basis=tuple(basis),
        h_eigen=h_eigen,
    )


def _is_h0_eigenvector(
    w: ModuleVector, hw: HighestWeightGL2, cache: Optional[ActionCache]
) -> bool:
    if w.is_zero():
        return True
    image = act_h(0, w, hw, cache)
    mono = w.monomials()[0]
    ratio = image.coefficient(mono) / w.coefficient(mono)
    return image == w.scaled(ratio)


def canonical_singular_vector(mu: RationalFn, s: int) -> FVector:
    """The singular vector with leading term f^(s), in f-coordinates.

    Defined for s >= deg(mu) on the polynomial weight realization; its PBW
    expansion is exactly t_21^(s+1) applied to the highest vector, hence
    the coefficient of f^(r) is lambda2^(s-r).
    """
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
    hw = as_gl2_weights(mu)
    if cache is None:
        cache = ActionCache(hw)
    return all(img.is_zero() for img in islice(e_series(zeta, hw, cache), rmax + 1))
