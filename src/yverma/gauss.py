"""The sl(2) generators e(u), f(u), h(u) inside the gl(2) Yangian.

The Gauss decomposition of the generator matrix gives

    e(u) = t_22(u)^{-1} t_12(u),
    f(u) = t_21(u) t_22(u)^{-1},
    h(u) = t_11(u) t_22(u)^{-1} - t_21(u) t_22(u)^{-1} t_12(u) t_22(u)^{-1},

expanded as e(u) = sum_{r>=0} e^(r) u^{-r-1} (same for f) and
h(u) = 1 + sum_{r>=0} h^(r) u^{-r-1}.  Every factor t_22(u)^{-1} is one
solve: for a series of vectors S(u) = sum_n S_n u^{-n}, the series
Y(u) = t_22(u)^{-1} S(u) is read off t_22(u) Y(u) = S(u) coefficient by
coefficient,

    Y_n = S_n - sum_{c=1}^{n} t_22^(c) Y_{n-c},

and products t_ij(u) Y(u) are taken coefficientwise.  Each Y_n and each
coefficient of a product is one ``verma._t_times`` call adding into one
coefficient dict; a dict becomes a ``ModuleVector`` only where a public
function returns or yields it.  With W = t_22(u)^{-1} v this gives

    f(u) v = t_21(u) W,
    e(u) v = t_22(u)^{-1} (t_12(u) v)      (because t_22(u) e(u) = t_12(u)),
    h(u) v = t_11(u) W - t_21(u) t_22(u)^{-1} (t_12(u) W)
           = t_22(u)^{-1} t_22(u-hbar)^{-1} qdet(u) v    (a shifted solve).

Only the ratio mu(u) = lambda1(u)/lambda2(u) matters for this restricted
action up to isomorphism; an sl(2) highest weight is therefore given either
as a ``RationalFn`` (realized by the polynomial weight pair) or as a
truncated ``SeriesU`` (realized as the pair (mu, 1)).
"""

from __future__ import annotations

from itertools import chain, count, islice, repeat
from typing import Iterable, Iterator, Optional, Union

from .errors import InputError
from .rational import RationalFn
from .series import SERIES_ONE, SeriesU
from .verma import (
    ActionCache,
    HighestWeightGL2,
    ModuleVector,
    _t_times,
    act_generator,
    act_quantum_det,
    bind_cache,
    canonical_polynomial_weights,
)

#: An sl(2) highest weight: the series mu(u), exactly or in truncation.
SL2Weight = Union[SeriesU, RationalFn]

def as_gl2_weights(mu: Union[HighestWeightGL2, SL2Weight]) -> HighestWeightGL2:
    """A gl(2) weight pair realizing the given ratio mu; a pair is returned unchanged."""
    if isinstance(mu, HighestWeightGL2):
        return mu
    if isinstance(mu, RationalFn):
        return canonical_polynomial_weights(mu)
    if isinstance(mu, SeriesU):
        return HighestWeightGL2(mu, SERIES_ONE)
    raise InputError(f"not an sl(2) highest weight: {mu!r}")


def _t22_solve(source: Iterable[dict], cache: ActionCache, shift=0) -> Iterator[dict]:
    """Lazily yield Y_0, Y_1, ... of Y(u) = t_22(u + shift)^{-1} S(u) as coefficient dicts.

    S_n is the n-th dict of ``source`` (read, never written, drawn one per
    step), and zero once it runs out.  Each Y_n is S_n minus the u^{-n}
    coefficient of (t_22(u + shift) - 1) Y(u), one ``_t_times`` on a copy
    of S_n.  Later steps read every Y_n, so write to one only when done.
    """
    ys: list[dict] = []
    for s_n in chain(source, repeat({})):
        ys.append(_t_times(dict(s_n), 2, 2, len(ys), ys, cache, -1, shift))
        yield ys[-1]


def e_series(
    v: ModuleVector,
    hw_or_mu: Union[HighestWeightGL2, SL2Weight],
    cache: Optional[ActionCache] = None,
) -> Iterator[ModuleVector]:
    """Lazily yield e^(0) v, e^(1) v, ... from t_22(u) e(u) v = t_12(u) v.

    Each term costs one step of the solve, so reading e^(0..R) v costs no
    more than computing e^(R) v alone.
    """
    cache = bind_cache(as_gl2_weights(hw_or_mu), cache)
    # t_12^(0) = 0, so the solve starts at zero and e^(r) v is its term r + 1
    t12_v = (act_generator(1, 2, b, v, cache.hw, cache).terms if b else {} for b in count())
    return map(ModuleVector._of, islice(_t22_solve(t12_v, cache), 1, None))


def act_e(
    r: int,
    v: ModuleVector,
    hw_or_mu: Union[HighestWeightGL2, SL2Weight],
    cache: Optional[ActionCache] = None,
) -> ModuleVector:
    """Apply e^(r), the u^{-r-1} coefficient of e(u), r >= 0."""
    if r < 0:
        raise InputError("e index must be >= 0")
    return next(islice(e_series(v, hw_or_mu, cache), r, None))


def act_f(
    r: int,
    v: ModuleVector,
    hw_or_mu: Union[HighestWeightGL2, SL2Weight],
    cache: Optional[ActionCache] = None,
) -> ModuleVector:
    """Apply f^(r), the u^{-r-1} coefficient of f(u), r >= 0."""
    if r < 0:
        raise InputError("f index must be >= 0")
    cache = bind_cache(as_gl2_weights(hw_or_mu), cache)
    n = r + 1
    w = list(islice(_t22_solve([v.terms], cache), n))
    return ModuleVector._of(_t_times({}, 2, 1, n, w, cache))


def act_h(
    r: int,
    v: ModuleVector,
    hw_or_mu: Union[HighestWeightGL2, SL2Weight],
    cache: Optional[ActionCache] = None,
) -> ModuleVector:
    """Apply h^(r), the u^{-r-1} coefficient of h(u), r >= 0."""
    if r < 0:
        raise InputError("h index must be >= 0")
    cache = bind_cache(as_gl2_weights(hw_or_mu), cache)
    n = r + 1
    w = list(islice(_t22_solve([v.terms], cache), n + 1))
    # the t_11 term runs first, adding into W_n, which no later product reads:
    # on a truncated weight the order of the terms decides what a TruncationError names
    out = _t_times(w.pop(), 1, 1, n, w, cache)
    # t_21^(b) needs b >= 1, so the inner solve stops at index n - 1
    t12_w = [_t_times({}, 1, 2, m, w, cache) for m in range(n)]
    z = list(islice(_t22_solve(t12_w, cache), n))
    return ModuleVector._of(_t_times(out, 2, 1, n, z, cache, -1))


def act_h_via_quantum_det(
    r: int,
    v: ModuleVector,
    hw_or_mu: Union[HighestWeightGL2, SL2Weight],
    cache: Optional[ActionCache] = None,
) -> ModuleVector:
    """h^(r) computed along the alternative route

        h(u) = t_22(u)^{-1} t_22(u-hbar)^{-1} qdet(u),

    two nested lazy solves over the series qdet(u) v, the inner one with
    the argument shifted by -hbar.  Exists for cross-checking ``act_h``.
    """
    if r < 0:
        raise InputError("h index must be >= 0")
    cache = bind_cache(as_gl2_weights(hw_or_mu), cache)
    qdet_v = (act_quantum_det(z, v, cache.hw, cache).terms for z in count())
    h_v = _t22_solve(_t22_solve(qdet_v, cache, -cache.hw.hbar), cache)
    return ModuleVector._of(next(islice(h_v, r + 1, None)))
