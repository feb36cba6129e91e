"""Verma modules over the Yangian of gl(2) in the RTT presentation.

The algebra is generated by t_ij^(r) (i, j in {1,2}, r >= 1), packaged as
t_ij(u) = delta_ij + sum_r t_ij^(r) u^{-r}, with defining relations

    [t_ij^(r), t_kl^(s)] = sum_{a=1}^{min(r,s)}
        ( t_kj^(a-1) t_il^(r+s-a)  -  t_kj^(r+s-a) t_il^(a-1) ),

where t_ij^(0) = delta_ij.  The Verma module M(lambda1, lambda2) attached
to a pair of coefficient series has a highest vector killed by every
t_12^(r), on which t_ii^(r) acts by lambda_i^(r); a PBW basis is given by
ordered products t_21^(r_1) ... t_21^(r_k) with 1 <= r_1 <= ... <= r_k
applied to the highest vector (the t_21^(r) commute pairwise).

``act_generator`` computes the action of any t_ij^(r) on a basis vector by
structural recursion on the leftmost t_21 factor:

    t_ij^(r) (t_21^(s) w) = t_21^(s) (t_ij^(r) w) + [t_ij^(r), t_21^(s)] w,

with the commutator expanded by the defining relation.  Every recursive
call strictly decreases (generator index r) + (monomial degree), which
proves termination: the commutator terms have generator indices a-1 < r
or act on the shorter monomial w.  Every sum of generator images is built
in one dict by ``_act_into``, the only vector-level action loop;
``_t_times`` runs it over each coefficient of a product t_ij(u + c) Y(u)
with a series of vectors, as the quantum determinant of Y_hbar needs.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import InputError, _record
from .rational import RationalFn, Scalar, format_rat, rat, require_rational_fn
from .series import SeriesU, shifted_power_coeff

#: A PBW basis monomial: the sorted tuple of t_21 indices (each >= 1).
Monomial = tuple[int, ...]


def monomial(indices: Iterable[int]) -> Monomial:
    """Normalize an index multiset into a basis monomial (sorted tuple)."""
    idx = sorted(int(r) for r in indices)
    if idx and idx[0] < 1:
        raise InputError("t_21 indices must be >= 1")
    return tuple(idx)


def _narrow(q: int | Fraction) -> int | Fraction:
    """q as an ``int`` when its denominator is 1, else q itself."""
    return q.numerator if q.denominator == 1 else q


def _insert(mono: Monomial, r: int) -> Monomial:
    out = list(mono)
    insort(out, r)
    return tuple(out)


def _mono_sort_key(mono: Monomial) -> tuple:
    return (len(mono), mono)


class ModuleVector:
    """Finite exact linear combination of PBW basis monomials.

    Treated as immutable: all arithmetic returns fresh vectors and the
    ``terms`` mapping must not be mutated by callers.  The constructor
    normalizes each key through ``monomial`` and stores a coefficient with
    denominator 1 as an ``int``, as ``scaled`` stores an integral scalar;
    ``basis`` and ``highest`` build ``int`` unit vectors, so the kernel
    acting on them over an integral weight stays in ``int``.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping, Iterable, None] = None):
        data: dict[Monomial, int | Fraction] = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for mono, coef in items:
                _add_into(data, monomial(mono), rat(coef))
        self._terms = {m: _narrow(c) for m, c in data.items()}

    # -- construction ----------------------------------------------------

    @classmethod
    def basis(cls, mono: Iterable[int]) -> "ModuleVector":
        return cls._of({monomial(mono): 1})

    @classmethod
    def highest(cls) -> "ModuleVector":
        return cls._of({(): 1})

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, int | Fraction]:
        return self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def levels(self) -> list[int]:
        return sorted({len(m) for m in self._terms})

    @classmethod
    def _of(cls, terms: dict) -> "ModuleVector":
        """Wrap a dict of nonzero coefficients as is: no copy, no coercion."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        return ModuleVector._of(_add_scaled_into(dict(self._terms), other._terms, 1))

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        return ModuleVector._of(_add_scaled_into(dict(self._terms), other._terms, -1))

    def scaled(self, c: Scalar) -> "ModuleVector":
        c = _narrow(rat(c))
        return ModuleVector._of({m: c * v for m, v in self._terms.items()} if c else {})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModuleVector):
            return NotImplemented
        return self._terms == other._terms

    def __repr__(self) -> str:
        return f"ModuleVector({self._terms!r})"

    # -- serialization ------------------------------------------------------

    def to_obj(self) -> dict:
        return terms_to_obj(self._terms)

    @classmethod
    def from_obj(cls, obj: Mapping) -> "ModuleVector":
        try:
            return cls([(t["mono"], t["coef"]) for t in obj["terms"]])
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed vector object: {exc}") from exc


def terms_to_obj(terms: Mapping) -> dict:
    """JSON form of monomial -> coefficient: (level, lex) order, zeros dropped, exact strings."""
    items = sorted(terms.items(), key=lambda kv: _mono_sort_key(kv[0]))
    return {"terms": [{"mono": list(m), "coef": format_rat(c)} for m, c in items if c]}


@_record
class HighestWeightGL2:
    """The pair of coefficient series (lambda1(u), lambda2(u)) of a Verma module.

    It is a weight of the Yangian Y_hbar, hbar = 1 by default, where the kernel
    scales every commutator term by hbar: on coefficients hbar^r lambda_i^(r)
    it acts by the generators T^(r) = hbar^r t^(r) of M(lambda).
    """

    lambda1: SeriesU
    lambda2: SeriesU
    hbar: int = 1

    def coeff(self, i: int, r: int) -> Fraction:
        """lambda_i^(r); raises TruncationError past an inexact window."""
        if i == 1:
            return self.lambda1.coeff(r)
        if i == 2:
            return self.lambda2.coeff(r)
        raise InputError(f"diagonal index must be 1 or 2, got {i}")


def canonical_polynomial_weights(mu: RationalFn) -> HighestWeightGL2:
    """The polynomial realization lambda1 = u^-p P(u), lambda2 = u^-p Q(u).

    Both series are exact polynomials in u^{-1} of degree <= p = deg(mu),
    with ratio lambda1/lambda2 = mu.
    """
    require_rational_fn(mu)
    p = mu.degree
    l1 = SeriesU([mu.num.coeff(p - k) for k in range(p + 1)], exact=True)
    l2 = SeriesU([mu.den.coeff(p - k) for k in range(p + 1)], exact=True)
    return HighestWeightGL2(l1, l2)


def integral_rescaling(hw: HighestWeightGL2) -> HighestWeightGL2:
    """The pair lambda_i(u/D) in Y_(D hbar), D the lcm of the coefficient denominators of hw.

    Its coefficients D^r lambda_i^(r) are integers, on which T^(r) = D^r t^(r)
    acts as t^(r) on M(hw).  A truncated series stays truncated at its order.
    """
    lams = (hw.lambda1, hw.lambda2)
    d = lcm(*(c.denominator for lam in lams for c in lam.coeffs))
    scaled = (SeriesU([c * d**r for r, c in enumerate(lam.coeffs)], lam.exact) for lam in lams)
    return HighestWeightGL2(*scaled, hbar=d * hw.hbar)


class ActionCache:
    """Memo for single-generator actions on basis monomials.

    Every generator application runs in one, bound to the highest weight
    ``hw`` that the kernels read, hbar included (see ``bind_cache``).
    Keys are (i, j, r, monomial) and values are the resulting dicts of
    int or Fraction coefficients (all int on an integral weight), which
    are never mutated after insertion.  Unit vectors are ``int`` too, so
    on an integral weight every action on them stays in ``int``.
    ``contravariant_pairing`` stores its level recursion in the same dict,
    under keys (m1, m2) with int or Fraction values, below the top level
    only with m1 <= m2.  t_ij^(0) = delta_ij applied to a vector stores
    no key.

    ``_tail`` is the projection degree, ``None`` by default.  Only
    ``irreducible_weight_dims`` sets it, to p = deg(mu) on the canonical
    polynomial weights of mu: there the monomials with an index > p span
    a submodule N inside the radical of the contravariant form, and the
    cache computes in M/N, where t_21^(r), r > ``_tail``, acts by zero.
    That insertion is the only place the kernel creates an index, so the
    rule is exact on the precondition that every monomial handed to a
    projecting cache has all indices <= ``_tail``; a monomial of N
    handed in is not reduced.  A cache with ``_tail`` set gives pairings
    equal to a plain cache but not PBW normal forms of M.
    """

    __slots__ = ("hw", "data", "_tail")

    def __init__(self, hw: HighestWeightGL2):
        self.hw = hw
        self.data: dict = {}
        self._tail: Optional[int] = None


def bind_cache(hw: HighestWeightGL2, cache: Optional[ActionCache]) -> ActionCache:
    """The cache a computation on weight hw runs in: ``cache``, or a fresh one.

    Every public entry that takes a cache calls this once, so the kernels
    below read the weight from ``cache.hw`` alone.
    """
    if cache is None:
        return ActionCache(hw)
    if cache.hw is not hw and cache.hw != hw:
        raise InputError("action cache is bound to a different highest weight")
    return cache


def _check_indices(i: int, j: int, r: int) -> None:
    if i not in (1, 2) or j not in (1, 2):
        raise InputError(f"generator indices must be in {{1,2}}, got ({i},{j})")
    if r < 0:
        raise InputError(f"generator degree must be >= 0, got {r}")


def _add_into(acc: dict, mono: Monomial, c: int | Fraction) -> None:
    # start from the first term: 0 + Fraction would take Fraction.__radd__
    prev = acc.get(mono)
    total = c if prev is None else prev + c
    if total:
        acc[mono] = total
    elif prev is not None:
        del acc[mono]


def _add_scaled_into(acc: dict, terms: Mapping, c: int | Fraction) -> dict:
    """Accumulate c * terms into acc, in place; returns acc."""
    for mono, x in terms.items():
        _add_into(acc, mono, c * x)
    return acc


def _act_mono(i: int, j: int, r: int, mono: Monomial, cache: ActionCache) -> dict:
    """Action of t_ij^(r) on one basis monomial, as a coefficient dict."""
    key = (i, j, r, mono)
    hit = cache.data.get(key)
    if hit is not None:
        return hit
    if r == 0:
        res = {mono: 1} if i == j else {}
    elif i == 2 and j == 1:
        # t_21^(r), r > _tail, acts by zero: the one place an index > p is born
        tail = cache._tail
        res = {} if tail is not None and r > tail else {_insert(mono, r): 1}
    elif not mono:
        if i == 1 and j == 2:
            res = {}
        else:
            c = cache.hw.coeff(i, r)
            # integral weights keep the whole kernel in int arithmetic
            res = {(): _narrow(c)} if c else {}
    else:
        s = mono[0]
        rest = mono[1:]
        hbar = cache.hw.hbar
        acc: dict = {}
        for m2, c in _act_mono(i, j, r, rest, cache).items():
            _add_into(acc, _insert(m2, s), c)
        for a in range(1, min(r, s) + 1):
            x, y = a - 1, r + s - a
            # [t_ij^(r), t_21^(s)] = hbar sum_a ( t_2j^(a-1) t_i1^(r+s-a)
            #                                     - t_2j^(r+s-a) t_i1^(a-1) )
            _act_into(acc, 2, j, x, _act_mono(i, 1, y, rest, cache), cache, hbar)
            _act_into(acc, 2, j, y, _act_mono(i, 1, x, rest, cache), cache, -hbar)
        res = acc
    cache.data[key] = res
    return res


def _act_into(acc: dict, i: int, j: int, r: int, terms: Mapping, cache, sign=1) -> dict:
    """Accumulate sign * t_ij^(r) applied to the vector ``terms`` into acc,
    in place, term by term; returns acc.  The one vector-level action loop:
    a product t t' of generators acts on a monomial m as this loop run on
    the image ``_act_mono(t', m)``.  t_ij^(0) = delta_ij is applied here,
    with no lookup and no r = 0 key."""
    if not r:
        return _add_scaled_into(acc, terms, sign) if i == j else acc
    for mono, c in terms.items():
        cs = c * sign
        # _add_scaled_into's loop, inlined: the kernel recursion runs here
        for m2, c2 in _act_mono(i, j, r, mono, cache).items():
            _add_into(acc, m2, cs * c2)
    return acc


def _t_times(
    acc: dict, i: int, j: int, n: int, ys: Sequence[dict], cache: ActionCache, sign=1, shift=0
) -> dict:
    """Add sign times the u^{-n} coefficient of (t_ij(u + shift) - delta_ij) Y(u)
    into acc, in place; returns acc.

    That coefficient is sum_{x=1}^{n} sum_{s=1}^{x} w(s, x) t_ij^(s) Y_{n-x},
    w(s, x) the u^{-x} coefficient of (u + shift)^{-s} (at shift 0 only
    w(x, x) = 1), read from Y_0, ..., Y_{n-1} and taken from x = n down to
    1, s = x down to 1: the one loop over such products, for the solves and
    products of the Gauss layer and for the quantum determinant.
    """
    for x in range(n, 0, -1):
        y = ys[n - x]
        if not shift:
            _act_into(acc, i, j, x, y, cache, sign)
        elif y:
            for s in range(x, 0, -1):
                _act_into(acc, i, j, s, y, cache, sign * shifted_power_coeff(s, x, shift))
    return acc


def act_generator(
    i: int,
    j: int,
    r: int,
    v: ModuleVector,
    hw: HighestWeightGL2,
    cache: Optional[ActionCache] = None,
) -> ModuleVector:
    """Apply t_ij^(r) to a vector, returning its PBW normal form.

    The degree-0 convention t_ij^(0) = delta_ij is honored, so r = 0 gives
    the identity (i == j) or zero (i != j).
    """
    _check_indices(i, j, r)
    return ModuleVector._of(_act_into({}, i, j, r, v.terms, bind_cache(hw, cache)))


def act_quantum_det(
    r: int,
    v: ModuleVector,
    hw: HighestWeightGL2,
    cache: Optional[ActionCache] = None,
) -> ModuleVector:
    """Apply the u^{-r} coefficient of the quantum determinant of Y_hbar,

        qdet(u) = t_11(u) t_22(u-hbar) - t_21(u) t_12(u-hbar),

    hbar = ``hw.hbar``.  With A(u) = t_22(u-hbar) v and B(u) = t_12(u-hbar) v,
    read coefficientwise by ``_t_times`` with the shift -hbar,

        qdet^(r) v = A_r + sum_b t_11^(b) A_{r-b} - sum_b t_21^(b) B_{r-b}.

    On the highest vector this gives lambda1(u) lambda2(u-hbar); centrality
    on the whole module is a tested consequence of the defining relations.
    """
    if r < 0:
        raise InputError("quantum determinant degree must be >= 0")
    cache = bind_cache(hw, cache)
    shift = -cache.hw.hbar
    # v as the series Y(u) = v, constant in u; A_0 = v, B_0 = 0
    ys = [v.terms] + [{}] * r
    a = [_t_times(dict(ys[x]), 2, 2, x, ys, cache, 1, shift) for x in range(r + 1)]
    b = [_t_times({}, 1, 2, x, ys, cache, 1, shift) for x in range(r)]
    out = _t_times(a.pop(), 1, 1, r, a, cache)
    return ModuleVector._of(_t_times(out, 2, 1, r, b, cache, -1))


def in_tail_submodule(v: ModuleVector, p: int) -> bool:
    """True iff every monomial of v contains some index exceeding p.

    The span of such monomials is a proper submodule whenever both weight
    series are polynomials in u^{-1} of degree <= p (the zero vector
    belongs to it vacuously).
    """
    if p < 0:
        raise InputError("p must be >= 0")
    return all(any(idx > p for idx in m) for m in v.terms)


def nondecreasing_tuples(length: int, smallest: int, budget: int) -> Iterator[Monomial]:
    """Lazily yield, in lexicographic order, the non-decreasing tuples of
    ``length`` entries, each >= ``smallest``, whose sum is <= ``budget``."""
    if not length:
        yield ()
        return
    # the remaining entries are all >= r, so r * length <= budget
    for r in range(smallest, budget // length + 1):
        for rest in nondecreasing_tuples(length - 1, r, budget - r):
            yield (r, *rest)


def basis_monomials(max_level: int, max_degree: int) -> list[Monomial]:
    """All PBW basis monomials with level <= max_level and degree <= max_degree.

    Ordered by (level, lexicographic), starting with the empty monomial
    (the highest vector).
    """
    if max_level < 0 or max_degree < 0:
        raise InputError("max_level and max_degree must be >= 0")
    # indices are >= 1, so no level past max_degree has a monomial
    levels = range(min(max_level, max_degree) + 1)
    return [m for k in levels for m in nondecreasing_tuples(k, 1, max_degree)]
