"""Deterministic desk-scale property suite over the whole library.

Each property re-derives an algebraic identity from scratch on small,
seeded-random instances (levels <= 2, degrees <= 4, generator indices
<= 3) and passes only on exact equality.  The suite is the runtime
counterpart of the test suite: it can be run on any install via the CLI
(``verma selftest``) and its report is byte-deterministic for a fixed
seed, so two runs with the same seed must agree exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import comb
from typing import Callable, Optional

from .character import character_formula, contravariant_pairing, irreducible_weight_dims
from .errors import InputError, _record
from .gauss import act_e, act_f, act_h, act_h_via_quantum_det, as_gl2_weights
from .rational import PolyQ, RationalFn
from .recurrence import detect_recurrence
from .rootsys import cartan_matrix, positive_roots, spanning_count, symmetrizers
from .series import (
    SERIES_ONE,
    expand_rational,
    series_from_tail,
    series_mul,
    series_shift_argument,
)
from .singular import canonical_singular_vector, expand_f_vector, verify_singular
from .verma import (
    ActionCache,
    HighestWeightGL2,
    ModuleVector,
    Monomial,
    _act_into,
    _act_mono,
    _check_indices,
    act_generator,
    act_quantum_det,
    basis_monomials,
    bind_cache,
    canonical_polynomial_weights,
    in_tail_submodule,
)

_GENERATOR_PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2))
#: Tail length of the random truncated weight series the properties draw.
_SERIES_ORDER = 32


def rtt_relation_defect(
    i: int,
    j: int,
    r: int,
    k: int,
    l: int,
    s: int,
    vec: ModuleVector,
    hw: HighestWeightGL2,
    cache: Optional[ActionCache] = None,
) -> ModuleVector:
    """[t_ij^(r), t_kl^(s)] vec minus its defining expansion; zero iff the
    relation holds on vec.

    The expansion is sum over a = 1..min(r,s) of
    (t_kj^(a-1) t_il^(r+s-a) - t_kj^(r+s-a) t_il^(a-1)) vec.  All of it is
    accumulated in one dict, term by term of vec, so each outer generator
    acts on every term's image before the terms are summed: on a truncated
    weight a vec of several terms can run out at another lookup than the
    products of whole-vector actions, and its ``TruncationError`` then
    names another missing coefficient.
    """
    _check_indices(i, j, r)
    _check_indices(k, l, s)
    cache = bind_cache(hw, cache)
    acc: dict = {}
    for mono, c in vec.terms.items():
        _act_into(acc, i, j, r, _act_mono(k, l, s, mono, cache), cache, c)
        _act_into(acc, k, l, s, _act_mono(i, j, r, mono, cache), cache, -c)
        for a in range(1, min(r, s) + 1):
            _act_into(acc, k, j, a - 1, _act_mono(i, l, r + s - a, mono, cache), cache, -c)
            _act_into(acc, k, j, r + s - a, _act_mono(i, l, a - 1, mono, cache), cache, c)
    return ModuleVector._of(acc)


@_record
class PropertyResult:
    name: str
    passed: bool
    detail: str

    def to_obj(self) -> dict:
        return {"name": self.name, "pass": self.passed, "detail": self.detail}


@_record
class SelftestReport:
    seed: int
    properties: tuple[PropertyResult, ...]

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.properties)

    def to_obj(self) -> dict:
        return {
            "pass": self.passed,
            "properties": [p.to_obj() for p in self.properties],
            "seed": self.seed,
        }


def _random_rational_weight(rng: random.Random, max_degree: int = 2) -> RationalFn:
    """A random monic rational weight with small integer roots."""
    while True:
        deg = rng.randint(1, max_degree)
        num = PolyQ([Fraction(rng.randint(-4, 4)) for _ in range(deg)] + [1])
        den = PolyQ([Fraction(rng.randint(-4, 4)) for _ in range(deg)] + [1])
        if num.degree != deg or den.degree != deg or num == den:
            continue
        try:
            f = RationalFn(num, den)
        except InputError:
            continue
        if f.degree == deg:
            return f


def _random_series_weight(rng: random.Random) -> HighestWeightGL2:
    tail = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(_SERIES_ORDER)]
    return HighestWeightGL2(series_from_tail(tail), SERIES_ONE)


def _sample_monomials(
    rng: random.Random, count: int, skip_highest: bool = False
) -> list[Monomial]:
    pool = basis_monomials(max_level=2, max_degree=4)[1 if skip_highest else 0 :]
    rng.shuffle(pool)
    return pool[:count]


class _Fail(Exception):
    """A property's first counterexample; its message is the report detail.

    Each ``_check_*`` draws its instances from its ``rng``, raises this at
    its first counterexample and otherwise returns its pass detail.
    """


def _check_rtt_relations(rng: random.Random) -> str:
    checked = 0
    for hw in (as_gl2_weights(_random_rational_weight(rng)), _random_series_weight(rng)):
        cache = ActionCache(hw)
        for mono in _sample_monomials(rng, 4):
            vec = ModuleVector.basis(mono)
            for (i, j), (k, l), r, s in product(
                _GENERATOR_PAIRS, _GENERATOR_PAIRS, range(1, 4), range(1, 4)
            ):
                if not rtt_relation_defect(i, j, r, k, l, s, vec, hw, cache).is_zero():
                    raise _Fail(f"defect at t{i}{j}({r}),t{k}{l}({s}) on {mono}")
                checked += 1
    return f"{checked} commutators"


def _check_drinfeld_relations(rng: random.Random) -> str:
    hw = as_gl2_weights(_random_rational_weight(rng))
    cache = ActionCache(hw)
    checked = 0
    for mono in _sample_monomials(rng, 3):
        vec = ModuleVector.basis(mono)
        for r, s in product(range(3), range(3)):
            lhs = act_e(r, act_f(s, vec, hw, cache), hw, cache)
            lhs -= act_f(s, act_e(r, vec, hw, cache), hw, cache)
            if lhs != act_h(r + s, vec, hw, cache):
                raise _Fail(f"[e({r}),f({s})] on {mono}")
            hh = act_h(r, act_h(s, vec, hw, cache), hw, cache)
            hh -= act_h(s, act_h(r, vec, hw, cache), hw, cache)
            if not hh.is_zero():
                raise _Fail(f"[h({r}),h({s})] on {mono}")
            checked += 2
    return f"{checked} commutators"


def _check_h_route_agreement(rng: random.Random) -> str:
    hw = as_gl2_weights(_random_rational_weight(rng))
    cache = ActionCache(hw)
    checked = 0
    for mono in _sample_monomials(rng, 3):
        vec = ModuleVector.basis(mono)
        for r in range(3):
            if act_h(r, vec, hw, cache) != act_h_via_quantum_det(r, vec, hw, cache):
                raise _Fail(f"h({r}) on {mono}")
            checked += 1
    return f"{checked} comparisons"


def _check_qdet_central(rng: random.Random) -> str:
    hw = _random_series_weight(rng)
    cache = ActionCache(hw)
    checked = 0
    for mono in _sample_monomials(rng, 3):
        vec = ModuleVector.basis(mono)
        for r in range(1, 4):
            dv = act_quantum_det(r, vec, hw, cache)
            for (i, j), s in product(_GENERATOR_PAIRS, range(1, 4)):
                lhs = act_generator(i, j, s, dv, hw, cache)
                tv = act_generator(i, j, s, vec, hw, cache)
                if lhs != act_quantum_det(r, tv, hw, cache):
                    raise _Fail(f"[qdet({r}),t{i}{j}({s})] on {mono}")
                checked += 1
    return f"{checked} commutators"


def _check_highest_eigen(rng: random.Random) -> str:
    mu = _random_rational_weight(rng)
    hw = as_gl2_weights(mu)
    cache = ActionCache(hw)
    one = ModuleVector.highest()
    mu_series = expand_rational(mu, 8)
    for r in range(8):
        if act_h(r, one, hw, cache) != one.scaled(mu_series.coeff(r + 1)):
            raise _Fail(f"h({r})1")
    qdet_series = series_mul(hw.lambda1, series_shift_argument(hw.lambda2, -hw.hbar, order=6))
    for r in range(1, 6):
        if act_quantum_det(r, one, hw, cache) != one.scaled(qdet_series.coeff(r)):
            raise _Fail(f"qdet({r})1")
    return "h(u)1 to order 8, qdet(u)1 to order 5"


def _check_tail_submodule(rng: random.Random) -> str:
    mu = _random_rational_weight(rng)
    p = mu.degree
    hw = canonical_polynomial_weights(mu)
    cache = ActionCache(hw)
    checked = 0
    for mono in _sample_monomials(rng, 3):
        seed_vec = ModuleVector.basis(tuple(idx + p for idx in mono))
        if not in_tail_submodule(seed_vec, p):
            continue
        for (i, j), r in product(_GENERATOR_PAIRS, range(4)):
            if not in_tail_submodule(act_generator(i, j, r, seed_vec, hw, cache), p):
                raise _Fail(f"t{i}{j}({r}) leaves the tail span on {mono}")
            checked += 1
    return f"{checked} images"


def _check_weight_gradation(rng: random.Random) -> str:
    hw = _random_series_weight(rng)
    cache = ActionCache(hw)
    shifts = {(1, 1): 0, (2, 2): 0, (1, 2): -1, (2, 1): 1}
    checked = 0
    for mono in _sample_monomials(rng, 4):
        vec = ModuleVector.basis(mono)
        k = len(mono)
        for ((i, j), delta), r in product(shifts.items(), range(1, 4)):
            image = act_generator(i, j, r, vec, hw, cache)
            if image.is_zero():
                continue
            if image.levels() != [k + delta]:
                raise _Fail(f"t{i}{j}({r}) maps level {k} to {image.levels()}")
            checked += 1
    return f"{checked} images"


def _check_pairing(rng: random.Random) -> str:
    hw = canonical_polynomial_weights(_random_rational_weight(rng))
    cache = ActionCache(hw)
    checked = 0
    monos = _sample_monomials(rng, 6, skip_highest=True)
    for m1, m2 in product(monos, monos):
        if len(m1) != len(m2):
            continue
        a = contravariant_pairing(m1, m2, hw, cache)
        if a != contravariant_pairing(m2, m1, hw, cache):
            raise _Fail(f"<{m1},{m2}> != <{m2},{m1}>")
        checked += 1
    return f"{checked} pairs"


def _check_recurrence_roundtrip(rng: random.Random) -> str:
    for _ in range(6):
        f = _random_rational_weight(rng, max_degree=3)
        deg = f.degree
        series = expand_rational(f, 2 * deg + 4)
        tail = [series.coeff(r) for r in range(1, 2 * deg + 5)]
        witness = detect_recurrence(tail, deg)
        if witness is None or witness.recovered != f:
            raise _Fail(f"failed to recover {f}")
    return "6 round trips"


def _check_singular(rng: random.Random) -> str:
    mu = _random_rational_weight(rng)
    p = mu.degree
    cache = ActionCache(as_gl2_weights(mu))
    for s in (p, p + 1):
        zeta = expand_f_vector(canonical_singular_vector(mu, s), mu, cache=cache)
        if zeta != ModuleVector.basis((s + 1,)):
            raise _Fail(f"expansion at s={s} is not t21({s+1})1")
        if not verify_singular(zeta, mu, 6, cache):
            raise _Fail(f"e-annihilation fails at s={s}")
    return f"s = {p},{p+1} for {mu}"


def _check_gram_vs_character(rng: random.Random) -> str:
    alpha = rng.randint(1, 3)
    m = rng.randint(1, 3)
    mu = RationalFn(PolyQ([Fraction(alpha + m), 1]), PolyQ([Fraction(alpha), 1]))
    dims = character_formula(mu, 3).dims
    ranks = tuple(r.rank for r in irreducible_weight_dims(mu, 3))
    if dims != ranks:
        raise _Fail(f"{mu}: {ranks} vs {dims}")
    return f"{mu}: dims {dims}"


def _check_root_systems(rng: random.Random) -> str:
    for label, count in {"A1": 1, "A2": 3, "A3": 6, "B2": 4, "G2": 6}.items():
        if positive_roots(cartan_matrix(label)).count() != count:
            raise _Fail(f"{label} count")
    if symmetrizers([[2, -1], [-3, 2]]) != (3, 1):
        raise _Fail("G2 symmetrizers")
    p = rng.randint(1, 4)
    for k in range(5):
        if spanning_count([p], [k], [[2]]) != comb(p + k - 1, k):
            raise _Fail(f"spanning p={p} k={k}")
    return "A1,A2,A3,B2,G2 + spanning counts"


_PROPERTIES: tuple[tuple[str, Callable[[random.Random], str]], ...] = (
    ("rtt_relations", _check_rtt_relations),
    ("ef_commutator_is_h", _check_drinfeld_relations),
    ("h_two_route_agreement", _check_h_route_agreement),
    ("quantum_det_central", _check_qdet_central),
    ("highest_vector_eigen", _check_highest_eigen),
    ("tail_submodule_stable", _check_tail_submodule),
    ("level_gradation", _check_weight_gradation),
    ("pairing_symmetric", _check_pairing),
    ("recurrence_roundtrip", _check_recurrence_roundtrip),
    ("canonical_singular", _check_singular),
    ("gram_rank_matches_character", _check_gram_vs_character),
    ("root_counts", _check_root_systems),
)


def run_selftest(seed: int = 0) -> SelftestReport:
    """Run every property on seeded-random desk-scale instances.

    Each property draws from its own ``random.Random(seed, name)`` stream,
    so the report is a pure function of the seed and the library code.  A
    property fails at its first counterexample, and a property that raises
    anything else fails with ``raised <exception>``.
    """
    results = []
    for name, check in _PROPERTIES:
        rng = random.Random(f"{seed}:{name}")
        try:
            passed, detail = True, check(rng)
        except _Fail as fail:
            passed, detail = False, str(fail)
        except Exception as exc:  # a crash is a failing property, not a crash
            passed, detail = False, f"raised {exc!r}"
        results.append(PropertyResult(name, passed, detail))
    return SelftestReport(seed=seed, properties=tuple(results))
