"""Every public entry that takes an ActionCache gives one answer per route.

``cache=None`` (a fresh cache for the call), an explicit fresh cache and
a cache shared with every other entry and already warm must agree.  A
cache bound to another weight is rejected, also when its memo already
holds the keys the call would read.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, islice

import pytest

from yverma.character import contravariant_pairing
from yverma.errors import InputError
from yverma.gauss import (
    act_e,
    act_f,
    act_h,
    act_h_via_quantum_det,
    as_gl2_weights,
    e_series,
)
from yverma.rational import parse_rational_fn
from yverma.selftest import rtt_relation_defect
from yverma.series import expand_rational
from yverma.singular import expand_f_monomial, expand_f_vector, verify_singular
from yverma.verma import (
    ActionCache,
    ModuleVector,
    act_generator,
    act_quantum_det,
    canonical_polynomial_weights,
)

_V = ModuleVector.basis([1, 2]) + ModuleVector.highest()

#: entry name -> call(mu, hw, cache); mu is the weight as given, hw its gl(2) pair
ENTRIES = {
    "act_generator": lambda mu, hw, c: act_generator(1, 2, 2, _V, hw, c),
    "act_quantum_det": lambda mu, hw, c: act_quantum_det(2, _V, hw, c),
    "contravariant_pairing": lambda mu, hw, c: contravariant_pairing((1, 2), (1, 2), hw, c),
    "verify_singular": lambda mu, hw, c: verify_singular(ModuleVector.basis([2]), mu, 3, c),
    "expand_f_monomial": lambda mu, hw, c: expand_f_monomial((0, 1), hw, c),
    "expand_f_vector": lambda mu, hw, c: expand_f_vector({(0,): 1, (1,): 1}, mu, c),
    "rtt_relation_defect": lambda mu, hw, c: rtt_relation_defect(1, 2, 2, 2, 1, 1, _V, hw, c),
    "e_series": lambda mu, hw, c: list(islice(e_series(_V, mu, c), 3)),
    "act_e": lambda mu, hw, c: act_e(1, _V, mu, c),
    "act_f": lambda mu, hw, c: act_f(1, _V, mu, c),
    "act_h": lambda mu, hw, c: act_h(1, _V, mu, c),
    "act_h_via_quantum_det": lambda mu, hw, c: act_h_via_quantum_det(1, _V, mu, c),
}

#: (weight, another weight): one rational, one truncated series
WEIGHTS = {
    "rational": (parse_rational_fn("(u+2)/(u+1)"), parse_rational_fn("(u+3)/(u+1)")),
    "series": (
        expand_rational(parse_rational_fn("(u+5)/(u+2)"), 12),
        expand_rational(parse_rational_fn("(u+4)/(u+2)"), 12),
    ),
}


@pytest.mark.parametrize("weight", WEIGHTS)
@pytest.mark.parametrize("entry", ENTRIES)
def test_cache_routes_agree(entry, weight):
    mu = WEIGHTS[weight][0]
    hw = as_gl2_weights(mu)
    call = ENTRIES[entry]
    expected = call(mu, hw, None)
    assert call(mu, hw, ActionCache(hw)) == expected
    shared = ActionCache(hw)
    for warm in ENTRIES.values():
        warm(mu, hw, shared)
    assert call(mu, hw, shared) == expected


@pytest.mark.parametrize("weight", WEIGHTS)
@pytest.mark.parametrize("entry", ENTRIES)
def test_cache_of_another_weight_rejected(entry, weight):
    mu, other = WEIGHTS[weight]
    call = ENTRIES[entry]
    other_hw = as_gl2_weights(other)
    foreign = ActionCache(other_hw)
    with pytest.raises(InputError, match="different highest weight"):
        call(mu, as_gl2_weights(mu), foreign)
    call(other, other_hw, foreign)  # now the memo holds every key the call reads
    with pytest.raises(InputError, match="different highest weight"):
        call(mu, as_gl2_weights(mu), foreign)


def _pair_level(hw, cache, level, top):
    """Pair every two level-``level`` monomials with indices <= top in ``cache``."""
    monos = list(combinations_with_replacement(range(1, top + 1), level))
    for m1 in monos:
        for m2 in monos:
            contravariant_pairing(m1, m2, hw, cache)


def _cached_values(cache):
    """Every cached pairing and every coefficient of every cached action."""
    for key, value in cache.data.items():
        if len(key) == 2:  # pairing memo (m1, m2)
            yield value
        else:
            yield from value.values()


def test_integral_weight_caches_only_ints():
    # every kernel value of an integral weight stays a Python int; a stray
    # Fraction constant anywhere in the kernel would turn some of them
    hw = canonical_polynomial_weights(parse_rational_fn("(u+3)(u+5)/((u+1)(u+2))"))
    cache = ActionCache(hw)
    _pair_level(hw, cache, 3, 4)
    values = list(_cached_values(cache))
    assert len(values) > 400
    assert all(type(x) is int for x in values)


@pytest.mark.parametrize(
    "weight",
    [
        parse_rational_fn("(u+7/2)(u+3)/((u+1)(u+2))"),
        expand_rational(parse_rational_fn("(u+5/3)/(u+2)"), 16),
    ],
    ids=["half-integral", "series"],
)
def test_other_weights_cache_ints_and_fractions_never_floats(weight):
    hw = as_gl2_weights(weight)
    cache = ActionCache(hw)
    _pair_level(hw, cache, 3, 3)
    for call in ENTRIES.values():
        call(weight, hw, cache)
    values = list(_cached_values(cache))
    assert any(type(x) is Fraction for x in values)
    assert all(type(x) in (int, Fraction) for x in values)
