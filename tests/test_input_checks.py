"""Library input checks that no command reaches: each raises with its own message."""

import pytest

from yverma import (
    POLY_ONE,
    POLY_ZERO,
    SERIES_ONE,
    InputError,
    ModuleVector,
    RationalFn,
    character_formula,
    expand_rational,
    in_tail_submodule,
    is_rational_verdict,
    parse_rational_fn,
    rational_roots,
    verify_singular,
)
from yverma.verma import HighestWeightGL2

MU = parse_rational_fn("(u+2)/(u+1)")
V = ModuleVector.basis([1])
NOT_A_SERIES = object()

CHECKS = {
    "rational_roots": (
        lambda: rational_roots(POLY_ZERO),
        InputError,
        "zero polynomial has no root list",
    ),
    "RationalFn": (
        lambda: RationalFn(POLY_ONE, POLY_ZERO),
        InputError,
        "denominator polynomial is zero",
    ),
    "expand_rational": (
        lambda: expand_rational(MU, -1),
        InputError,
        "expansion order must be nonnegative",
    ),
    "character_formula": (
        lambda: character_formula(MU, -1),
        InputError,
        "max_level must be >= 0",
    ),
    "verify_singular": (lambda: verify_singular(V, MU, -1), InputError, "rmax must be >= 0"),
    "in_tail_submodule": (lambda: in_tail_submodule(V, -1), InputError, "p must be >= 0"),
    "ModuleVector.from_obj": (
        lambda: ModuleVector.from_obj({}),
        InputError,
        "malformed vector object: 'terms'",
    ),
    "HighestWeightGL2.coeff": (
        lambda: HighestWeightGL2(SERIES_ONE, SERIES_ONE).coeff(3, 1),
        InputError,
        "diagonal index must be 1 or 2, got 3",
    ),
    "is_rational_verdict": (
        lambda: is_rational_verdict(NOT_A_SERIES, 1),
        InputError,
        f"not a weight series: {NOT_A_SERIES!r}",
    ),
    "divmod": (
        lambda: divmod(POLY_ONE, POLY_ZERO),
        ZeroDivisionError,
        "polynomial division by zero",
    ),
}


@pytest.mark.parametrize("name", CHECKS)
def test_check_raises_its_message(name):
    call, error, message = CHECKS[name]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
