"""The record classes behave as frozen dataclasses would.

``errors._record`` builds them without ``dataclasses``.  Each of the
classes it decorates is checked here: fields cannot be set or deleted,
equality holds only within one class, the hash is the hash of the tuple
of fields (so no set or dict order depends on the decorator), and a
record rebuilt from its fields, by position or by keyword, equals it.
The ``ModuleVector`` and ``SeriesU`` reprs read back through ``eval``.
"""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

import yverma as yv

_SRC = Path(__file__).resolve().parent.parent / "src" / "yverma"

_MU = yv.parse_rational_fn("(u+2)/(u+1)")
_SERIES = yv.SeriesU([1, 1, Fraction(1, 2), Fraction(1, 6)])
_WEIGHTS = yv.HighestWeightTuple([_MU, _SERIES])
_PROPERTY = yv.PropertyResult(name="rtt", passed=True, detail="ok")

# one instance of every record class, built as the library builds it
_INSTANCES = {
    "PolyQ": lambda: yv.PolyQ([1, 2, 0]),
    "RationalFn": lambda: _MU,
    "SeriesU": lambda: _SERIES,
    "HighestWeightGL2": lambda: yv.canonical_polynomial_weights(_MU),
    "RecurrenceWitness": lambda: yv.detect_recurrence([1] * 10, 2),
    "RationalityVerdict": lambda: yv.is_rational_verdict(_MU, 2),
    "SingularSearchResult": lambda: yv.find_singular(_MU, 1, 2),
    "GramReport": lambda: yv.irreducible_weight_dims(_MU, 1)[1],
    "CharacterResult": lambda: yv.character_formula(_MU, 2),
    "CartanData": lambda: yv.CartanData.from_matrix(yv.cartan_matrix("B2")),
    "RootSystem": lambda: yv.positive_roots(yv.cartan_matrix("G2")),
    "PropertyResult": lambda: _PROPERTY,
    "SelftestReport": lambda: yv.SelftestReport(seed=3, properties=(_PROPERTY,)),
    "HighestWeightTuple": lambda: _WEIGHTS,
    "ReducibilityVerdict": lambda: yv.classify(_WEIGHTS, 2)[0],
    "WeightFinitenessVerdict": lambda: yv.classify(_WEIGHTS, 2)[1],
}


def _field_names(x) -> tuple:
    return tuple(type(x).__annotations__)


def _fields(x) -> tuple:
    return tuple(getattr(x, name) for name in _field_names(x))


def test_every_record_class_is_checked():
    decorated = {
        node.name
        for path in _SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(d, ast.Name) and d.id == "_record" for d in node.decorator_list)
    }
    assert decorated == set(_INSTANCES)
    assert len(decorated) == 16


@pytest.fixture(params=sorted(_INSTANCES))
def record(request):
    x = _INSTANCES[request.param]()
    assert type(x).__name__ == request.param
    return x


def test_fields_cannot_be_set_or_deleted(record):
    for name in (*_field_names(record), "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert "extra" not in vars(record)


def test_hash_is_the_hash_of_the_field_tuple(record):
    try:
        expected = hash(_fields(record))
    except TypeError:  # the search result holds dicts and module vectors
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected


def test_rebuilt_by_position_or_keyword_it_is_equal(record):
    cls, values = type(record), _fields(record)
    assert cls(*values) == record
    assert cls(**dict(zip(_field_names(record), values))) == record
    assert record.__eq__(values) is NotImplemented
    assert record != values


def test_equal_fields_in_another_class_are_unequal():
    finite = yv.classify(_WEIGHTS, 2)[1]
    twin = yv.ReducibilityVerdict(finite.kind, finite.budget, finite.components)
    assert _fields(twin) == _fields(finite)
    assert twin != finite and finite != twin
    assert twin == yv.ReducibilityVerdict(*_fields(twin))


def test_defaults_fill_missing_fields():
    short = yv.RationalityVerdict("insufficient_data", budget=4)
    assert short == yv.RationalityVerdict("insufficient_data", 4, None, None)
    assert yv.SeriesU(coeffs=[1, 2]).exact is False


def test_generated_init_rejects_wrong_fields():
    for args, kwargs in [
        ((1, 2), {}),  # rank missing
        ((1, 2, 3, 4), {}),
        ((1, 2, 3), {"level": 1}),
        ((), {"level": 1, "spanning_size": 2, "rank": 1, "size": 2}),
    ]:
        with pytest.raises(TypeError):
            yv.GramReport(*args, **kwargs)


def test_a_class_keeps_its_own_repr():
    assert repr(_MU) == "RationalFn('(u+2)/(u+1)')"
    assert repr(_WEIGHTS).startswith("HighestWeightTuple(components=(RationalFn(")


def _random_scalar(rng):
    return rng.choice([rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 6))])


def test_vector_and_series_reprs_read_back():
    rng = random.Random(27)
    vectors = [yv.ModuleVector()]
    exact_expansion = yv.expand_rational(yv.parse_rational_fn("(u+1/2)(u-3)/u^2"), 4)
    series = [yv.SERIES_ONE, yv.expand_rational(_MU, 6), exact_expansion]
    for _ in range(200):
        monos = [[rng.randint(1, 4) for _ in range(rng.randint(0, 3))] for _ in range(4)]
        vectors.append(yv.ModuleVector((m, _random_scalar(rng)) for m in monos))
        tail = [_random_scalar(rng) for _ in range(rng.randint(0, 5))]
        series.append(yv.SeriesU([1, *tail], exact=rng.random() < 0.5))
    assert {type(c) for v in vectors for c in v.terms.values()} == {int, Fraction}
    assert [s.exact for s in series[:3]] == [True, False, True]
    names = {"ModuleVector": yv.ModuleVector, "SeriesU": yv.SeriesU, "Fraction": Fraction}
    for value in vectors + series:
        assert eval(repr(value), names) == value, repr(value)
