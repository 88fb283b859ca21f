"""JSON round trips and malformed-JSON fuzzing for every ``from_json``."""

import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modinv.abelian import FinAbGroup
from modinv.forms import Pairing, QuadraticForm, indecomposable_form
from modinv.lattice import Lattice, named
from modinv.modular import ModularData
from modinv.pointed import weil
from modinv.scalars import Cyclotomic

FACTORS = [(), (2,), (3,), (4,), (6,), (2, 2), (4, 2), (6, 2), (6, 3)]
DESCRIPTORS = ["2^1_1", "2^1_3", "3^1_+", "3^1_-", "2^2_1", "2^2_-3", "5^1_+", "2^12^1_i"]
LATTICES = ["A1", "A2", "A4", "D4", "E6", "E8", "sqrt2n:3"]


@st.composite
def cyclotomics(draw):
    order = draw(st.sampled_from([1, 2, 3, 4, 5, 8, 12, 24]))
    coeffs = st.builds(Fraction, st.integers(-(2**40), 2**40), st.integers(1, 50))
    return Cyclotomic(order, draw(st.dictionaries(st.integers(0, order - 1), coeffs, max_size=5)))


@st.composite
def pairings(draw):
    left = FinAbGroup(draw(st.sampled_from(FACTORS)))
    right = FinAbGroup(draw(st.sampled_from(FACTORS)))
    E = [
        [Fraction(draw(st.integers(-5, 5)), gcd(n, m)) for m in right.factors]
        for n in left.factors
    ]
    return Pairing(left, right, E)


@st.composite
def forms(draw):
    parts = draw(st.lists(st.sampled_from(DESCRIPTORS[:5]), min_size=1, max_size=2))
    return indecomposable_form(" x ".join(parts))[0]


@st.composite
def lattices(draw):
    L = named(draw(st.sampled_from(LATTICES)))
    if draw(st.booleans()):
        L = L.direct_sum(named(draw(st.sampled_from(LATTICES[:3]))))
    return L


@st.composite
def modular_data(draw):
    return weil(indecomposable_form(draw(st.sampled_from(DESCRIPTORS)))[0])


def same_modular_data(a, b):
    return (a.labels, a.unit, a.S, a.T) == (b.labels, b.unit, b.S, b.T)


KINDS = {
    "cyclotomic": (Cyclotomic, cyclotomics()),
    "pairing": (Pairing, pairings()),
    "form": (QuadraticForm, forms()),
    "lattice": (Lattice, lattices()),
    "modular": (ModularData, modular_data()),
}


@pytest.mark.parametrize("cls,objects", KINDS.values(), ids=KINDS.keys())
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_round_trip(cls, objects, data):
    x = data.draw(objects)
    back = cls.from_json(json.loads(json.dumps(x.to_json())))
    assert same_modular_data(back, x) if cls is ModularData else back == x


# -- fuzzing: every mutated document returns or raises ValueError -----------------


def _paths(obj, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _replaced(obj, path, value):
    if not path:
        return value
    copy = dict(obj) if isinstance(obj, dict) else list(obj)
    copy[path[0]] = _replaced(obj[path[0]], path[1:], value)
    return copy


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@st.composite
def mutated(draw, objects):
    doc = draw(objects).to_json()
    path = draw(st.sampled_from(list(_paths(doc))))
    old = _at(doc, path)
    choices = [None, "x", "1/0", "", 0.5, 2.0, True, -1, 10**9, [], {}]
    if isinstance(old, list):  # list -> str
        choices += [json.dumps(old), "".join(map(str, old))]
    if isinstance(old, str):  # str -> list
        choices += [[old], list(old)]
    return _replaced(doc, path, draw(st.sampled_from(choices)))


@pytest.mark.parametrize("cls,objects", KINDS.values(), ids=KINDS.keys())
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_json_returns_or_raises_value_error(cls, objects, data):
    doc = data.draw(mutated(objects))
    try:
        cls.from_json(doc)
    except ValueError:  # GuardError included
        pass


@pytest.mark.parametrize(
    "cls,doc",
    [
        (ModularData, {**weil(indecomposable_form("2^1_1")[0]).to_json(), "unit": True}),
        (Cyclotomic, {"N": True, "c": ["1"]}),
        (Lattice, {"gram": [[2, True], [True, 2]]}),
    ],
    ids=["modular-unit", "cyclotomic-order", "lattice-gram"],
)
def test_json_true_is_not_an_integer(cls, doc):
    with pytest.raises(ValueError, match="integer"):
        cls.from_json(doc)
