import cmath
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from modinv.scalars import (
    Cyclotomic,
    GuardError,
    _Packing,
    cyclotomic_polynomial,
    factorize,
    phase_fraction,
    ramanujan_sums,
    rational_phase,
    root_of_unity,
    sqrt_nonneg_int,
)

from oracle import close, croot


def test_root_of_unity_identity():
    assert root_of_unity(1, 0).is_one()
    assert root_of_unity(7, 0).is_one()


def test_root_of_unity_squares_to_minus_one():
    i = root_of_unity(4, 1)
    assert i * i == root_of_unity(2, 1)
    assert i * i == -1


def test_minimal_polynomial_of_zeta3():
    # 1 + z3 + z3^2 = 0, so z3 + z3^2 = -1; float oracle agrees.
    v = root_of_unity(3, 1) + root_of_unity(3, 2)
    assert v == Cyclotomic.from_rational(-1)
    assert close(croot(3, 1) + croot(3, 2), -1.0)


def test_order_of_result_divides_input():
    assert root_of_unity(4, 2).order == 2
    assert root_of_unity(12, 8).order == 3
    assert root_of_unity(9, 3).order == 3


def test_rejects_zero_order():
    with pytest.raises(ValueError):
        root_of_unity(0, 1)


def test_order_guard():
    with pytest.raises(GuardError):
        root_of_unity(10**6 + 1, 1)


def test_sqrt_perfect_square():
    assert sqrt_nonneg_int(4) == 2
    assert sqrt_nonneg_int(0).is_zero()
    assert sqrt_nonneg_int(1).is_one()


def test_sqrt_two():
    r = sqrt_nonneg_int(2)
    assert r == root_of_unity(8, 1) + root_of_unity(8, -1)
    assert r * r == 2


def test_sqrt_three():
    # positive root: equals -i(1 + 2 z3); float oracle fixes the sign
    r = sqrt_nonneg_int(3)
    assert r == -root_of_unity(4, 1) * (1 + 2 * root_of_unity(3, 1))
    assert r * r == 3
    assert close(r.approx(), 3**0.5)


@pytest.mark.parametrize("n", list(range(201)))
def test_sqrt_squares_back(n):
    r = sqrt_nonneg_int(n)
    assert r * r == n
    assert close(r.approx(), n**0.5)


def reference_sqrt(n):
    """sqrt(n) built as before: m times sqrt(2) times the Gauss sum of f, summed
    one root of unity at a time, each step a Cyclotomic operation."""
    if n == 0:
        return Cyclotomic.zero()
    m = f = 1
    for p, e in factorize(n).items():
        m *= p ** (e // 2)
        f *= p ** (e % 2)
    out = Cyclotomic.from_rational(m)
    if f % 2 == 0:
        out = out * (root_of_unity(8, 1) + root_of_unity(8, -1))
        f //= 2
    if f > 1:
        g = Cyclotomic(f, {})
        for k in range(f):
            g = g + root_of_unity(f, k * k)
        out = out * (g if f % 4 == 1 else root_of_unity(4, -1) * g)
    return out


@pytest.mark.parametrize("n", list(range(201)) + [211, 307, 4 * 3 * 5 * 7])
def test_sqrt_terms_match_reference(n):
    r, ref = sqrt_nonneg_int(n), reference_sqrt(n)
    assert (r.order, sorted(r.terms())) == (ref.order, sorted(ref.terms()))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 12, 18, 20, 45, 72, 105])
def test_sqrt_over_n_is_the_inverse(n):
    r = sqrt_nonneg_int(n)
    assert (r / n).canonical() == r.inverse().canonical()


def test_factorize_small_integers():
    for n in range(1, 2001):
        f = factorize(n)
        assert prod(p**e for p, e in f.items()) == n
        for p, e in f.items():
            assert e >= 1 and p >= 2 and all(p % d for d in range(2, p))
    assert factorize(1) == {}


def test_compare_across_orders():
    assert root_of_unity(2, 1) == root_of_unity(4, 2)
    assert root_of_unity(6, 1) == -root_of_unity(3, 2)
    assert root_of_unity(5, 1) != root_of_unity(5, 2)


def test_embedding_round_trip():
    v = root_of_unity(6, 1) + Fraction(1, 2)
    assert v.at_order(24).at_order(48) == v


def test_conjugation():
    a = root_of_unity(5, 2) + 3 * root_of_unity(5, 4)
    assert a.conj().conj() == a
    prod = a.conj() * a
    # |a|^2 is real: fixed by conjugation
    assert prod.conj() == prod


def test_inverse_general():
    a = 1 + 2 * root_of_unity(7, 3) + root_of_unity(7, 5)
    assert (a * a.inverse()).is_one()
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.zero().inverse()


def test_rational_phase():
    assert rational_phase(Fraction(1, 2)) == -1
    assert rational_phase(Fraction(3, 4)) == -root_of_unity(4, 1)
    assert rational_phase(Fraction(0)) == 1


def test_serialization_round_trip():
    a = sqrt_nonneg_int(5) / 5 + root_of_unity(3, 1)
    j = a.to_json()
    assert len(j["c"]) == j["N"]
    assert Cyclotomic.from_json(j) == a


@pytest.mark.parametrize(
    "obj",
    [
        None,
        {},
        [4, ["0", "1", "0", "0"]],
        {"N": 2},
        {"c": ["0", "1"]},
        {"N": "2", "c": ["0", "1"]},
        {"N": 2.5, "c": ["0", "1"]},
        {"N": None, "c": ["0", "1"]},
        {"N": 2, "c": "01"},
        {"N": 2, "c": [None, "1"]},
        {"N": 2, "c": [[1], "0"]},
        {"N": 2, "c": ["0"]},
    ],
)
def test_from_json_rejects_malformed(obj):
    with pytest.raises(ValueError):
        Cyclotomic.from_json(obj)


@lru_cache(maxsize=None)
def _candidates(m):
    return [rational_phase(Fraction(k, m)).at_order(m).canonical() for k in range(m)]


def _scan_phase(x):
    # reference: compare x with each e^(2 pi i k/m), m = lcm(2, order), in turn
    m = lcm(2, x.order)
    key = x.at_order(m).canonical()
    for k, candidate in enumerate(_candidates(m)):
        if key == candidate:
            return Fraction(k, m)
    raise ValueError("not a root of unity")


def test_phase_fraction_matches_scan():
    for m in range(1, 49):
        for k in range(m):
            x = rational_phase(Fraction(k, m))
            assert phase_fraction(x) == _scan_phase(x) == Fraction(k, m)
            # the same value written at a larger order
            assert phase_fraction(x.at_order(2 * m)) == Fraction(k, m)


@pytest.mark.parametrize(
    "x",
    [Cyclotomic.zero(), Cyclotomic.from_rational(2), 1 + root_of_unity(4, 1)],
    ids=["0", "2", "1+i"],
)
def test_phase_fraction_rejects_non_roots(x):
    with pytest.raises(ValueError, match="not a root of unity"):
        phase_fraction(x)


def test_serialization_shape():
    j = root_of_unity(4, 3).to_json()
    assert j == {"N": 4, "c": ["0", "-1", "0", "0"]}


def test_cyclotomic_polynomial_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


@lru_cache(maxsize=None)
def reference_cyclotomic_polynomial(n):
    """x^n - 1 divided by Phi_d for every proper divisor d of n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = reference_cyclotomic_polynomial(d)
            out = [0] * (len(poly) - len(den) + 1)
            for i in range(len(out) - 1, -1, -1):
                out[i] = c = poly[i + len(den) - 1]  # every Phi_d is monic
                for j, dj in enumerate(den):
                    poly[i + j] -= c * dj
            assert not any(poly)
            poly = out
    return tuple(poly)


def test_cyclotomic_polynomial_matches_division_recursion():
    for n in range(1, 401):
        assert cyclotomic_polynomial(n) == reference_cyclotomic_polynomial(n), n


def test_ramanujan_sums_are_traces():
    # Tr(zeta_n^j) = Sum over units a mod n of zeta_n^(a j), summed as Cyclotomic values
    for n in list(range(1, 61)) + [84, 120]:
        units = [a for a in range(n) if gcd(a, n) == 1]
        traces = []
        for j in range(n):
            t = Cyclotomic(n, Counter(a * j % n for a in units))
            assert t.is_rational()
            traces.append(t.as_rational())
        assert ramanujan_sums(n) == tuple(traces), n
        assert ramanujan_sums(n)[0] == len(cyclotomic_polynomial(n)) - 1


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, 2, 3, 8, 24, 56]), st.data())
def test_packing_constant_reads_the_lowest_coefficient(N, data):
    # a sum of products of reduced packed values, as verlinde forms it, unreduced
    bound = data.draw(st.sampled_from([3, 255, 2**40]))
    pk = _Packing(N, bound)
    length = data.draw(st.integers(1, 6))
    small = st.integers(-7, 7)
    fs = [data.draw(st.lists(small, min_size=N, max_size=N)) for _ in range(length)]
    gs = [data.draw(st.lists(small, min_size=N, max_size=N)) for _ in range(length)]
    coeffs = [0] * N
    for f, g in zip(fs, gs):
        for i, x in enumerate(f):
            for j, y in enumerate(g):
                coeffs[(i + j) % N] += x * y
    if max(map(abs, coeffs)) > bound:
        return
    u = sum(pk.pack(dict(enumerate(f))) * pk.pack(dict(enumerate(g))) for f, g in zip(fs, gs))
    assert pk.constant(u) == coeffs[0]
    assert pk.constant(-u) == -coeffs[0]


small_roots = st.builds(
    lambda n, k: root_of_unity(n, k), st.integers(1, 12), st.integers(-12, 12)
)
small_values = st.builds(
    lambda r, c, q: c * r + Fraction(q, 3),
    small_roots,
    st.integers(-3, 3),
    st.integers(-3, 3),
)


@settings(max_examples=60, deadline=None)
@given(small_values, small_values, small_values)
def test_ring_axioms(a, b, c):
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)


@settings(max_examples=40, deadline=None)
@given(small_values)
def test_conj_involution_and_norm(a):
    assert a.conj().conj() == a
    nrm = a * a.conj()
    assert nrm.conj() == nrm  # real
    assert nrm.approx().real >= -1e-9


@settings(max_examples=40, deadline=None)
@given(small_values)
def test_float_embedding_consistent(a):
    b = a.at_order(a.order * 2)
    assert close(a.approx(), b.approx())
