"""Even lattices: named tables, discriminant data, gluing, realization."""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import accumulate
from math import prod
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modinv import lattice
from modinv.abelian import FinAbGroup, GuardError, Subgroup, dual_quotient
from modinv.forms import (
    Pairing,
    _cyclic_normal_form,
    QuadraticForm,
    forms_equivalent,
    gauss_sum,
    indecomposable_form,
    standard_pairing,
)
from modinv.lattice import (
    DualVector,
    Lattice,
    discriminant,
    glue,
    intermediate,
    lattice_quotient,
    named,
    realize,
)
from modinv.modular import ModularData
from modinv.pointed import isotropic_subgroups
from modinv.scalars import Cyclotomic, factorize, root_of_unity

ALL_DESCRIPTORS = [
    "3^1_+", "3^1_-", "5^1_+", "5^1_-", "7^1_+", "7^1_-", "3^2_+", "3^2_-",
    "2^1_1", "2^1_3", "2^2_1", "2^2_3", "2^2_-1", "2^2_-3",
    "2^3_1", "2^3_3", "2^3_-1", "2^3_-3",
    "2^12^1_i", "2^12^1_ii", "2^22^2_i", "2^22^2_ii",
]


# -- construction and named lattices ----------------------------------------------


def test_named_ranks_and_determinants():
    table = {
        "A1": (1, 2), "A2": (2, 3), "A3": (3, 4), "A7": (7, 8),
        "D4": (4, 4), "D5": (5, 4), "D7": (7, 4),
        "E6": (6, 3), "E7": (7, 2), "E8": (8, 1),
        "sqrt2n:1": (1, 2), "sqrt2n:6": (1, 12),
    }
    for name, (rank, det) in table.items():
        L = named(name)
        assert (L.rank, L.det) == (rank, det), name
    for n in range(1, 12):
        assert named(f"A{n}").det == n + 1
    for n in range(2, 10):
        assert named(f"D{n}").det == 4


def test_named_spellings_agree():
    assert named("sqrt2n(4)") == named("sqrt2n:4") == named("sqrt2n4")
    assert named("E_8") == named("E8")
    assert named(" A2 ") == named("A2")


def test_named_rejects_unknown():
    for bad in ("F4", "A0", "D1", "sqrt2n:0", "B3", ""):
        with pytest.raises(ValueError):
            named(bad)


def test_named_rank_guard(monkeypatch):
    monkeypatch.setattr(lattice, "Lattice", None)  # no Gram may be built
    for big in ("A99990", "D257"):
        with pytest.raises(GuardError, match="rank"):
            named(big)


def test_lattice_validation():
    with pytest.raises(ValueError):
        Lattice([[1]])
    with pytest.raises(ValueError):
        Lattice([[2, 1], [0, 2]])
    with pytest.raises(ValueError):
        Lattice([[2, 0]])
    with pytest.raises(ValueError):
        Lattice([[2, 3], [3, 2]])
    with pytest.raises(ValueError):
        Lattice([[0]])


def test_lattice_rejects_non_integer_entries():
    for gram in ([[2.7]], [[Fraction(5, 2)]]):
        with pytest.raises(ValueError, match="integers"):
            Lattice(gram)
    with pytest.raises(ValueError, match="integers"):
        Lattice.from_json({"gram": [[4.9, -1.2], [-1.2, 2.0]]})
    assert Lattice([[4.0, Fraction(2)], [2, 4]]).gram == ((4, 2), (2, 4))


def test_rank_zero_lattice():
    L = Lattice(())
    assert L.rank == 0 and L.det == 1
    G, q, reps = discriminant(L)
    assert G.order == 1 and reps == ()
    v = DualVector(L, ())
    assert v.norm() == 0 and v.in_dual()
    assert lattice._congruent([(), ()], L.gram) == [[0, 0], [0, 0]]


@st.composite
def symmetric_grams(draw):
    """(A, gram): a random symmetric k x k integer gram and n x k integer rows A."""
    k, n = draw(st.integers(1, 6)), draw(st.integers(0, 5))
    gram = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            gram[i][j] = gram[j][i] = draw(st.integers(-(2**40), 2**40))
    A = [draw(st.lists(st.integers(-(2**30), 2**30), min_size=k, max_size=k)) for _ in range(n)]
    return A, gram


@settings(max_examples=150, deadline=None)
@given(symmetric_grams())
def test_congruent_matches_triple_loop(case):
    A, gram = case
    k = len(gram)
    reference = [
        [sum(a[i] * gram[i][j] * b[j] for i in range(k) for j in range(k)) for b in A] for a in A
    ]
    assert lattice._congruent(A, gram) == reference


def reference_pivots(rows):
    """Pivots of symmetric Gaussian elimination over Fraction, up to the first
    that is not positive: all n are positive iff the matrix is definite, and
    their product is then the determinant."""
    n = len(rows)
    work = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for i in range(n):
        piv = work[i][i]
        if piv <= 0:
            return pivots
        pivots.append(piv)
        for r in range(i + 1, n):
            f = work[r][i] / piv
            for c in range(i, n):
                work[r][c] -= f * work[i][c]
    return pivots


@st.composite
def symmetric_matrices(draw):
    """Random symmetric integer matrices (mostly indefinite), A·Aᵀ (singular
    when A has fewer columns than rows) and A·Aᵀ + I (definite)."""
    n = draw(st.integers(0, 5))
    kind = draw(st.sampled_from(["symmetric", "gram", "definite"]))
    if kind == "symmetric":
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                rows[i][j] = rows[j][i] = draw(st.integers(-6, 6))
        return rows
    m = draw(st.integers(0, n + 1))
    A = [[draw(st.integers(-3, 3)) for _ in range(m)] for _ in range(n)]
    shift = int(kind == "definite")
    return [
        [sum(x * y for x, y in zip(r, s)) + shift * (i == j) for j, s in enumerate(A)]
        for i, r in enumerate(A)
    ]


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices())
def test_leading_minors_match_fraction_pivots(rows):
    pivots = reference_pivots(rows)
    assert lattice._leading_minors(rows) == list(accumulate(pivots, mul))
    n = len(rows)
    doubled = [[2 * x for x in row] for row in rows]
    if len(pivots) == n:
        assert Lattice(doubled).det == 2**n * prod(pivots, start=Fraction(1))
    else:
        with pytest.raises(ValueError, match="positive definite"):
            Lattice(doubled)


def test_direct_sum_blocks():
    L = named("A1").direct_sum(named("A2"))
    assert L.gram == ((2, 0, 0), (0, 2, -1), (0, -1, 2))
    assert L.det == 6


def test_json_roundtrip():
    for name in ("A3", "E7", "sqrt2n:5"):
        L = named(name)
        blob = json.dumps(L.to_json())
        assert Lattice.from_json(json.loads(blob)) == L


@pytest.mark.parametrize(
    "from_json,obj",
    [
        (Lattice.from_json, {"gram": None}),
        (Lattice.from_json, None),
        (Lattice.from_json, {"gram": [None]}),
        (QuadraticForm.from_json, {}),
        (QuadraticForm.from_json, {"group": {"factors": [2]}, "values": ["0", None]}),
        (QuadraticForm.from_json, {"group": {"factors": [10**12]}, "values": []}),
        (Pairing.from_json, None),
        (Pairing.from_json, {"left": {"factors": [2]}}),
        (Pairing.from_json, {"left": {"factors": [2]}, "right": {"factors": [2]}, "E": []}),
        # a zero denominator
        (Cyclotomic.from_json, {"N": 1, "c": ["1/0"]}),
        (ModularData.from_json, {"labels": [0], "unit": 0, "S": [[{"N": 1, "c": ["1/0"]}]],
                                 "T": [{"N": 1, "c": ["1"]}]}),
        (Pairing.from_json, {"left": {"factors": [2]}, "right": {"factors": [2]}, "E": [["1/0"]]}),
        (QuadraticForm.from_json, {"group": {"factors": [2]}, "values": ["0", "1/0"]}),
        # a string where a list belongs
        (QuadraticForm.from_json, {"group": {"factors": [4]}, "values": "0140"}),
        (Pairing.from_json, {"left": {"factors": [2, 2]}, "right": {"factors": [2, 2]},
                             "E": ["00", "00"]}),
        (Pairing.from_json, {"left": {"factors": "2"}, "right": {"factors": [2]}, "E": [["0"]]}),
        (Lattice.from_json, {"gram": ["2"]}),
        (ModularData.from_json, {"labels": "a", "unit": 0, "S": [[{"N": 1, "c": ["1"]}]],
                                 "T": [{"N": 1, "c": ["1"]}]}),
        # binary floats and booleans are not exact rationals
        (Cyclotomic.from_json, {"N": 1, "c": [0.1]}),
        (Cyclotomic.from_json, {"N": 1, "c": [True]}),
        (QuadraticForm.from_json, {"group": {"factors": [2]}, "values": [0, 0.5]}),
        (Pairing.from_json, {"left": {"factors": [2]}, "right": {"factors": [2]}, "E": [[0.5]]}),
    ],
)
def test_from_json_rejects_malformed(from_json, obj):
    with pytest.raises(ValueError):
        from_json(obj)


# -- discriminant groups and forms -------------------------------------------------


def test_discriminant_unimodular_is_trivial():
    G, q, reps = discriminant(named("E8"))
    assert G.order == 1 and reps == ()


@pytest.mark.parametrize(
    "name,factors,gen_value",
    [
        ("A1", (2,), Fraction(1, 4)),
        ("A2", (3,), Fraction(1, 3)),
        ("A3", (4,), Fraction(3, 8)),
        ("A4", (5,), Fraction(2, 5)),
        ("A6", (7,), Fraction(3, 7)),
        ("E6", (3,), Fraction(2, 3)),
        ("E7", (2,), Fraction(3, 4)),
        ("D5", (4,), Fraction(5, 8)),
        ("sqrt2n:3", (6,), Fraction(1, 12)),
    ],
)
def test_discriminant_cyclic_values(name, factors, gen_value):
    L = named(name)
    G, q, reps = discriminant(L)
    assert G.factors == factors
    gen = tuple(1 if i == 0 else 0 for i in range(G.rank))
    assert q.phase(gen) == gen_value
    assert reps[0].norm() % 2 == 2 * gen_value % 2


def test_discriminant_d4_is_odd_pair_type():
    G, q, _ = discriminant(named("D4"))
    assert G.factors == (2, 2)
    values = {g: q.phase(g) for g in G.elements() if any(g)}
    assert set(values.values()) == {Fraction(1, 2)}


def test_discriminant_order_matches_determinant():
    for name in ("A1", "A5", "D4", "D6", "E6", "E7", "E8", "sqrt2n:7"):
        L = named(name)
        G, _, _ = discriminant(L)
        assert G.order == L.det


def test_discriminant_representatives_span():
    L = named("D6")
    G, q, reps = discriminant(L)
    assert len(reps) == G.rank
    for r, f in zip(reps, G.factors):
        assert r.in_dual()
        assert r.scale(f).is_lattice_vector()
        assert not r.is_lattice_vector()


def test_discriminant_guard():
    with pytest.raises(GuardError):
        discriminant(named("sqrt2n:60000"))


def test_milgram_for_named_lattices():
    for name in ("A1", "A2", "A4", "A7", "D4", "D5", "E6", "E7", "E8", "sqrt2n:6"):
        L = named(name)
        _, q, _ = discriminant(L)
        assert (gauss_sum(q)[2] - L.rank) % 8 == 0, name


# -- dual vectors -------------------------------------------------------------------


def test_dual_vector_membership():
    A2 = named("A2")
    v = DualVector(A2, (Fraction(1, 3), Fraction(2, 3)))
    assert v.in_dual()
    assert v.norm() == Fraction(2, 3)
    assert not v.is_lattice_vector()
    assert v.scale(3).is_lattice_vector()
    w = DualVector(A2, (Fraction(1, 2), 0))
    assert not w.in_dual()


def test_dual_vector_mismatched_lattice():
    v = DualVector(named("A2"), (1, 0))
    w = DualVector(named("A1").direct_sum(named("A1")), (0, 1))
    with pytest.raises(ValueError):
        v.dot(w)
    with pytest.raises(ValueError):
        DualVector(named("A2"), (1, 0, 0))


# -- gluing -------------------------------------------------------------------------


def test_glue_nothing_returns_same_lattice():
    A2 = named("A2")
    assert glue(A2, []) is A2


def test_glue_a2_e6_is_unimodular():
    base = named("A2").direct_sum(named("E6"))
    r2 = (Fraction(1, 3), Fraction(2, 3))
    _, _, reps6 = discriminant(named("E6"))
    coset = r2 + reps6[0].coords
    out = glue(base, [coset])
    assert out.rank == 8
    assert out.det == 1
    assert base.det == out.det * 3 * 3
    G, _, _ = discriminant(out)
    assert G.order == 1


def test_glue_rejects_odd_norm_coset():
    with pytest.raises(ValueError, match="norm"):
        glue(named("A1"), [(Fraction(1, 2),)])


def test_glue_rejects_vectors_outside_dual():
    with pytest.raises(ValueError, match="dual"):
        glue(named("A2"), [(Fraction(1, 2), 0)])


def test_glue_rejects_fractional_cross_products():
    base = named("A2")
    for _ in range(3):
        base = base.direct_sum(named("A2"))
    r = (Fraction(1, 3), Fraction(2, 3))
    zero = (Fraction(0), Fraction(0))
    u1 = r + r + r + zero
    u2 = zero + r + r + r
    with pytest.raises(ValueError, match="products"):
        glue(base, [u1, u2])


def test_glue_rejects_foreign_coset():
    v = DualVector(named("A1"), (Fraction(1, 2),))
    with pytest.raises(ValueError):
        glue(named("A2"), [v])


# -- realization --------------------------------------------------------------------


def test_realize_picks_root_lattices():
    assert realize("3^1_+") == named("A2")
    assert realize("3^1_-") == named("E6")
    assert realize("7^1_-") == named("A6")
    assert realize("3^2_+") == named("A8")
    assert realize("2^1_1") == named("A1")
    assert realize("2^1_3") == named("E7")
    assert realize("2^2_1") == Lattice([[4]])
    assert realize("2^2_3") == named("A3")
    assert realize("2^2_-1") == named("D7")
    assert realize("2^2_-3") == named("D5")


@pytest.mark.parametrize("desc", ALL_DESCRIPTORS)
def test_realize_matches_form_and_milgram(desc):
    L = realize(desc)
    q, x3 = indecomposable_form(desc)
    G, qL, _ = discriminant(L)
    assert G == q.group
    assert L.det == G.order
    assert forms_equivalent(qL, q) is not None
    assert (gauss_sum(qL)[2] - L.rank) % 8 == 0
    assert x3 == root_of_unity(8, -L.rank % 8)


def test_realize_product_descriptor():
    L = realize("3^1_+ x 2^1_1")
    assert L == named("A2").direct_sum(named("A1"))
    assert realize("3^1_+ * 2^1_1") == L
    q, _ = indecomposable_form("3^1_+ x 2^1_1")
    _, qL, _ = discriminant(L)
    assert forms_equivalent(qL, q) is not None


def test_realize_form_object():
    q6, _ = indecomposable_form("3^1_-")
    assert realize(q6) == named("E6")
    trivial = QuadraticForm(FinAbGroup(()), {(): Fraction(0)})
    assert realize(trivial).rank == 0
    qp, _ = indecomposable_form("3^1_+ x 2^2_1")
    L = realize(qp)
    _, qL, _ = discriminant(L)
    assert forms_equivalent(qL, qp) is not None


def test_realize_roundtrips_discriminant():
    for name in ("A2", "D4", "D5", "sqrt2n:5"):
        L = named(name)
        _, q, _ = discriminant(L)
        L2 = realize(q)
        _, q2, _ = discriminant(L2)
        assert forms_equivalent(q2, q) is not None


def test_realize_form_guards():
    """Order 1,024 and rank 5 were past the form guards of the old descriptor
    search (order 512, rank 4); the descriptor is now read off the normal
    form, so both forms round-trip."""
    for desc in ["2^10_1", " x ".join(["2^1_1"] * 5)]:
        q, _ = indecomposable_form(desc)
        L = realize(q)
        G, qL, _ = discriminant(L)
        assert G == q.group and L.det == G.order
        assert forms_equivalent(qL, q) is not None
        assert (gauss_sum(qL)[2] - L.rank) % 8 == 0


def test_realize_rank_guard_before_the_sum(monkeypatch):
    def no_sum(*args):
        raise AssertionError("direct sum built before the rank guard")

    monkeypatch.setattr(lattice, "LATTICE_RANK_GUARD", 5)
    monkeypatch.setattr(Lattice, "direct_sum", no_sum)
    with pytest.raises(GuardError, match="lattice rank 6 exceeds guard 5"):
        realize("3^1_+ x 3^1_+ x 3^1_+")
    monkeypatch.undo()
    monkeypatch.setattr(lattice, "LATTICE_RANK_GUARD", 6)
    A2 = named("A2")
    assert realize("3^1_+ x 3^1_+ x 3^1_+") == A2.direct_sum(A2).direct_sum(A2)


def _no_direct_sum(*args):
    raise AssertionError("a one-part realize built a direct sum")


@pytest.mark.parametrize("desc", ALL_DESCRIPTORS + ["3^1_+ x 2^1_1", "3^1_- x 2^2_3"])
def test_realize_keeps_its_dual_quotient(monkeypatch, desc):
    """``realize`` returns a one-part lattice as found, with no direct sum,
    and the lattice keeps the Smith pass of its check: ``discriminant`` runs
    none and agrees with that of a fresh copy (group, form, representatives)."""
    if " x " not in desc:
        monkeypatch.setattr(Lattice, "direct_sum", _no_direct_sum)
    L = realize(desc)
    monkeypatch.undo()
    passes = []
    monkeypatch.setattr(lattice, "dual_quotient", lambda *a: passes.append(a) or dual_quotient(*a))
    G, q, reps = discriminant(L)
    assert passes == []
    G2, q2, reps2 = discriminant(Lattice(L.gram))
    assert len(passes) == 1
    assert G == G2 and q.num == q2.num
    assert [r.coords for r in reps] == [r.coords for r in reps2]


def test_direct_sum_of_several_is_the_folded_sum():
    A2, E6, D4 = named("A2"), named("E6"), named("D4")
    assert A2.direct_sum(E6, D4) == A2.direct_sum(E6).direct_sum(D4)
    assert Lattice(()).direct_sum(A2, Lattice(()), D4) == A2.direct_sum(D4)
    assert A2.direct_sum() == A2


def test_realize_rejects_degenerate_form():
    G = FinAbGroup((2,))
    zero = QuadraticForm(G, {(0,): Fraction(0), (1,): Fraction(0)})
    with pytest.raises(ValueError):
        realize(zero)


@pytest.mark.parametrize("r", range(1, 10))
@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 9, 10])
def test_candidates_all_have_the_determinant(monkeypatch, r, N):
    """Named lattices come first, and only those of determinant N; each is
    yielded as its Gram with no cofactor."""
    monkeypatch.setattr(lattice, "TREE_SEARCH_BOUND", 300)
    yields = list(lattice._candidates(r, N))
    found = [Lattice(gram) for gram, _ in yields]
    assert all(L.rank == r and L.det == N for L in found)
    named_ones = [f"A{r}"] * (r + 1 == N) + [f"D{r}"] * (r >= 2 and N == 4)
    named_ones += [f"E{r}"] * (r in (6, 7, 8) and r + N == 9)
    assert found[: len(named_ones)] == [named(name) for name in named_ones]
    assert all(b is None for _, b in yields[: len(named_ones)])


@pytest.mark.parametrize("N", [3, 4, 5, 8, 9, 16, 25, 27, 49])
def test_cofactor_screen_is_the_discriminant_normal_form(monkeypatch, N):
    """For a tree whose cofactor b at the free vertex is prime to p, the
    normal form of the 1×1 dual Gram [[N·b]] on Z_N, which the search uses
    to reject candidates unbuilt, is the one the Smith pass gives."""
    monkeypatch.setattr(lattice, "TREE_SEARCH_BOUND", 300)
    ((p, k),) = factorize(N).items()
    cyclic = FinAbGroup((N,))
    screened = 0
    for r in range(1, 10):
        for gram, b in lattice._candidates(r, N):
            if b is None or b % p == 0:
                continue
            L = Lattice(gram)
            closed = lattice._gram_normal_form(cyclic, [[N * b]])
            assert closed == lattice._dual_normal_form(L, *dual_quotient(gram, N))
            assert _cyclic_normal_form(p, k, b) == closed
            screened += 1
    assert screened > 0


def test_cyclic_normal_form_is_the_general_one():
    """The screen's closed form against ``forms.normal_form`` (through
    ``_gram_normal_form``) for every N = p^k <= 512 and every b prime to p
    modulo 2N, and for b - 2N: equal keys and signatures, or both refuse an
    odd b for odd p."""
    checked = 0
    for N in range(2, 513):
        f = factorize(N)
        if len(f) != 1:
            continue
        ((p, k),) = f.items()
        cyclic = FinAbGroup((N,))
        for b in range(1, 2 * N):
            if b % p == 0:
                continue
            for c in (b, b - 2 * N):
                if p > 2 and c % 2:
                    with pytest.raises(ValueError):
                        lattice._gram_normal_form(cyclic, [[N * c]])
                    with pytest.raises(ValueError):
                        _cyclic_normal_form(p, k, c)
                    continue
                general = lattice._gram_normal_form(cyclic, [[N * c]])
                closed = _cyclic_normal_form(p, k, c)
                assert (closed.key, closed.signature) == (general.key, general.signature)
                checked += 1
    assert checked > 40_000


def test_realize_search_bound_guard(monkeypatch):
    # no named lattice of rank 2 or 10 has determinant 7, so the trees are needed
    monkeypatch.setattr(lattice, "TREE_SEARCH_BOUND", 0)
    with pytest.raises(GuardError, match=r"7\^1_\+"):
        realize("7^1_+")
    with pytest.raises(GuardError, match=r"2\^3_-3"):
        realize("2^32^3_ii")


def indecomposables(bound):
    """Every indecomposable descriptor of order at most bound."""
    out = []
    for n in range(3, bound + 1, 2):
        if len(f := factorize(n)) == 1:
            ((p, k),) = f.items()
            out += [f"{p}^{k}_+", f"{p}^{k}_-"]
    out += [f"2^{k}_{m}" for k in range(1, bound.bit_length()) for m in (1, 3, -1, -3)]
    out += [f"2^{k}2^{k}_{t}" for k in range(1, (bound.bit_length() + 1) // 2) for t in ("i", "ii")]
    return out


def least_rank(G, sigma):
    """Nikulin's (Cor. 1.10.2) least rank: the least r > l(q) with r = sigma mod 8."""
    return next(r for r in range(G.rank + 1, G.rank + 9) if (r - sigma) % 8 == 0)


@pytest.mark.parametrize(
    "desc",
    indecomposables(512)
    + ["2^62^6_i"]  # glue's Hermite basis stalled the Smith form here
    + ["1009^1_+", "1009^1_-", "10007^1_+", "10007^1_-"],
)
def test_realize_at_nikulin_rank(desc):
    """Cyclic forms are realized at Nikulin's least rank, or at rank l(q) = 1
    when [2^k] has the form; the pair types stay within rank 16.  The forms
    are equivalent, so Milgram is checked against the target's closed-form
    x^3; tests/test_forms.py checks x^3 against ``gauss_sum``, which is too
    slow at the larger orders here, on every descriptor of order <= 300."""
    L = realize(desc)
    q, x3 = indecomposable_form(desc)
    G, qL, _ = discriminant(L)
    assert G == q.group and L.det == G.order
    assert forms_equivalent(qL, q) is not None
    assert x3 == root_of_unity(8, -L.rank % 8)
    if G.rank == 1:
        assert L.rank in (least_rank(G, L.rank % 8), 1)
    else:
        assert L.rank <= 16


def hermite_pair_gram(k, sub):
    """``glue``'s Hermite-basis Gram of the 2^k2^k_i/ii lattice: scaled copies
    of Z and the 2^k_-1 or 2^k_-3 lattice, glued by the class of norm m / 2^k."""
    N = 2**k
    m, scalars, copies = (-1, 2, 2) if sub == "i" else (-3, 3, 1)
    ingredient = realize(f"2^{k}_{m}")
    _, q, reps = discriminant(ingredient)
    g = next(g for g, value in q.num.items() if value == m % q.den)
    gamma = [sum(gj * r.coords[i] for gj, r in zip(g, reps)) for i in range(ingredient.rank)]
    base = Lattice(()).direct_sum(*[Lattice([[N]])] * scalars, *[ingredient] * copies)
    return glue(base, [[Fraction(1, N)] * scalars + gamma * copies])


def timed_discriminant(L):
    start = time.perf_counter()
    out = discriminant(L)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"discriminant took {elapsed:.2f} s"
    return out


@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize("sub", ["i", "ii"])
def test_discriminant_of_hermite_pair_grams(k, sub):
    """The Smith form over the integers stalled on these Grams from k = 5 or 6
    on; the one modulo det² keeps its entries below det²."""
    L = hermite_pair_gram(k, sub)
    G, qL, reps = timed_discriminant(L)
    q, _ = indecomposable_form(f"2^{k}2^{k}_{sub}")
    assert G == q.group and L.det == G.order
    assert forms_equivalent(qL, q) is not None
    assert all(r.in_dual() and all(0 <= c < 1 for c in r.coords) for r in reps)


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("m", [-1, -3])
def test_class_with_norm_is_the_first_in_element_order(k, m):
    """The glue class of the pair types is the first class, in
    ``G.elements()`` order, whose discriminant value is m / 2^(k+1)."""
    L = realize(f"2^{k}_{m}")
    _, q, reps = discriminant(L)
    g = next(g for g in q.group.elements() if q.num[g] == m % q.den)
    want = [sum(gj * r.coords[i] for gj, r in zip(g, reps)) for i in range(L.rank)]
    assert lattice._class_with_norm(L, Fraction(m, 2**k)).coords == tuple(want)


def random_unimodular(n, rng):
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
    rng.shuffle(U)
    return U


@pytest.mark.parametrize("desc", indecomposables(512))
def test_discriminant_after_a_change_of_basis(desc):
    """U·gram·Uᵀ for a random unimodular U is the same lattice in another
    basis: the same group and an equivalent form."""
    L = realize(desc)
    U = random_unimodular(L.rank, random.Random(desc))
    M = Lattice(lattice._congruent(U, L.gram))
    assert M.det == L.det
    G, qM, _ = timed_discriminant(M)
    q, _ = indecomposable_form(desc)
    assert G == q.group
    assert forms_equivalent(qM, q) is not None
    # the normal form from the dual Gram on generators is the table's
    assert lattice._dual_normal_form(M, *dual_quotient(M.gram, M.det)) == qM.normal_form()


@pytest.mark.parametrize("desc", ALL_DESCRIPTORS)
def test_overlattices_match_isotropic_quotients(desc):
    """Gluing L by an isotropic subgroup D of its discriminant form gives an
    even lattice whose discriminant form is D^perp / D."""
    L = realize(desc)
    _, q, reps = discriminant(L)
    for datum in isotropic_subgroups(q):
        cosets = [
            [sum(gj * r.coords[i] for gj, r in zip(g, reps)) for i in range(L.rank)]
            for g in datum.subgroup.gens()
        ]
        M = glue(L, cosets)
        assert M.det * datum.subgroup.order**2 == L.det
        _, qM, _ = discriminant(M)
        assert forms_equivalent(qM, datum.form) is not None


def test_realize_rejects_malformed_descriptor():
    with pytest.raises(ValueError):
        realize("4^1_+")


def _no_factor(p, k, sub):
    raise AssertionError(f"factor {p}^{k}_{sub} built before every part was checked")


@pytest.mark.parametrize(
    "desc,error",
    [
        ("2^3_-3 x 3^1_q", ValueError),
        ("2^3_-3 x 4^1_+", ValueError),
        ("2^3_-3 x ", ValueError),
        ("2^3_-3 x 2^100_1", GuardError),
        ("2^3_-3 x 3^40_+", GuardError),
    ],
)
def test_realize_checks_every_part_before_building(monkeypatch, desc, error):
    monkeypatch.setattr(lattice, "_realize_factor", _no_factor)
    with pytest.raises(error):
        realize(desc)


def test_realize_builds_legal_parts_past_the_form_guard(monkeypatch):
    # 2^10 * 3^5 exceeds DISCRIMINANT_GUARD, but each part is legal on its own,
    # and the product's normal form is checked without a table of the group
    built = []
    real = lattice._realize_factor
    monkeypatch.setattr(lattice, "_realize_factor", lambda *part: built.append(part) or real(*part))
    L = realize("2^10_1 x 3^5_+")
    assert built == [(2, 10, 1), (3, 5, 1)]
    assert L.det == 2**10 * 3**5 and L.rank == 1 + 2


@pytest.mark.parametrize(
    "desc,wrong",
    [
        ("2^10_1 x 3^5_+", (3, 5, -1)),  # order 248,832: same group, other form
        (" x ".join(["2^1_1"] * 5), (2, 1, 3)),  # rank 5: E7 for the last A1
    ],
)
def test_realize_product_check_catches_a_wrong_piece(monkeypatch, desc, wrong):
    """The product check runs at every order and rank: a last piece with the
    right determinant but the wrong form fails it."""
    built = []
    real = lattice._realize_factor

    def last_wrong(*part):
        built.append(part)
        return real(*wrong) if len(built) == len(desc.split(" x ")) else real(*part)

    monkeypatch.setattr(lattice, "_realize_factor", last_wrong)
    with pytest.raises(RuntimeError, match="discriminant check"):
        realize(desc)


# -- opt-in: the largest admitted inputs, each in a fresh interpreter under 10 s --

GUARD_EDGE = {
    "signature-2^16_1": "assert indecomposable_form('2^16_1')[0].signature() == 1",
    "signature-99991^1_+": "assert indecomposable_form('99991^1_+')[0].signature() == 2",
    "realize-99991^1_+": "assert realize('99991^1_+').det == 99991",
    "realize-99991^1_-": "assert realize('99991^1_-').det == 99991",
    "realize-form-2^10_1": "assert realize(indecomposable_form('2^10_1')[0]).det == 1024",
}


@pytest.mark.slow
@pytest.mark.parametrize("code", GUARD_EDGE.values(), ids=GUARD_EDGE.keys())
def test_guard_edge_in_a_fresh_process(code):
    src = os.path.dirname(os.path.dirname(lattice.__file__))
    head = "from modinv.forms import indecomposable_form\nfrom modinv.lattice import realize\n"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", head + code], env=env, capture_output=True, text=True, timeout=10)
    assert done.returncode == 0, done.stderr


# -- quotients and intermediate lattices --------------------------------------------


def test_lattice_quotient_rank_one():
    M = named("A1")
    L = Lattice([[32]])
    G, project, section = lattice_quotient(L, M, [[4]])
    assert G.factors == (4,)
    for g in G.elements():
        assert project(section(g)) == g
    assert project((4,)) == (0,)
    assert project((5,)) == project((1,))


def test_lattice_quotient_rejects_bad_embedding():
    with pytest.raises(ValueError, match="Gram"):
        lattice_quotient(Lattice([[32]]), named("A1"), [[3]])
    with pytest.raises(ValueError, match="square"):
        lattice_quotient(Lattice([[32]]), named("A1"), [[4, 0]])
    # the sublattice's rank must match too, larger or smaller
    with pytest.raises(ValueError, match="Gram"):
        lattice_quotient(Lattice([[8, 0], [0, 2]]), named("A1"), [[2]])
    with pytest.raises(ValueError, match="Gram"):
        lattice_quotient(named("A1"), named("A1").direct_sum(named("A1")), [[1, 0], [0, 1]])


@pytest.mark.parametrize("entry", [2.5, Fraction(5, 2)])
def test_lattice_quotient_rejects_non_integer_embedding(entry):
    # truncating 2.5 to 2 would give the quotient Z2
    with pytest.raises(ValueError, match="embedding must be a square integer matrix"):
        lattice_quotient(Lattice([[8]]), named("A1"), [[entry]])


@pytest.mark.parametrize("entry", [2.0, Fraction(4, 2)])
def test_lattice_quotient_accepts_integral_embedding(entry):
    G, _, _ = lattice_quotient(Lattice([[8]]), named("A1"), [[entry]])
    assert G.factors == (2,)


def test_intermediate_rank_one_tower():
    M = named("A1")
    L = Lattice([[32]])
    embed = [[4]]
    G = FinAbGroup((4,))
    pairing = standard_pairing(G)

    half = Subgroup(G, [(2,)])
    MH, Mperp = intermediate(L, M, half, embed, pairing)
    assert MH.gram == ((8,),)
    assert Mperp.gram == ((8,),)

    MH, Mperp = intermediate(L, M, Subgroup(G, []), embed, pairing)
    assert (MH, Mperp) == (L, M)

    MH, Mperp = intermediate(L, M, Subgroup(G, [(1,)]), embed, pairing)
    assert (MH, Mperp) == (M, L)


def test_intermediate_rank_two_sides_swap():
    M = named("A1").direct_sum(named("A1"))
    L = Lattice([[8, 0], [0, 8]])
    embed = [[2, 0], [0, 2]]
    G, project, _ = lattice_quotient(L, M, embed)
    assert G == FinAbGroup((2, 2))
    pairing = standard_pairing(G)
    H = Subgroup(G, [project((1, 0))])
    MH, Mperp = intermediate(L, M, H, embed, pairing)
    assert MH.gram == ((2, 0), (0, 8))
    assert Mperp.gram == ((8, 0), (0, 2))
    index = G.order // H.order
    assert MH.det == M.det * index * index


def test_intermediate_validates_inputs():
    M = named("A1")
    L = Lattice([[32]])
    embed = [[4]]
    G = FinAbGroup((4,))
    wrong_group = FinAbGroup((2,))
    with pytest.raises(ValueError, match="quotient"):
        intermediate(L, M, Subgroup(wrong_group, []), embed, standard_pairing(G))
    with pytest.raises(ValueError, match="pairing"):
        intermediate(L, M, Subgroup(G, []), embed, standard_pairing(wrong_group))


# -- randomized invariants ----------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-1, max_value=1), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_random_even_lattice_invariants(rows):
    det_b = (
        rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
        - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
        + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
    )
    if det_b == 0:
        return
    gram = [
        [2 * sum(rows[i][k] * rows[j][k] for k in range(3)) for j in range(3)]
        for i in range(3)
    ]
    L = Lattice(gram)
    assert L.det == 8 * det_b * det_b
    G, q, _ = discriminant(L)
    assert G.order == L.det
    assert (gauss_sum(q)[2] - L.rank) % 8 == 0
