"""Modular data, Verlinde fusion, currents, and invariant enumeration."""

import re
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle

from modinv import modular, scalars
from modinv.abelian import FinAbGroup, abelian_structure
from modinv.forms import QuadraticForm, indecomposable_form
from modinv.modular import (
    ModularData,
    ModularInvariant,
    as_permutation,
    brute_force_invariants,
    check_invariant,
    mat_mul,
    s_commutes,
    simple_currents,
    validate_modular,
    verlinde,
)
from modinv.pointed import weil
from modinv.simple_current import enumerate_sc
from modinv.scalars import (
    Cyclotomic,
    cyclotomic_cofactor,
    cyclotomic_polynomial,
    phase_fraction,
    rational_phase,
    reduce_mod_phi,
    root_of_unity,
    sqrt_nonneg_int,
)
from modinv.ty import TYData, ty_double


def std_form(factors, num=1):
    G = FinAbGroup(tuple(factors))
    table = {}
    for g in G.elements():
        val = Fraction(0)
        for a, n in zip(g, G.factors):
            val += Fraction(num * a * a, 2 * n)
        table[g] = val % 1
    return QuadraticForm(G, table)


Z2_FORM = indecomposable_form("2^1_1")[0]
Z3_FORM = indecomposable_form("3^1_+")[0]
Z4_FORM = indecomposable_form("2^2_1")[0]


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


class TestWeil:
    def test_trivial_group(self):
        md = weil(std_form(()))
        assert md.dim == 1
        assert md.S[0][0].is_one()
        assert md.T[0].is_one()

    def test_half_spin_matrices(self):
        md = weil(Z2_FORM)
        root2 = root_of_unity(8, 1) + root_of_unity(8, -1)
        inv = root2.inverse()
        assert md.S[0][0] == inv and md.S[0][1] == inv
        assert md.S[1][0] == inv and md.S[1][1] == -inv
        x = rational_phase(Fraction(23, 24))
        assert md.T[0] == x
        assert md.T[1] == x * root_of_unity(4, 1)
        assert (x**3) * root_of_unity(8, 1) == Cyclotomic.one()

    def test_cube_normalization_odd(self):
        md = weil(Z3_FORM)
        x = md.T[0]
        assert x**3 == root_of_unity(4, -1)
        twisted = std_form((3,), num=4)  # q(l) = 2 l^2 / 3
        md2 = weil(twisted)
        assert md2.T[0] ** 3 == root_of_unity(4, 1)

    def test_validate_passes(self):
        for q in (Z2_FORM, Z3_FORM, Z4_FORM, std_form((2, 2)), std_form((6,))):
            assert validate_modular(weil(q)) == []

    def test_float_oracle(self):
        md = weil(Z4_FORM)
        S = [[x.approx() for x in row] for row in md.S]
        T = [x.approx() for x in md.T]
        assert oracle.modular_relations_hold(S, T)

    def test_rejects_degenerate(self):
        G = FinAbGroup((2,))
        q = QuadraticForm(G, {(0,): Fraction(0), (1,): Fraction(1, 2)})
        with pytest.raises(ValueError):
            weil(q)

    def test_deligne_product(self):
        qa, qb = Z2_FORM, Z3_FORM
        md = weil(qa.direct_sum(qb))
        ma, mb = weil(qa), weil(qb)
        na, nb = ma.dim, mb.dim
        assert md.dim == na * nb
        from math import lcm

        order = lcm(*[t.order for t in md.T], *[t.order for t in ma.T + mb.T])
        prod_T = sorted(
            (ma.T[i] * mb.T[j]).at_order(order).canonical()
            for i in range(na)
            for j in range(nb)
        )
        assert sorted(t.at_order(order).canonical() for t in md.T) == prod_T

    def test_json_round_trip(self):
        md = weil(Z4_FORM)
        back = ModularData.from_json(md.to_json())
        assert back.labels == md.labels
        assert back.S == md.S and back.T == md.T

    @pytest.mark.parametrize(
        "edit",
        [
            lambda obj: None,
            lambda obj: {},
            lambda obj: [obj],
            lambda obj: {k: v for k, v in obj.items() if k != "T"},
            lambda obj: {k: v for k, v in obj.items() if k != "labels"},
            lambda obj: {**obj, "unit": "0"},
            lambda obj: {**obj, "unit": None},
            lambda obj: {**obj, "S": "S"},
            lambda obj: {**obj, "S": [None] * len(obj["S"])},
            lambda obj: {**obj, "T": {"N": 1, "c": ["1"]}},
            lambda obj: {**obj, "T": [None] * len(obj["T"])},
            lambda obj: {**obj, "T": obj["T"][1:]},
        ],
    )
    def test_from_json_rejects_malformed(self, edit):
        with pytest.raises(ValueError):
            ModularData.from_json(edit(weil(Z4_FORM).to_json()))

    @pytest.mark.parametrize(
        "S,T,where",
        [
            ([[1]], [1], "S[0][0]"),
            ([[Cyclotomic.one()]], [1], "T[0]"),
            ([[Fraction(1)]], [Cyclotomic.one()], "S[0][0]"),
            ([[Cyclotomic.one(), None], [Cyclotomic.one()] * 2], [Cyclotomic.one()] * 2, "S[0][1]"),
            ([[Cyclotomic.one()] * 2] * 2, [Cyclotomic.one(), 1.0], "T[1]"),
        ],
    )
    def test_rejects_non_cyclotomic_entries(self, S, T, where):
        labels = [chr(ord("a") + i) for i in range(len(T))]
        with pytest.raises(ValueError, match=f"^{re.escape(where)} must be a Cyclotomic"):
            ModularData(labels, 0, S, T)


class TestValidate:
    def test_reports_broken_entries(self):
        md = weil(Z3_FORM)
        S = [list(row) for row in md.S]
        S[0][1] = S[0][1] + Cyclotomic.one()
        report = validate_modular(ModularData(md.labels, md.unit, S, md.T))
        assert "S unitary" in report

    def test_reports_bad_twist(self):
        md = weil(Z3_FORM)
        T = list(md.T)
        T[1] = T[1] + Cyclotomic.one()
        report = validate_modular(ModularData(md.labels, md.unit, md.S, T))
        assert "T root of unity" in report

    def test_charge_conjugation_negation(self):
        md = weil(Z4_FORM)
        perm = md.charge_conjugation()
        G = Z4_FORM.group
        for i, g in enumerate(md.labels):
            assert md.labels[perm[i]] == G.neg(g)


class TestVerlinde:
    def test_group_ring_fusion(self):
        for q in (Z2_FORM, Z3_FORM, Z4_FORM, std_form((2, 2))):
            md = weil(q)
            N = verlinde(md)
            G = q.group
            for a, ga in enumerate(md.labels):
                for b, gb in enumerate(md.labels):
                    target = G.add(ga, gb)
                    for c, gc in enumerate(md.labels):
                        assert N[a][b][c] == (1 if gc == target else 0)

    def test_unit_row(self):
        md = weil(Z3_FORM)
        N = verlinde(md)
        for b in range(md.dim):
            for c in range(md.dim):
                assert N[md.unit][b][c] == (1 if b == c else 0)

    def test_float_oracle(self):
        md = weil(std_form((2, 2)))
        S = [[x.approx() for x in row] for row in md.S]
        N = verlinde(md)
        approx = oracle.verlinde_float(S)
        for a in range(md.dim):
            for b in range(md.dim):
                for c in range(md.dim):
                    assert abs(N[a][b][c] - approx[(a, b, c)]) < 1e-9

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_associativity(self, data):
        md = weil(Z4_FORM)
        N = md.fusion()
        n = md.dim
        a = data.draw(st.integers(0, n - 1))
        b = data.draw(st.integers(0, n - 1))
        c = data.draw(st.integers(0, n - 1))
        for d in range(n):
            lhs = sum(N[a][b][e] * N[e][c][d] for e in range(n))
            rhs = sum(N[b][c][e] * N[a][e][d] for e in range(n))
            assert lhs == rhs


def two_by_two(S):
    """A 2-primary datum with the given S and trivial T; nothing is validated."""
    one = Cyclotomic.one()
    return ModularData([0, 1], 0, S, [one, one])


def rat(x):
    return Cyclotomic.from_rational(Fraction(x))


class TestVerlindeFailures:
    """Each perturbation of S fails one Verlinde check at a named (a, b, c)."""

    def test_not_rational(self):
        # unitary and symmetric, but N_11^1 = 2/sqrt(3)
        half = Fraction(1, 2)
        r3 = sqrt_nonneg_int(3) * half
        md = two_by_two([[rat(half), r3], [r3, rat(-half)]])
        with pytest.raises(ValueError, match=r"^fusion coefficient not rational at \(1, 1, 1\)$"):
            verlinde(md)

    @pytest.mark.parametrize(
        "c,s,message",
        [
            (Fraction(3, 5), Fraction(4, 5), "fusion coefficient 7/12 at (1, 1, 1)"),
            (Fraction(4, 5), Fraction(3, 5), "fusion coefficient -7/12 at (1, 1, 1)"),
        ],
        ids=["non-integral", "negative"],
    )
    def test_not_integral_or_negative(self, c, s, message):
        # the rotation [[c, s], [s, -c]] passes every check with a = 0
        md = two_by_two([[rat(c), rat(s)], [rat(s), rat(-c)]])
        with pytest.raises(ValueError) as err:
            verlinde(md)
        assert str(err.value) == message

    def test_negative_integer(self):
        md = weil(Z2_FORM)
        S = [list(md.S[0]), [-x for x in md.S[0]]]
        with pytest.raises(ValueError) as err:
            verlinde(ModularData(md.labels, md.unit, S, md.T))
        assert str(err.value) == "fusion coefficient -1 at (0, 0, 1)"

    def test_zero_in_unit_row(self):
        md = weil(Z3_FORM)
        S = [list(row) for row in md.S]
        S[md.unit][2] = Cyclotomic.zero()
        with pytest.raises(ValueError, match="unit row of S has a zero entry"):
            verlinde(ModularData(md.labels, md.unit, S, md.T))


# -- the matrix kernel against entrywise Cyclotomic arithmetic ------------------


def naive_mat_mul(A, B):
    """Reference product: entrywise Cyclotomic sums of products."""
    out = []
    for row in A:
        out.append(
            [
                sum((row[t] * B[t][j] for t in range(len(B))), Cyclotomic.zero())
                for j in range(len(B[0]))
            ]
        )
    return out


ORDERS = (1, 2, 3, 4, 8, 12, 24)
coefficients = st.builds(
    Fraction,
    st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70)),
    st.sampled_from((1, 1, 2, 3, 5, 12, 2**40)),
)


@st.composite
def cyclotomics(draw):
    if draw(st.integers(0, 3)) == 0:
        return Cyclotomic.zero()
    order = draw(st.sampled_from(ORDERS))
    terms = draw(st.dictionaries(st.integers(0, order - 1), coefficients, max_size=4))
    return Cyclotomic(order, terms)


def matrices(rows, cols):
    return st.lists(st.lists(cyclotomics(), min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def product_pairs(draw):
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    return draw(matrices(n, k)), draw(matrices(k, m))


class TestKernel:
    @settings(max_examples=60, deadline=None)
    @given(product_pairs())
    def test_mat_mul_matches_entrywise(self, pair):
        A, B = pair
        got = mat_mul(A, B)
        want = naive_mat_mul(A, B)
        assert len(got) == len(A) and all(len(row) == len(B[0]) for row in got)
        for grow, wrow in zip(got, want):
            for g, w in zip(grow, wrow):
                assert g == w

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_s_commutes_matches_entrywise(self, data):
        md = weil(std_form((6,)))
        n = md.dim
        invariants = [z.matrix for z in brute_force_invariants(md)]
        if data.draw(st.booleans()):
            # integer combinations of invariants commute with S
            coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(invariants), max_size=len(invariants)))
            Z = [[sum(c * z[i][j] for c, z in zip(coeffs, invariants)) for j in range(n)] for i in range(n)]
        else:
            Z = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n))
        Zc = [[rat(x) for x in row] for row in Z]
        SZ, ZS = naive_mat_mul(md.S, Zc), naive_mat_mul(Zc, md.S)
        expected = all(SZ[i][j] == ZS[i][j] for i in range(n) for j in range(n))
        assert s_commutes(md, Z) == expected

    def test_s_commutes_shares_packing_across_matrices(self):
        """One datum checks matrices of several digit widths in turn; each
        verdict matches the entrywise product, whatever was cached before."""
        md = weil(std_form((6,)))
        n = md.dim
        invariants = [z.matrix for z in brute_force_invariants(md)]
        bumped = [list(row) for row in invariants[0]]
        bumped[0][1] += 1
        matrices = []
        for scale in (1, 3, 2**20, 2**70, 1):
            matrices += [[[scale * x for x in row] for row in Z] for Z in (*invariants, bumped)]
        for Z in matrices:
            Zc = [[rat(x) for x in row] for row in Z]
            SZ, ZS = naive_mat_mul(md.S, Zc), naive_mat_mul(Zc, md.S)
            expected = all(SZ[i][j] == ZS[i][j] for i in range(n) for j in range(n))
            assert s_commutes(md, Z) == expected
        widths = {key for key in md._int_S if isinstance(key, tuple)}
        assert len(widths) >= 3


def _double(descriptor, sign=1):
    q = indecomposable_form(descriptor)[0]
    return ty_double(TYData(q.group, q.polarization(), sign), q)


CURRENT_DATA = [
    lambda: weil(Z2_FORM),
    lambda: weil(Z3_FORM),
    lambda: weil(Z4_FORM),
    lambda: weil(std_form((2, 2))),
    lambda: weil(std_form((6,))),
    lambda: weil(indecomposable_form("3^1_+ x 3^1_+")[0]),
    lambda: weil(indecomposable_form("2^12^1_i")[0]),
    lambda: _double("2^1_1"),
    lambda: _double("3^1_+", -1),
    lambda: _double("2^2_1"),
    lambda: _double("5^1_+"),
]
CURRENT_IDS = [
    "weil-2^1_1",
    "weil-3^1_+",
    "weil-2^2_1",
    "weil-Z2xZ2",
    "weil-Z6",
    "weil-3^1_+x3^1_+",
    "weil-2^12^1_i",
    "ty-2^1_1",
    "ty-3^1_+-",
    "ty-2^2_1",
    "ty-5^1_+",
]


class TestSimpleCurrents:
    def test_weil_all_invertible(self):
        md = weil(Z4_FORM)
        sc = simple_currents(md)
        assert sc.group.order == 4
        assert sc.group.factors == (4,)

    def test_twists_match_form(self):
        q = Z4_FORM
        md = weil(q)
        sc = simple_currents(md)
        for g in q.group.elements():
            j = sc.coords[md.index(g)]
            assert sc.q(j) == q.phase(g)

    def test_quaternionic_half_spin(self):
        md = weil(Z2_FORM)
        sc = simple_currents(md)
        j = sc.coords[md.index((1,))]
        assert sc.is_quaternionic(j)

    def test_no_quaternionic_odd(self):
        md = weil(Z3_FORM)
        sc = simple_currents(md)
        assert not sc.quaternionic

    def test_grading_is_pairing(self):
        q = Z4_FORM
        md = weil(q)
        sc = simple_currents(md)
        P = q.polarization()
        for g in q.group.elements():
            j = sc.coords[md.index(g)]
            for a, ga in enumerate(md.labels):
                assert sc.grading(a, j) == P.phase(g, ga)

    @pytest.mark.parametrize("build", CURRENT_DATA, ids=CURRENT_IDS)
    def test_charges_are_s_ratio_phases(self, build):
        md = build()
        sc = simple_currents(md)
        for j, J in sc.label_index.items():
            for a in range(md.dim):
                ratio = md.S[J][a] * md.S[md.unit][a].inverse()
                assert sc.grading(a, j) == phase_fraction(ratio)

    @pytest.mark.parametrize("build", CURRENT_DATA, ids=CURRENT_IDS)
    def test_tables_are_numerators_over_den(self, build):
        md = build()
        sc = simple_currents(md)
        assert sc.den % 2 == 0 and sc.den % sc.group.exponent == 0
        unit_conj = md.T[md.unit].conj()
        for j, J in sc.label_index.items():
            twist = phase_fraction(md.T[J] * unit_conj)
            assert sc.den % twist.denominator == 0
            assert sc.q(j) == twist == Fraction(sc.twists[j], sc.den)
            assert 0 <= sc.twists[j] < sc.den
            for a in range(md.dim):
                charge = phase_fraction(md.S[J][a] * md.S[md.unit][a].inverse())
                assert sc.den % charge.denominator == 0
                assert Fraction(sc.charges[j][a], sc.den) == charge
                assert 0 <= sc.charges[j][a] < sc.den

    @pytest.mark.parametrize("build", CURRENT_DATA, ids=CURRENT_IDS)
    def test_quaternionic_is_half_twist_power(self, build):
        # j is quaternionic when (h_j - h_0) times the order of j is 1/2 mod 1
        md = build()
        sc = simple_currents(md)
        for j in sc.label_index:
            rule = (sc.group.element_order(j) * sc.q(j)) % 1 == Fraction(1, 2)
            assert sc.is_quaternionic(j) == rule

    @pytest.mark.parametrize("build", CURRENT_DATA, ids=CURRENT_IDS)
    def test_charges_match_twists(self, build):
        # Q_J(a) = h_J + h_a - h_{Ja} mod 1, with every h read off T alone
        md = build()
        sc = simple_currents(md)
        unit_conj = md.T[md.unit].conj()
        h = [phase_fraction(t * unit_conj) for t in md.T]
        for j, act in sc.action_table.items():
            assert sc.q(j) == h[sc.label_index[j]]
            for a in range(md.dim):
                assert sc.grading(a, j) == (h[sc.label_index[j]] + h[a] - h[act[a]]) % 1

    def test_non_root_charge_names_current_and_primary(self):
        md = weil(Z4_FORM)
        j, a = md.index((1,)), md.index((2,))
        S = [list(row) for row in md.S]
        S[j][a] = 2 * S[j][a]
        bad = ModularData(md.labels, md.unit, S, md.T)
        # reuse the fusion and conjugation of md, so the doubled entry
        # reaches the charge table
        bad._fusion = md.fusion()
        bad._charge = md.charge_conjugation()
        with pytest.raises(ValueError, match=r"current \(1,\) at primary \(2,\)"):
            simple_currents(bad)

    def test_sufficiently_nonzero(self):
        assert simple_currents(weil(Z4_FORM)).sufficiently_nonzero

    def test_structure_recovery_helper(self):
        units = [1, 5, 7, 11]
        G, coords = abelian_structure(units, lambda a, b: a * b % 12, 1)
        assert G.factors == (2, 2)
        assert coords[1] == G.zero()
        seen = {coords[u] for u in units}
        assert len(seen) == 4
        for a in units:
            for b in units:
                assert coords[a * b % 12] == G.add(coords[a], coords[b])

    def test_structure_recovery_cyclic(self):
        elems = [1, 2, 3, 4, 5, 6]
        G, coords = abelian_structure(elems, lambda a, b: a * b % 7, 1)
        assert G.factors == (6,)
        orders = sorted(G.element_order(coords[e]) for e in elems)
        assert orders == [1, 2, 3, 3, 6, 6]


class TestCheckInvariant:
    def test_identity(self):
        md = weil(Z4_FORM)
        ok, report = check_invariant(md, identity_matrix(4))
        assert ok and report["current_periodicity"]

    def test_charge_conjugation(self):
        md = weil(Z4_FORM)
        perm = md.charge_conjugation()
        M = [[1 if j == perm[i] else 0 for j in range(4)] for i in range(4)]
        ok, _ = check_invariant(md, M)
        assert ok

    def test_rejects_permutation_breaking_T(self):
        md = weil(Z4_FORM)
        M = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
        ok, report = check_invariant(md, M)
        assert not ok
        assert not report["T_commutes"] or not report["S_commutes"]

    def test_rejects_unnormalized(self):
        md = weil(Z4_FORM)
        M = [[2 if i == j else 0 for j in range(4)] for i in range(4)]
        ok, report = check_invariant(md, M)
        assert not ok and not report["unit_normalized"]


class TestBruteForce:
    def test_half_spin_only_identity(self):
        md = weil(Z2_FORM)
        found = brute_force_invariants(md)
        assert [z.matrix for z in found] == [
            tuple(tuple(r) for r in identity_matrix(2))
        ]

    def test_z4_two_invariants(self):
        md = weil(Z4_FORM)
        found = brute_force_invariants(md)
        assert len(found) == 2
        mats = {z.matrix for z in found}
        perm = md.charge_conjugation()
        conj = tuple(
            tuple(1 if j == perm[i] else 0 for j in range(4)) for i in range(4)
        )
        assert tuple(tuple(r) for r in identity_matrix(4)) in mats
        assert conj in mats

    def test_z3_two_invariants(self):
        md = weil(Z3_FORM)
        found = brute_force_invariants(md)
        assert len(found) == 2

    def test_all_pass_check(self):
        md = weil(std_form((2, 2)))
        found = brute_force_invariants(md)
        for z in found:
            ok, _ = check_invariant(md, z.matrix)
            assert ok

    def test_closed_under_transpose(self):
        md = weil(std_form((6,)))
        found = {z.matrix for z in brute_force_invariants(md)}
        for m in found:
            n = len(m)
            assert tuple(tuple(m[j][i] for j in range(n)) for i in range(n)) in found

    def test_contains_identity_and_square(self):
        md = weil(std_form((6,)))
        found = {z.matrix for z in brute_force_invariants(md)}
        n = md.dim
        assert tuple(tuple(identity_matrix(n)[i]) for i in range(n)) in found
        perm = md.charge_conjugation()
        assert (
            tuple(tuple(1 if j == perm[i] else 0 for j in range(n)) for i in range(n))
            in found
        )

    def test_matches_commutant_dimension_bound(self):
        md = weil(Z4_FORM)
        S = [[x.approx() for x in row] for row in md.S]
        T = [x.approx() for x in md.T]
        dim = oracle.commutant_dimension(S, T)
        found = brute_force_invariants(md)
        assert len(found) >= 1
        assert dim >= 1


class TestPermutationHelpers:
    def test_as_permutation(self):
        I = [[Cyclotomic.one(), Cyclotomic.zero()], [Cyclotomic.zero(), Cyclotomic.one()]]
        assert as_permutation(I) == [0, 1]
        I[0][0] = Cyclotomic.from_rational(Fraction(2))
        assert as_permutation(I) is None

    def test_mat_mul(self):
        a = root_of_unity(3, 1)
        A = [[a, Cyclotomic.zero()], [Cyclotomic.zero(), a]]
        B = mat_mul(A, A)
        assert B[0][0] == a * a and B[0][1].is_zero()

    def test_invariant_container(self):
        z = ModularInvariant([[1, 0], [0, 1]], {"source": "test"})
        assert z.transpose() == z
        assert z.to_json()["matrix"] == [[1, 0], [0, 1]]


# -- integer entries of invariants ----------------------------------------------


class TestIntegerEntries:
    @pytest.mark.parametrize("entry", [1.5, 0.5, Fraction(3, 2), "1", None, True], ids=repr)
    def test_check_invariant_rejects_non_integers(self, entry):
        with pytest.raises(ValueError, match="invariant entries must be integers"):
            check_invariant(weil(Z2_FORM), [[entry, 0], [0, entry]])

    @pytest.mark.parametrize("entry", [1.7, Fraction(1, 2), "2", None, True], ids=repr)
    def test_invariant_rejects_non_integers(self, entry):
        with pytest.raises(ValueError, match="invariant entries must be integers"):
            ModularInvariant([[entry, 0], [0, 1]])

    @pytest.mark.parametrize("one", [1, 1.0, Fraction(1)], ids=repr)
    def test_integral_entries_accepted(self, one):
        ok, _ = check_invariant(weil(Z2_FORM), [[one, 0], [0, one]])
        assert ok
        z = ModularInvariant([[one, 0.0], [Fraction(0), one]])
        assert z.matrix == ((1, 0), (0, 1))
        assert all(type(x) is int for row in z.matrix for x in row)


# -- the brute-force search against a rational reference solver ----------------


def reference_commutant_rows(md, pos_index):
    """Rational rows of SZ = ZS from per-entry Cyclotomic sums, one per coefficient."""
    n = md.dim
    S = md.S
    for i in range(n):
        for j in range(n):
            terms = {}
            for b in range(n):
                if (b, j) in pos_index and not S[i][b].is_zero():
                    terms[(b, j)] = terms.get((b, j), Cyclotomic.zero()) + S[i][b]
            for a in range(n):
                if (i, a) in pos_index and not S[a][j].is_zero():
                    terms[(i, a)] = terms.get((i, a), Cyclotomic.zero()) - S[a][j]
            terms = {v: c for v, c in terms.items() if not c.is_zero()}
            if not terms:
                continue
            order = lcm(*(c.order for c in terms.values()))
            comps = {v: c.at_order(order).canonical() for v, c in terms.items()}
            for k in range(order):
                row = {pos_index[v]: vec[k] for v, vec in comps.items() if vec[k]}
                if row:
                    yield row


def reference_rref_insert(pivots, row, const):
    """Gauss-Jordan over the rationals; pivots[p] = (row, const): x_p = const - row . x."""
    for var in [v for v in row if v in pivots]:
        coeff = row.pop(var)
        prow, pconst = pivots[var]
        for v2, c2 in prow.items():
            row[v2] = row.get(v2, Fraction(0)) - coeff * c2
            if row[v2] == 0:
                del row[v2]
        const -= coeff * pconst
    if not row:
        assert const == 0  # the identity always solves the system
        return
    piv = max(row)
    cp = row.pop(piv)
    row = {v: c / cp for v, c in row.items()}
    const /= cp
    for var, (prow, pconst) in list(pivots.items()):
        if piv in prow:
            coeff = prow.pop(piv)
            for v2, c2 in row.items():
                prow[v2] = prow.get(v2, Fraction(0)) - coeff * c2
                if prow[v2] == 0:
                    del prow[v2]
            pivots[var] = (prow, pconst - coeff * const)
    pivots[piv] = (row, const)


def reference_brute_force(md):
    """Every nonnegative integer Z <= dim commuting with S and T, with Z_00 = 1, sorted."""
    n = md.dim
    positions = [(a, b) for a in range(n) for b in range(n) if md.T[a] == md.T[b]]
    pos_index = {p: i for i, p in enumerate(positions)}
    pivots = {}
    for row in reference_commutant_rows(md, pos_index):
        reference_rref_insert(pivots, dict(row), Fraction(0))
    reference_rref_insert(pivots, {pos_index[(md.unit, md.unit)]: Fraction(1)}, Fraction(1))
    free = [v for v in range(len(positions)) if v not in pivots]
    out = []

    def search(assign):
        vals = dict(assign)
        for var, (row, const) in pivots.items():
            vals[var] = const - sum(c * vals[v] for v, c in row.items() if v in assign)
        # a pivot whose free variables are all assigned must already be in range
        for var, (row, _) in pivots.items():
            if all(v in assign for v in row):
                x = vals[var]
                if x.denominator != 1 or not 0 <= x <= n:
                    return
        if len(assign) == len(free):
            M = [[0] * n for _ in range(n)]
            for (a, b), idx in pos_index.items():
                M[a][b] = int(vals[idx])
            out.append(tuple(tuple(r) for r in M))
            return
        for val in range(n + 1):
            search({**assign, free[len(assign)]: Fraction(val)})

    search({})
    return sorted(out)


def _twisted_t(md, k, phase):
    """md with T_k multiplied by a root of unity."""
    T = list(md.T)
    T[k] = T[k] * phase
    return ModularData(md.labels, md.unit, md.S, T)


BRUTE_DATA = [
    lambda: weil(std_form(())),
    lambda: weil(Z2_FORM),
    lambda: weil(Z3_FORM),
    lambda: weil(Z4_FORM),
    lambda: weil(std_form((2, 2))),
    lambda: weil(std_form((6,))),
    lambda: weil(std_form((8,))),
    lambda: weil(indecomposable_form("5^1_+")[0]),
    lambda: weil(indecomposable_form("2^12^1_ii")[0]),
    lambda: weil(indecomposable_form("3^1_+ x 3^1_+")[0]),
    lambda: _double("2^1_1"),
    lambda: _double("2^1_1", -1),
    lambda: _double("3^1_+"),
    lambda: _double("3^1_+", -1),
    lambda: _double("3^1_-"),
    lambda: _twisted_t(weil(Z4_FORM), 1, root_of_unity(3, 1)),
    lambda: _twisted_t(_double("2^1_1"), 2, root_of_unity(5, 2)),
    # commutant span{I, S}: 2 Z_01 = 3 Z_10 admits Z_01 = 1 only rationally
    lambda: two_by_two([[rat(0), rat(2)], [rat(3), rat(0)]]),
]
BRUTE_IDS = [
    "weil-trivial",
    "weil-2^1_1",
    "weil-3^1_+",
    "weil-2^2_1",
    "weil-Z2xZ2",
    "weil-Z6",
    "weil-Z8",
    "weil-5^1_+",
    "weil-2^12^1_ii",
    "weil-3^1_+x3^1_+",
    "ty-2^1_1",
    "ty-2^1_1-",
    "ty-3^1_+",
    "ty-3^1_+-",
    "ty-3^1_-",
    "weil-2^2_1-twisted-T",
    "ty-2^1_1-twisted-T",
    "rational-commutant",
]


@pytest.mark.parametrize("build", BRUTE_DATA, ids=BRUTE_IDS)
def test_brute_force_matches_rational_reference(build):
    md = build()
    got = [z.matrix for z in brute_force_invariants(md)]
    assert got == reference_brute_force(md)


def denominator(rows):
    return lcm(*(c.denominator for row in rows for x in row for _, c in x.terms()))


def written_with_halves(x):
    """x times 1 = (1 - zeta_2) / 2: the same value with denominator-2 terms."""
    return x * Cyclotomic(2, {0: Fraction(1, 2), 1: Fraction(-1, 2)})


@pytest.mark.parametrize("which", ["S", "T", "both"])
def test_checks_ignore_how_entries_are_written(which):
    # equal values written over larger denominators change every integer
    # form's denominator, never a result
    md = _double("2^1_1")
    S = [[written_with_halves(x) if which != "T" else x for x in row] for row in md.S]
    T = [written_with_halves(t) if which != "S" else t for t in md.T]
    same = ModularData(md.labels, md.unit, S, T)
    if which != "T":
        assert denominator(same.S) > denominator(md.S)
    if which != "S":
        assert denominator([same.T]) > denominator([md.T])
    assert validate_modular(same) == []
    assert same.charge_conjugation() == md.charge_conjugation()
    assert brute_force_invariants(same) == brute_force_invariants(md)
    assert validate_modular(_twisted_t(same, 1, -Cyclotomic.one())) == ["(ST)^3 = S^2"]


def test_checks_compare_values_not_how_they_are_written():
    # S_12 alone rewritten: S stays symmetric and its rows each other's
    # conjugates, though S_12 and S_21 are now different integer polynomials
    md = weil(Z3_FORM)
    S = [list(row) for row in md.S]
    S[1][2] = written_with_halves(S[1][2])
    same = ModularData(md.labels, md.unit, S, md.T)
    assert validate_modular(same) == []
    assert same.charge_conjugation() == md.charge_conjugation()
    assert verlinde(same) == md.fusion()


def test_twisted_t_loses_invariants():
    # the charge conjugation of Z4 pairs the labels 1 and 3; a new twist on
    # label 1 leaves the identity alone
    md = weil(Z4_FORM)
    assert len(brute_force_invariants(md)) == 2
    assert [z.matrix for z in brute_force_invariants(_twisted_t(md, 1, root_of_unity(3, 1)))] == [
        tuple(tuple(r) for r in identity_matrix(4))
    ]


# -- validate_modular against entrywise Cyclotomic arithmetic ------------------


def reference_report(md):
    """validate_modular's labels, each decided by naive_mat_mul and entry equality."""
    n = md.dim
    S, T = md.S, md.T
    report = []
    if any(S[i][j] != S[j][i] for i in range(n) for j in range(n)):
        report.append("S symmetric")
    SSd = naive_mat_mul(S, [[S[j][i].conj() for j in range(n)] for i in range(n)])
    if any(SSd[i][j] != int(i == j) for i in range(n) for j in range(n)):
        report.append("S unitary")
    try:
        for t in T:
            phase_fraction(t)
    except ValueError:
        report.append("T root of unity")
    S2 = naive_mat_mul(S, S)
    perm = []
    for row in S2:
        ones = [j for j, x in enumerate(row) if x == 1]
        if len(ones) != 1 or any(x != 0 for j, x in enumerate(row) if j != ones[0]):
            break
        perm.append(ones[0])
    if len(perm) != n or sorted(perm) != list(range(n)):
        report.append("S^2 permutation")
    else:
        if perm[md.unit] != md.unit:
            report.append("S^2 fixes unit")
        if any(perm[perm[i]] != i for i in range(n)):
            report.append("S^2 involution")
    ST = [[S[i][j] * T[j] for j in range(n)] for i in range(n)]
    cube = naive_mat_mul(ST, naive_mat_mul(ST, ST))
    if any(cube[i][j] != S2[i][j] for i in range(n) for j in range(n)):
        report.append("(ST)^3 = S^2")
    return report


VALIDATE_DATA = [
    lambda: weil(Z2_FORM),
    lambda: weil(Z3_FORM),
    lambda: weil(Z4_FORM),
    lambda: weil(std_form((2, 2))),
    lambda: _double("2^1_1"),
]
PERTURBATIONS = [
    Cyclotomic.one(),
    -Cyclotomic.one(),
    Cyclotomic.from_rational(Fraction(-1, 2)),
    root_of_unity(4, 1),
    root_of_unity(8, 1),
    root_of_unity(3, 1),
    root_of_unity(5, 2),
    sqrt_nonneg_int(2),
]


def perturbed_datum(md, kind, i, j, x):
    """md with x added to S_ij, the pair S_ij, S_ji scaled by x, or T_i scaled by x."""
    S = [list(row) for row in md.S]
    T = list(md.T)
    if kind == "entry":
        S[i][j] = S[i][j] + x
    elif kind == "pair":
        S[i][j] = S[j][i] = S[i][j] * x
    else:
        T[i] = T[i] * x
    return ModularData(md.labels, md.unit, S, T)


@st.composite
def perturbed_data(draw):
    md = draw(st.sampled_from(VALIDATE_DATA))()
    n = md.dim
    kind = draw(st.sampled_from(["entry", "pair", "twist"]))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    return perturbed_datum(md, kind, i, j, draw(st.sampled_from(PERTURBATIONS)))


def permutation_datum(p):
    """S the permutation matrix of i -> p[i], T trivial: S^2 is a permutation."""
    n = len(p)
    one, zero = Cyclotomic.one(), Cyclotomic.zero()
    S = [[one if p[i] == j else zero for j in range(n)] for i in range(n)]
    return ModularData(list(range(n)), 0, S, [one] * n)


def scaled(md, x):
    """md with S multiplied by x: still symmetric, and unitary if |x| = 1."""
    return ModularData(md.labels, md.unit, [[x * y for y in row] for row in md.S], md.T)


class TestValidateLabels:
    @settings(max_examples=40, deadline=None)
    @given(perturbed_data())
    def test_report_matches_entrywise_reference(self, md):
        assert validate_modular(md) == reference_report(md)

    @pytest.mark.parametrize(
        "build,label",
        [
            (lambda: perturbed_datum(weil(Z3_FORM), "entry", 0, 1, Cyclotomic.one()), "S symmetric"),
            (lambda: perturbed_datum(weil(Z3_FORM), "pair", 1, 2, root_of_unity(4, 1)), "S^2 permutation"),
            (lambda: perturbed_datum(weil(Z4_FORM), "twist", 1, 1, -Cyclotomic.one()), "(ST)^3 = S^2"),
            (lambda: perturbed_datum(weil(Z4_FORM), "twist", 1, 1, 2 * Cyclotomic.one()), "T root of unity"),
            (lambda: permutation_datum([1, 2, 3, 0]), "S^2 fixes unit"),
            (lambda: permutation_datum([0, 2, 3, 1]), "S^2 involution"),
            # symmetric and unitary, but S^2 = -d^2 C
            (lambda: scaled(weil(Z3_FORM), root_of_unity(4, 1)), "S^2 permutation"),
            (lambda: scaled(_double("2^1_1"), root_of_unity(4, 1)), "S^2 permutation"),
            # symmetric and unitary, S^2 unchanged, (-ST)^3 = -S^2
            (lambda: scaled(weil(Z4_FORM), -Cyclotomic.one()), "(ST)^3 = S^2"),
            # rows still orthogonal, but of norm 4 d^2
            (lambda: scaled(weil(Z3_FORM), 2), "S unitary"),
            # the 15-primary doubles (conductor 24), one case per label; the reference
            # takes about 0.5 s on each
            (lambda: perturbed_datum(_double("3^1_+"), "entry", 0, 1, Cyclotomic.one()), "S symmetric"),
            (lambda: perturbed_datum(_double("3^1_+", -1), "entry", 2, 2, rat(Fraction(-1, 2))), "S unitary"),
            (lambda: perturbed_datum(_double("3^1_+"), "twist", 1, 1, sqrt_nonneg_int(2)), "T root of unity"),
            (lambda: perturbed_datum(_double("3^1_+", -1), "pair", 1, 2, root_of_unity(4, 1)), "S^2 permutation"),
            (lambda: perturbed_datum(_double("3^1_+"), "twist", 1, 1, -Cyclotomic.one()), "(ST)^3 = S^2"),
        ],
        ids=[
            "symmetric",
            "permutation",
            "cube",
            "root",
            "fixes-unit",
            "involution",
            "weil-times-i",
            "ty-times-i",
            "weil-times-minus-one",
            "weil-times-two",
            "ty-3^1_+-symmetric",
            "ty-3^1_+--unitary",
            "ty-3^1_+-root",
            "ty-3^1_+--permutation",
            "ty-3^1_+-cube",
        ],
    )
    def test_each_label_fails(self, build, label):
        md = build()
        report = validate_modular(md)
        assert label in report
        assert report == reference_report(md)


@pytest.mark.parametrize(
    "T", [[1, -1], [-1, root_of_unity(3, 1)], [1, -root_of_unity(3, 1)], [1, 2], [1, 0], [1, Fraction(-1, 2)]]
)
def test_twist_roots_at_odd_conductor(T):
    # S = I and T rational or in Q(zeta_3): N is 1 or 3, where -1 is no power of zeta_N
    one, zero = Cyclotomic.one(), Cyclotomic.zero()
    T = [t if isinstance(t, Cyclotomic) else Cyclotomic.from_rational(t) for t in T]
    md = ModularData([0, 1], 0, [[one, zero], [zero, one]], T)
    assert modular._conductor(md.S, [md.T]) % 2 == 1
    assert validate_modular(md) == reference_report(md)


@pytest.mark.parametrize("build", CURRENT_DATA, ids=CURRENT_IDS)
def test_modular_data_decided_without_unpacking(build, monkeypatch):
    # symmetric, unitary S and root-of-unity T: S^2 and the charge conjugation
    # by rational tests alone, the cube by S T S = T-bar S T-bar
    md, fresh = build(), build()
    expected = md.charge_conjugation()

    def no_unpacking(*args):
        raise AssertionError("a result was unpacked")

    monkeypatch.setattr(modular._Packing, "reduced", no_unpacking)
    monkeypatch.setattr(modular, "_product", no_unpacking)
    assert validate_modular(fresh) == []
    assert fresh.charge_conjugation() == expected
    assert build().charge_conjugation() == expected


# -- the charge conjugation shared with validate_modular ------------------------


@pytest.mark.parametrize("build", CURRENT_DATA, ids=CURRENT_IDS)
def test_validate_keeps_charge_conjugation(build, monkeypatch):
    fresh = build().charge_conjugation()
    md = build()
    assert validate_modular(md) == []

    def no_product(*args):
        raise AssertionError("S^2 recomputed")

    monkeypatch.setattr(modular, "_product", no_product)
    assert md.charge_conjugation() == fresh


@pytest.mark.parametrize("validate_first", [True, False])
def test_non_permutation_square_raises_either_way(validate_first):
    md = weil(Z3_FORM)
    S = [list(row) for row in md.S]
    S[0][1] = S[0][1] + Cyclotomic.one()
    bad = ModularData(md.labels, md.unit, S, md.T)
    if validate_first:
        assert "S^2 permutation" in validate_modular(bad)
    with pytest.raises(ValueError, match=r"^S\^2 is not a permutation matrix$"):
        bad.charge_conjugation()
    assert "S^2 permutation" in validate_modular(bad)
    with pytest.raises(ValueError, match=r"^S\^2 is not a permutation matrix$"):
        bad.charge_conjugation()


# -- Verlinde against the unpack-and-reduce reference ----------------------------


def reference_verlinde(md):
    """Fusion tensor with every Verlinde sum unpacked and reduced modulo Phi_N.

    Each (a, b, c) is computed, none mirrored, and the errors are those of
    ``verlinde``.
    """
    n = md.dim
    S = md.S
    inv0 = []
    for k in range(n):
        x = S[md.unit][k]
        if x.is_zero():
            raise ValueError("unit row of S has a zero entry")
        inv0.append(x.inverse())
    N = modular._conductor(S, [inv0])
    dS, iS = modular._integral(S, N)
    dI, (iI,) = modular._integral([inv0], N)
    pk = modular._Packing(N, n * modular._norm(iS) ** 3 * modular._norm([iI]))
    P = [[pk.pack(p) for p in row] for row in iS]
    Pbar = [[pk.pack({-k % N: c for k, c in p.items()}) for p in row] for row in iS]
    Pinv = [pk.pack(p) for p in iI]
    den = dS**3 * dI
    out = []
    for a in range(n):
        plane = []
        for b in range(n):
            row = []
            for c in range(n):
                v = sum(P[a][k] * Pinv[k] * P[b][k] * Pbar[c][k] for k in range(n))
                coeffs = pk.reduced(v)
                if any(coeffs[1:]):
                    raise ValueError(f"fusion coefficient not rational at {(a, b, c)}")
                r = coeffs[0]
                if r % den or r < 0:
                    raise ValueError(f"fusion coefficient {Fraction(r, den)} at {(a, b, c)}")
                row.append(r // den)
            plane.append(tuple(row))
        out.append(tuple(plane))
    return tuple(out)


def verlinde_outcome(fn, md):
    """The tensor, or the message of the ValueError raised."""
    try:
        return fn(md)
    except ValueError as exc:
        return f"ValueError: {exc}"


VERLINDE_DATA = {**dict(zip(CURRENT_IDS, CURRENT_DATA)), **dict(zip(BRUTE_IDS, BRUTE_DATA))}


@pytest.mark.parametrize("build", VERLINDE_DATA.values(), ids=VERLINDE_DATA.keys())
def test_verlinde_matches_reference(build):
    md = build()
    assert verlinde_outcome(verlinde, md) == verlinde_outcome(reference_verlinde, md)


def with_entry(md, i, j, f, symmetric=True):
    """md with S[i][j] (and S[j][i] if symmetric) replaced by f of itself."""
    S = [list(row) for row in md.S]
    S[i][j] = f(S[i][j])
    if symmetric and i != j:
        S[j][i] = f(S[j][i])
    return ModularData(md.labels, md.unit, S, md.T)


def with_rows(md, perm):
    """md with S's rows permuted; S is no longer symmetric."""
    return ModularData(md.labels, md.unit, [md.S[p] for p in perm], md.T)


def with_columns(md, perm):
    """md with S's columns permuted; each Verlinde sum only changes its order."""
    return ModularData(md.labels, md.unit, [[row[p] for p in perm] for row in md.S], md.T)


ORTHOGONAL_3 = [[rat(Fraction(x, 3)) for x in row] for row in ((1, 2, 2), (2, 1, -2), (2, -2, 1))]


def three_by_three(S):
    one = Cyclotomic.one()
    return ModularData([0, 1, 2], 0, S, [one] * 3)


CORRUPTED = {
    "not-rational": (
        lambda: with_entry(_double("2^1_1"), 1, 2, lambda x: x * sqrt_nonneg_int(2)),
        "fusion coefficient not rational at (0, 0, 1)",
    ),
    "not-rational-weil": (
        lambda: with_entry(weil(Z3_FORM), 1, 1, lambda x: -x),
        "fusion coefficient not rational at (0, 0, 1)",
    ),
    "non-integer": (
        lambda: with_entry(_double("2^1_1"), 0, 1, lambda x: x / 2),
        "fusion coefficient 61/64 at (0, 0, 0)",
    ),
    "negative": (
        lambda: with_entry(_double("3^1_+"), 1, 2, lambda x: -x),
        "fusion coefficient -1/18 at (0, 0, 1)",
    ),
    "non-symmetric-entry": (
        lambda: with_entry(_double("3^1_+"), 2, 3, lambda x: 3 * x, symmetric=False),
        "fusion coefficient not rational at (0, 0, 2)",
    ),
    "orthogonal-plane-1": (
        lambda: three_by_three(ORTHOGONAL_3),
        "fusion coefficient 1/2 at (1, 1, 1)",
    ),
    "orthogonal-non-symmetric": (
        lambda: three_by_three([ORTHOGONAL_3[0], ORTHOGONAL_3[2], ORTHOGONAL_3[1]]),
        "fusion coefficient 1/2 at (1, 1, 1)",
    ),
    "zero-unit-entry": (
        lambda: with_entry(weil(Z3_FORM), 0, 2, lambda x: Cyclotomic.zero(), symmetric=False),
        "unit row of S has a zero entry",
    ),
    # conj(S_c) is a row of S for c = 0 and 2 only
    "some-conjugates-missing": (
        lambda: with_entry(weil(Z4_FORM), 3, 2, lambda x: 2 * x, symmetric=False),
        "fusion coefficient -1/4 at (0, 0, 3)",
    ),
}


@pytest.mark.parametrize("build,message", CORRUPTED.values(), ids=CORRUPTED.keys())
def test_verlinde_errors_match_reference(build, message):
    md = build()
    assert verlinde_outcome(verlinde, md) == f"ValueError: {message}"
    assert verlinde_outcome(reference_verlinde, md) == f"ValueError: {message}"


@pytest.mark.parametrize(
    "descriptor,sign,perm",
    [("2^1_1", 1, [0, 2, 1, 4, 3, 5, 6, 8, 7]), ("3^1_+", -1, [0] + list(range(14, 0, -1)))],
)
def test_verlinde_on_non_symmetric_s(descriptor, sign, perm):
    md = _double(descriptor, sign)
    # permuting the summation index k keeps every sum; permuting rows relabels a, b, c
    # for S only, which breaks the a <-> b symmetry of S but not of the formula
    assert verlinde(with_columns(md, perm)) == verlinde(md)
    md_rows = with_rows(md, perm)
    assert md_rows.S != tuple(zip(*md_rows.S))
    assert verlinde_outcome(verlinde, md_rows) == verlinde_outcome(reference_verlinde, md_rows)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["weil-3^1_+", "weil-2^2_1", "ty-2^1_1", "ty-3^1_+-"]),
    st.data(),
)
def test_verlinde_on_perturbed_s_matches_reference(name, data):
    md = VERLINDE_DATA[name]()
    n = md.dim
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    factor = data.draw(
        st.sampled_from(
            [-1, 2, Fraction(1, 2), root_of_unity(5, 1), root_of_unity(4, 1), sqrt_nonneg_int(2)]
        )
    )
    bad = with_entry(md, i, j, lambda x: x * factor, symmetric=data.draw(st.booleans()))
    assert verlinde_outcome(verlinde, bad) == verlinde_outcome(reference_verlinde, bad)


@settings(max_examples=30, deadline=None)
@given(perturbed_data())
def test_verlinde_on_perturbed_data_matches_reference(md):
    # entry, pair and twist perturbations: conj(S_c) may or may not be a row of S
    assert verlinde_outcome(verlinde, md) == verlinde_outcome(reference_verlinde, md)


def selected_fusion(md, rows):
    """The fusion tensor of md with S's rows rows[0], ..., rows[n-1], where
    rows[unit] = unit: N'_ab^c = N_(rows[a])(rows[b])^(rows[c])."""
    N, n = md.fusion(), md.dim
    return tuple(
        tuple(tuple(N[rows[a]][rows[b]][rows[c]] for c in range(n)) for b in range(n)) for a in range(n)
    )


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(VALIDATE_DATA + [lambda: weil(std_form((6,)))]), st.data())
def test_verlinde_on_row_selections_matches_reference(build, data):
    # conj(S'_c) is a row of S' only if the row conj(S_rows[c]) was selected
    md = build()
    n = md.dim
    rows = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    rows[md.unit] = md.unit
    sel = with_rows(md, rows)
    assert verlinde(sel) == reference_verlinde(sel) == selected_fusion(md, rows)


def conjugate_is_row(md):
    """For each c, whether the row conj(S_c) is a row of S."""
    return [any(all(x.conj() == y for x, y in zip(md.S[c], row)) for row in md.S) for c in range(md.dim)]


@pytest.mark.parametrize(
    "build,rows,found",
    [
        # S real with rows 1 and 2 equal: conj(S_1) = conj(S_2) is found under either index
        (lambda: weil(std_form((2, 2))), [0, 1, 1, 3], [True] * 4),
        # conj(S_1) = S_3 is no longer a row of S
        (lambda: weil(Z4_FORM), [0, 1, 2, 1], [True, False, True, False]),
    ],
    ids=["equal-rows", "some-conjugates-missing"],
)
def test_verlinde_on_fixed_row_selections(build, rows, found):
    md = build()
    sel = with_rows(md, rows)
    assert conjugate_is_row(sel) == found
    assert verlinde(sel) == reference_verlinde(sel) == selected_fusion(md, rows)


@pytest.mark.parametrize(
    "build,most", [(lambda: weil(Z3_FORM), 1), (lambda: _double("3^1_+"), 3)], ids=["weil-3^1_+", "ty-3^1_+"]
)
def test_verlinde_inverts_each_unit_row_value_once(build, most, monkeypatch):
    md = build()
    distinct = {(x.order, x.canonical()) for x in md.S[md.unit]}
    calls = []
    inverse = Cyclotomic.inverse

    def counted(x):
        calls.append(x)
        return inverse(x)

    monkeypatch.setattr(Cyclotomic, "inverse", counted)
    N = verlinde(md)
    assert len(calls) == len(distinct) <= most
    monkeypatch.undo()
    assert N == reference_verlinde(md)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 8, 12, 16, 24, 56]), st.data())
def test_packing_rational_is_the_reduction_test(N, data):
    phi = cyclotomic_polynomial(N)
    F = cyclotomic_cofactor(N)
    deg = len(phi) - 1
    bound = data.draw(st.sampled_from([1, 7, 255, 10**6, 2**80]))
    small = st.integers(-bound, bound)
    kind = data.draw(st.sampled_from(["random", "rational", "near-rational"]))
    if kind == "random":
        v = data.draw(st.lists(small, min_size=N, max_size=N))
    else:
        # r + g Phi_N, with deg g < N - deg Phi_N, so no power of x wraps around
        r = data.draw(small)
        g = data.draw(st.lists(st.integers(-3, 3), min_size=N - deg, max_size=N - deg))
        v = [0] * N
        v[0] = r
        for s, gs in enumerate(g):
            for t, pt in enumerate(phi):
                v[s + t] += gs * pt
        if kind == "near-rational":
            v[data.draw(st.integers(0, N - 1))] += data.draw(st.sampled_from([-1, 1]))
    norm = max(map(abs, v))
    pk = modular._Packing(N, max(norm, bound) * sum(map(abs, F)) * (1 + max(map(abs, F))))
    reduced = reduce_mod_phi(list(v), N)
    expected = None if any(reduced[1:]) else reduced[0]
    assert pk.rational(pk.pack(dict(enumerate(v))) * pk.PF) == expected


# -- simple-current tables against per-entry Cyclotomic arithmetic -------------


def reference_currents(md):
    """The simple-current fields by per-entry ``Cyclotomic`` arithmetic.

    Invertibles are found by scanning their fusion rows; each charge is the
    phase of S_{J,a} S_{0,a}^-1, each twist the phase of T_J conj(T_0), and
    the zero pattern of S is read off ``is_zero``.
    """
    N, n, u = md.fusion(), md.dim, md.unit
    conj = md.charge_conjugation()
    perms = {}
    for j in range(n):
        if N[j][conj[j]][u] != 1:
            continue
        perm = []
        for a in range(n):
            hits = [c for c in range(n) if N[j][a][c]]
            if len(hits) != 1 or N[j][a][hits[0]] != 1:
                break
            perm.append(hits[0])
        else:
            if sorted(perm) == list(range(n)):
                perms[j] = tuple(perm)
    group, coords = abelian_structure(list(perms), lambda a, b: perms[a][b], u)
    den = lcm(2, modular._conductor(md.S, [md.T]), group.exponent)
    twists = {coords[j]: phase_fraction(md.T[j] * md.T[u].conj()) * den for j in perms}
    charges = {
        coords[j]: tuple(phase_fraction(md.S[j][a] * md.S[u][a].inverse()) * den for a in range(n))
        for j in perms
    }
    classes: dict = {}
    sig = [classes.setdefault(tuple(r[a] for r in charges.values()), len(classes)) for a in range(n)]
    linked = {(sig[a], sig[b]) for a in range(n) for b in range(n) if not md.S[a][b].is_zero()}
    return {
        "group": group.factors,
        "coords": coords,
        "label_index": {coords[j]: j for j in perms},
        "action_table": {coords[j]: p for j, p in perms.items()},
        "quaternionic": {j for j, t in twists.items() if group.element_order(j) * t % den == den // 2},
        "sufficiently_nonzero": len(linked) == len(classes) ** 2,
        "den": den,
        "charges": charges,
        "twists": twists,
    }


def current_fields(sc):
    fields = sc._asdict()
    fields["group"] = sc.group.factors
    return fields


REFERENCE_CURRENT_DATA = CURRENT_DATA + [
    lambda: weil(indecomposable_form("3^1_+ x 3^1_+ x 3^1_+")[0]),
    lambda: _double("2^1_1", -1),
    lambda: _double("3^1_+"),
    lambda: _double("3^1_-"),
    lambda: _double("3^1_-", -1),
    lambda: _double("2^2_1", -1),
    lambda: _double("5^1_+", -1),
    lambda: _double("5^1_-"),
    lambda: _double("5^1_-", -1),
]
REFERENCE_CURRENT_IDS = CURRENT_IDS + [
    "weil-(3^1_+)^3",
    "ty-2^1_1-",
    "ty-3^1_+",
    "ty-3^1_-",
    "ty-3^1_--",
    "ty-2^2_1-",
    "ty-5^1_+-",
    "ty-5^1_-",
    "ty-5^1_--",
]


@pytest.mark.parametrize("build", REFERENCE_CURRENT_DATA, ids=REFERENCE_CURRENT_IDS)
def test_simple_currents_match_cyclotomic_route(build):
    md = build()
    assert current_fields(simple_currents(md)) == reference_currents(md)


@pytest.mark.parametrize("build", CURRENT_DATA, ids=CURRENT_IDS)
def test_simple_currents_use_no_cyclotomic_arithmetic(build, monkeypatch):
    # with the fusion rules cached, the tables come from the packed kernel alone
    md = build()
    expected = reference_currents(md)

    def forbidden(*args, **kwargs):
        raise AssertionError("per-entry Cyclotomic arithmetic")

    for name in ("__mul__", "__rmul__", "__truediv__", "inverse", "canonical", "is_zero"):
        monkeypatch.setattr(Cyclotomic, name, forbidden)
    monkeypatch.setattr(scalars, "phase_fraction", forbidden)
    monkeypatch.setattr(modular, "phase_fraction", forbidden, raising=False)
    assert current_fields(modular._find_simple_currents(md)) == expected


def test_non_root_twist_raises_as_phase_fraction():
    md = weil(Z4_FORM)
    j = md.index((1,))
    bad = perturbed_datum(md, "twist", j, j, 2 * Cyclotomic.one())
    with pytest.raises(ValueError, match="not a root of unity") as raised:
        simple_currents(bad)
    with pytest.raises(ValueError) as expected:
        phase_fraction(bad.T[j] * bad.T[bad.unit].conj())
    assert str(raised.value) == str(expected.value)


def test_zero_unit_twist_raises():
    md = weil(Z4_FORM)
    bad = perturbed_datum(md, "twist", md.unit, md.unit, Cyclotomic.zero())
    with pytest.raises(ValueError, match="not a root of unity"):
        simple_currents(bad)


def test_zero_unit_row_entry_raises():
    md = weil(Z4_FORM)
    a = md.index((1,))
    S = [list(row) for row in md.S]
    S[md.unit][a] = Cyclotomic.zero()
    bad = ModularData(md.labels, md.unit, S, md.T)
    # reuse the fusion and conjugation of md, so the zero reaches the tables
    bad._fusion = md.fusion()
    bad._charge = md.charge_conjugation()
    with pytest.raises(ValueError, match="unit row of S has a zero entry"):
        simple_currents(bad)


@pytest.mark.parametrize("build", CURRENT_DATA[:4], ids=CURRENT_IDS[:4])
def test_simple_currents_exact_at_large_coefficients(build):
    # S scaled by a large integer, and T written with large cancelling terms
    # (c (1 + zeta_3 + zeta_3^2) = 0): the packing bound must cover both
    md = build()
    c = 2**70 + 1
    zero = Cyclotomic(3, {0: c, 1: c, 2: c})
    big = ModularData(md.labels, md.unit, [[c * x for x in row] for row in md.S], [t + zero for t in md.T])
    big._fusion = md.fusion()
    big._charge = md.charge_conjugation()
    sc, ref = simple_currents(big), simple_currents(md)
    assert current_fields(sc) == reference_currents(big)
    assert sc.sufficiently_nonzero == ref.sufficiently_nonzero
    assert {j: sc.q(j) for j in sc.twists} == {j: ref.q(j) for j in ref.twists}
    assert all(sc.grading(a, j) == ref.grading(a, j) for j in ref.charges for a in range(md.dim))


# -- the Galois action on S, and what verlinde and brute force read off it ---------


def galois_image(x, g, N):
    """sigma_g(x) for x in Q(zeta_N), zeta_N^k -> zeta_N^(g k), from x's terms."""
    return Cyclotomic(N, {g * k: c for k, c in x.at_order(N).terms()})


def _weil(descriptor):
    return weil(indecomposable_form(descriptor)[0])


ORBIT_COUNTS = {
    "ty-2^1_1": (lambda: _double("2^1_1"), 5),
    "ty-3^1_+": (lambda: _double("3^1_+"), 8),
    "ty-2^2_1": (lambda: _double("2^2_1"), 14),
    "ty-5^1_+": (lambda: _double("5^1_+"), 10),
    "ty-5^1_-": (lambda: _double("5^1_-"), 10),
    "ty-7^1_+": (lambda: _double("7^1_+"), 10),
    "weil-3^1_+x3^1_+": (lambda: _weil("3^1_+ x 3^1_+"), 5),
    "weil-2^2_1x2^1_1": (lambda: _weil("2^2_1 x 2^1_1"), 6),
}


@pytest.mark.parametrize("build,count", ORBIT_COUNTS.values(), ids=ORBIT_COUNTS.keys())
def test_galois_certificate(build, count):
    md = build()
    act = modular.galois_action(md)
    assert act is modular.galois_action(md)
    N, n = act.N, md.dim
    assert N == modular._conductor(md.S)
    assert len(act.orbits) == count
    # the generators span (Z/N)^*
    span = {1}
    while True:
        more = span | {x * g % N for x in span for g, _, _ in act.gens}
        if more == span:
            break
        span = more
    assert len(span) == len(cyclotomic_polynomial(N)) - 1
    # the orbits partition the columns, each closed under every generator
    assert sorted(k for o in act.orbits for k in o) == list(range(n))
    assert all({perm[k] for k in o} == set(o) for _, perm, _ in act.gens for o in act.orbits)
    if n > 30:
        return
    # sigma_g(S_ik) = signs[k] S_{i, perm[k]}, entry by entry in Cyclotomic arithmetic
    for g, perm, signs in act.gens:
        for i in range(n):
            for k in range(n):
                assert galois_image(md.S[i][k], g, N) == signs[k] * md.S[i][perm[k]]


PERTURBED_S = {
    # the perturbed columns are no signed columns of S after sigma_g
    "ty-3^1_+-entry-doubled": lambda: with_entry(_double("3^1_+"), 1, 2, lambda x: 2 * x),
    "ty-2^1_1-entry-times-sqrt2": lambda: with_entry(
        _double("2^1_1"), 1, 2, lambda x: x * sqrt_nonneg_int(2)
    ),
    "weil-3^1_+-entry-negated": lambda: with_entry(weil(Z3_FORM), 1, 1, lambda x: -x),
    "weil-2^2_1-one-entry-times-i": lambda: with_entry(
        weil(Z4_FORM), 1, 1, lambda x: x * root_of_unity(4, 1), symmetric=False
    ),
    # two equal columns
    "weil-2^2_1-column-repeated": lambda: with_columns(weil(Z4_FORM), [0, 1, 1, 3]),
}


@pytest.mark.parametrize("build", PERTURBED_S.values(), ids=PERTURBED_S.keys())
def test_perturbed_s_has_no_certificate(build):
    md = build()
    act = modular.galois_action(md)
    assert len(cyclotomic_polynomial(act.N)) > 2  # (Z/N)^* is not trivial
    assert act.gens == () and act.orbits == tuple((k,) for k in range(md.dim))
    assert verlinde_outcome(verlinde, md) == verlinde_outcome(reference_verlinde, md)
    classes, columns = modular._position_classes(md)
    assert all(len(c) == 1 for c in classes) and columns == list(range(md.dim))
    if md.dim <= 9:
        assert [z.matrix for z in brute_force_invariants(md)] == reference_brute_force(md)


def test_position_classes_on_the_3_double():
    md = _double("3^1_+")
    n = md.dim
    allowed = [(a, b) for a in range(n) for b in range(n) if md.T[a] == md.T[b]]
    classes, columns = modular._position_classes(md)
    assert len(allowed) == 43 and len(classes) == 17
    assert columns == [o[0] for o in modular.galois_action(md).orbits] and len(columns) == 8
    members = [p for c in classes for p in c]
    assert len(members) == len(set(members)) and set(members) <= set(allowed)
    assert members[:1] == [(0, 0)] and [min(c) for c in classes] == sorted(min(c) for c in classes)
    # every invariant is constant on each class and 0 off the classes
    found = brute_force_invariants(md)
    assert len(found) == 5
    for z in found:
        assert all(len({z.matrix[a][b] for a, b in c}) == 1 for c in classes)
        assert all(z.matrix[a][b] == 0 for a in range(n) for b in range(n) if (a, b) not in members)


def test_position_classes_without_an_invertible_s():
    # certified (N = 1, no generators needed) but S^2 = 6 I is no permutation
    md = BRUTE_DATA[BRUTE_IDS.index("rational-commutant")]()
    with pytest.raises(ValueError):
        md.charge_conjugation()
    classes, columns = modular._position_classes(md)
    assert classes == [[(a, b)] for a in range(2) for b in range(2)] and columns == [0, 1]


@pytest.mark.parametrize(
    "build", [lambda: _double("3^1_+"), lambda: _weil("3^1_+ x 3^1_+")], ids=["ty-3^1_+", "weil-3^1_+x3^1_+"]
)
def test_certified_verlinde_forms_one_product_per_orbit(build, monkeypatch):
    md = build()
    n = md.dim
    act = modular.galois_action(md)
    triples = n * (n + 1) * (n + 2) // 6
    counted = []

    def count_mul(x, y):
        counted.append(1)
        return x * y

    monkeypatch.setattr(modular, "mul", count_mul)
    fused = verlinde(md)
    assert len(counted) == len(act.orbits) * triples < n * triples
    # the same datum without its certificate sums every column
    counted.clear()
    md._galois = modular.GaloisAction(act.N, (), tuple((k,) for k in range(n)))
    assert verlinde(md) == fused
    assert len(counted) == n * triples
    monkeypatch.undo()
    assert fused == reference_verlinde(md)


def reference_periodicity(sc, M):
    """current_periodicity as check_invariant first decided it: every current
    pair (J, J') with M[J][J'] != 0, over all entries."""
    n = len(M)
    periodic = True
    for jc, pj in sc.action_table.items():
        j = sc.label_index[jc]
        for jc2, pj2 in sc.action_table.items():
            if M[j][sc.label_index[jc2]] == 0:
                continue
            for a in range(n):
                for b in range(n):
                    if M[pj[a]][pj2[b]] != M[a][b]:
                        periodic = False
    return periodic


# every datum with fusion rules (the rational commutant has a zero unit entry)
FUSION_DATA = {k: v for k, v in VERLINDE_DATA.items() if k != "rational-commutant"}


@pytest.mark.parametrize("build", FUSION_DATA.values(), ids=FUSION_DATA.keys())
def test_current_periodicity_matches_reference(build):
    md = build()
    mats = {z.matrix for z in brute_force_invariants(md)} if md.dim <= 15 else set()
    try:
        mats |= enumerate_sc(md).matrix_set()
    except ValueError:
        assert validate_modular(md)  # only non-modular data have no simple-current invariants
    for M in sorted(mats):
        ok, report = check_invariant(md, M)
        if ok:
            assert report["current_periodicity"] == reference_periodicity(simple_currents(md), M)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["weil-Z2xZ2", "weil-Z6", "weil-3^1_+x3^1_+", "weil-2^12^1_i", "ty-2^1_1"]), st.data())
def test_current_periodicity_on_drawn_matrices(name, data):
    # M constant on the orbits of a drawn group of current pairs, maybe with one entry changed
    md = VERLINDE_DATA[name]()
    sc = simple_currents(md)
    n = md.dim
    perms = list(sc.action_table.values())
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(perms), st.sampled_from(perms)), max_size=3))
    M = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if M[a][b] is None:
                value = data.draw(st.integers(0, 2))
                M[a][b] = value
                orbit = [(a, b)]
                for x, y in orbit:
                    for p, p2 in pairs:
                        if M[p[x]][p2[y]] is None:
                            M[p[x]][p2[y]] = value
                            orbit.append((p[x], p2[y]))
    if data.draw(st.booleans()):
        M[data.draw(st.integers(0, n - 1))][data.draw(st.integers(0, n - 1))] += 1
    assert modular._current_periodic(sc, M) == reference_periodicity(sc, M)
