"""Pairings, quadratic forms, Gauss sums, indecomposable types."""

import cmath
import functools
import itertools
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import close, cphase, mod1

from modinv.abelian import (
    HOM_GUARD,
    FinAbGroup,
    GuardError,
    Subgroup,
    automorphisms,
    product_with_maps,
    dual_characters,
    full_subgroup,
    subgroup_group,
    trivial_subgroup,
)
from modinv.forms import (
    _parse_descriptor,
    AlternatingPairing,
    NormalForm,
    Pairing,
    QuadraticForm,
    alternating_pairings,
    descriptor,
    forms_equivalent,
    form_denominator,
    forms_for_pairing,
    gauss_sum,
    indecomposable_form,
    isometries,
    normal_form,
    pairing_image_data,
    standard_pairing,
    zero_pairing,
)
from modinv.scalars import (
    Cyclotomic,
    factorize,
    phase_fraction,
    root_of_unity,
    sqrt_nonneg_int,
)

F = Fraction


class TestPairing:
    def test_standard(self):
        G = FinAbGroup((5,))
        p = standard_pairing(G)
        assert p.phase((2,), (3,)) == F(6, 5) % 1
        assert p.is_symmetric() and p.is_nondegenerate()

    def test_standard_two_by_two(self):
        G = FinAbGroup((2, 2))
        p = standard_pairing(G)
        assert p.matrix == ((F(1, 2), F(0)), (F(0), F(1, 2)))
        assert p.radical().order == 1

    def test_trivial_group(self):
        p = standard_pairing(FinAbGroup(()))
        assert p.matrix == ()
        assert p.is_nondegenerate()
        trivial, Z3 = FinAbGroup(()), FinAbGroup((3,))
        assert zero_pairing(trivial, Z3).transpose() == zero_pairing(Z3, trivial)

    @pytest.mark.parametrize("matrix", [[[1, 2]], [[1], [2]], [], [[]]])
    def test_shape_is_checked(self, matrix):
        """Too few or too many rows or columns, in every constructor."""
        Z3 = FinAbGroup((3,))
        rational = [[F(x, 3) for x in row] for row in matrix]
        for build in (
            lambda: Pairing(Z3, Z3, rational),
            lambda: Pairing.from_numerators(Z3, Z3, matrix),
            lambda: AlternatingPairing(Z3, rational),
            lambda: AlternatingPairing.from_numerators(Z3, Z3, matrix),
        ):
            with pytest.raises(ValueError, match="shape must be left rank x right rank"):
                build()

    def test_well_definedness_rejected(self):
        G = FinAbGroup((2,))
        with pytest.raises(ValueError):
            Pairing(G, G, [[F(1, 3)]])
        with pytest.raises(ValueError):
            Pairing(G, FinAbGroup((4,)), [[F(1, 4)]])

    def test_radical(self):
        Z4 = FinAbGroup((4,))
        assert standard_pairing(Z4).radical().order == 1
        halved = Pairing(Z4, Z4, [[F(1, 2)]])
        rad = halved.radical()
        assert set(rad.elements()) == {(0,), (2,)}
        assert set(zero_pairing(Z4).radical().elements()) == {(0,), (1,), (2,), (3,)}

    def test_eval_matches_float(self):
        G = FinAbGroup((6,))
        p = standard_pairing(G)
        for a in range(6):
            for b in range(6):
                assert close(p.eval((a,), (b,)).approx(), cphase(F(a * b, 6)))

    def test_perp(self):
        G = FinAbGroup((4,))
        p = standard_pairing(G)
        H = Subgroup(G, [(2,)])
        assert set(p.perp(H).elements()) == {(0,), (2,)}
        assert p.perp(trivial_subgroup(G)).order == 4
        assert p.perp(full_subgroup(G)).order == 1

    @pytest.mark.parametrize("factors", [(4,), (2, 2), (6,), (4, 2)])
    def test_perp_order_product(self, factors):
        from modinv.abelian import all_subgroups

        G = FinAbGroup(factors)
        p = standard_pairing(G)
        for H in all_subgroups(G):
            assert p.perp(H).order * H.order == G.order

    def test_row_character(self):
        G = FinAbGroup((4, 2))
        p = standard_pairing(G)
        chi = p.row_character((1, 1))
        for h in G.elements():
            assert chi.phase(h) == p.phase((1, 1), h)

    def test_transpose_conj(self):
        G = FinAbGroup((3,))
        H = FinAbGroup((3,))
        p = Pairing(G, H, [[F(2, 3)]])
        assert p.transpose().phase((1,), (1,)) == F(2, 3)
        assert p.conj().phase((1,), (1,)) == F(1, 3)

    def test_pull_back(self):
        G = FinAbGroup((4, 2))
        p = standard_pairing(G)
        H = Subgroup(G, [(2, 0), (0, 1)])
        J, embed, section = subgroup_group(H)
        q = p.pull_back(J, J, embed, embed)
        for a in J.elements():
            for b in J.elements():
                assert q.phase(a, b) == p.phase(embed(a), embed(b))

    def test_json_round_trip(self):
        G = FinAbGroup((4, 2))
        p = standard_pairing(G)
        assert Pairing.from_json(p.to_json()) == p


class TestSubgroupGroup:
    @pytest.mark.parametrize(
        "factors,gens",
        [((4, 2), [(2, 1)]), ((4, 2), [(1, 0)]), ((6, 2), [(2, 0), (0, 1)]), ((8,), [(2,)])],
    )
    def test_presentation(self, factors, gens):
        G = FinAbGroup(factors)
        H = Subgroup(G, gens)
        J, embed, section = subgroup_group(H)
        assert J.order == H.order
        image = {embed(y) for y in J.elements()}
        assert image == set(H.elements())
        for y in J.elements():
            assert section(embed(y)) == y
        for a in J.elements():
            for b in J.elements():
                assert embed(J.add(a, b)) == G.add(embed(a), embed(b))

    def test_trivial(self):
        G = FinAbGroup((4,))
        J, embed, section = subgroup_group(trivial_subgroup(G))
        assert J.factors == ()
        assert embed(()) == (0,)
        assert section((0,)) == ()


class TestQuadraticForm:
    def test_z3_form(self):
        G = FinAbGroup((3,))
        q = QuadraticForm(G, {(0,): 0, (1,): F(1, 3), (2,): F(1, 3)})
        assert q.phase((2,)) == F(1, 3)
        pol = q.polarization()
        assert pol.matrix == ((F(1, 3),),)

    def test_z3_doubled_form(self):
        # polarization of the doubled form has matrix [[2/3]]
        G = FinAbGroup((3,))
        q = QuadraticForm(G, {(0,): 0, (1,): F(2, 3), (2,): F(2, 3)})
        assert q.polarization().matrix == ((F(2, 3),),)

    def test_z4_eighth_root_form(self):
        G = FinAbGroup((4,))
        q = QuadraticForm(G, {(0,): 0, (1,): F(1, 8), (2,): F(1, 2), (3,): F(1, 8)})
        assert q.polarization().matrix == ((F(3, 4),),)
        assert q.polarization().phase((1,), (1,)) == F(3, 4)

    def test_rejects_broken_tables(self):
        G = FinAbGroup((4,))
        with pytest.raises(ValueError):
            QuadraticForm(G, {(0,): 0, (1,): F(1, 8), (2,): F(1, 2), (3,): F(3, 8)})
        with pytest.raises(ValueError):
            QuadraticForm(G, {(0,): F(1, 2), (1,): 0, (2,): 0, (3,): 0})
        with pytest.raises(ValueError):
            QuadraticForm(G, {(0,): 0, (1,): F(1, 8)})
        # additive character: biadditivity of the polarization fails only at
        # nondegeneracy, so a flat table is still a valid (degenerate) form
        flat = QuadraticForm(G, {g: 0 for g in G.elements()})
        assert flat.polarization().radical().order == 4

    def test_rejects_non_biadditive_table(self):
        # q(0) = 0, q(-g) = q(g) and the polarization matrix [[0]] is well
        # defined, but B(1, 2) = 1/5 + 2/5 - 2/5 differs from b(1, 2) = 0
        G = FinAbGroup((5,))
        table = {(0,): 0, (1,): F(1, 5), (2,): F(2, 5), (3,): F(2, 5), (4,): F(1, 5)}
        with pytest.raises(ValueError, match="polarization is not biadditive"):
            QuadraticForm(G, table)
        # q(x, y) = f(y) on Z4 x Z4 is biadditive along e_0 but not along e_1
        G = FinAbGroup((4, 4))
        table = {g: F(1, 4) if g[1] == 2 else 0 for g in G.elements()}
        with pytest.raises(ValueError, match="polarization is not biadditive"):
            QuadraticForm(G, table)

    def test_trivial_group(self):
        q = QuadraticForm(FinAbGroup(()), {(): 0})
        assert q.polarization().matrix == ()

    def test_times_character_and_conj(self):
        G = FinAbGroup((4,))
        q = QuadraticForm(G, {(0,): 0, (1,): F(1, 8), (2,): F(1, 2), (3,): F(1, 8)})
        from modinv.abelian import Character

        psi = Character(G, (2,))
        q2 = q.times_character(psi)
        assert q2.phase((1,)) == F(5, 8)
        assert q2.polarization() == q.polarization()
        assert q.conj().phase((1,)) == F(7, 8)

    def test_direct_sum_renormalizes(self):
        q1, _ = indecomposable_form("2^1_1")
        q2, _ = indecomposable_form("3^1_+")
        q = q1.direct_sum(q2)
        assert q.group.factors == (6,)
        # the order-6 generator decomposes into the two components
        assert q.phase(q.group.zero()) == 0

    def test_json_round_trip(self):
        q, _ = indecomposable_form("2^2_1")
        assert QuadraticForm.from_json(q.to_json()) == q

    def test_value_outside_denominator_rejected(self):
        # forms on Z3 take values in (1/3)Z
        G = FinAbGroup((3,))
        with pytest.raises(ValueError, match=r"\(1/3\)Z"):
            QuadraticForm(G, {(0,): 0, (1,): F(1, 9), (2,): F(1, 9)})

    @pytest.mark.parametrize(
        "factors,table,match",
        [
            ((4,), {(0,): 0, (1,): F(1, 8)}, "cover the group"),
            ((4,), {(0,): F(1, 2), (1,): 0, (2,): 0, (3,): 0}, "q\\(0\\)"),
            ((4,), {(0,): 0, (1,): F(1, 8), (2,): F(1, 2), (3,): F(3, 8)}, "q\\(-g\\)"),
            ((5,), {(g,): F(k, 5) for g, k in enumerate([0, 1, 2, 2, 1])}, "biadditive"),
            # B(e_0, e_1) = -1/4 is not a pairing value on Z2 x Z2
            ((2, 2), {(0, 0): 0, (1, 0): 0, (0, 1): 0, (1, 1): F(1, 4)}, "entry denominators"),
        ],
    )
    def test_both_constructors_check(self, factors, table, match):
        with pytest.raises(ValueError, match=match):
            QuadraticForm(FinAbGroup(factors), table)

    def test_pairing_constructors_check(self):
        G, H = FinAbGroup((4, 2)), FinAbGroup((4,))
        with pytest.raises(ValueError, match="entry denominators"):
            Pairing(G, H, [[0], [F(1, 4)]])
        with pytest.raises(ValueError, match="entry denominators"):
            Pairing.from_numerators(G, H, [[0], [1]])
        Z2 = FinAbGroup((2,))
        with pytest.raises(ValueError, match="not alternating"):
            AlternatingPairing.from_numerators(Z2, Z2, [[1]])


class TestFormsForPairing:
    def test_z3_unique(self):
        G = FinAbGroup((3,))
        forms = forms_for_pairing(standard_pairing(G))
        assert len(forms) == 1
        assert forms[0].phase((1,)) == F(1, 3)
        assert forms[0].phase((2,)) == F(1, 3)

    def test_z2_both_roots(self):
        G = FinAbGroup((2,))
        gamma = Pairing(G, G, [[F(1, 2)]])
        forms = forms_for_pairing(gamma)
        assert len(forms) == 2
        assert {f.phase((1,)) for f in forms} == {F(1, 4), F(3, 4)}

    def test_z2xz2_count(self):
        forms = forms_for_pairing(standard_pairing(FinAbGroup((2, 2))))
        assert len(forms) == 4

    @pytest.mark.parametrize(
        "factors", [(2,), (3,), (4,), (2, 2), (4, 2), (6,), (3, 3), (8, 2), (12, 2)]
    )
    def test_polarization_round_trip_and_count(self, factors):
        G = FinAbGroup(factors)
        gamma = standard_pairing(G)
        forms = forms_for_pairing(gamma)
        l = sum(1 for n in factors if n % 2 == 0)
        assert len(forms) == 2**l
        for q in forms:
            assert q.polarization() == gamma
        assert len(set(forms)) == len(forms)
        # quotient of any two is a character of order at most 2
        base = forms[0]
        for q in forms:
            diff = {g: mod1(q.phase(g) - base.phase(g)) for g in G.elements()}
            for g in G.elements():
                for h in G.elements():
                    assert mod1(diff[g] + diff[h] - diff[G.add(g, h)]) == 0
                assert mod1(2 * diff[g]) == 0

    def test_degenerate_rejected(self):
        G = FinAbGroup((4,))
        with pytest.raises(ValueError):
            forms_for_pairing(zero_pairing(G))


class TestGaussSum:
    def test_z3(self):
        q, _ = indecomposable_form("3^1_+")
        total, normalized, sigma = gauss_sum(q)
        from modinv.scalars import root_of_unity

        assert total == 1 + 2 * root_of_unity(3, 1)
        assert sigma == 2
        assert normalized == root_of_unity(4, 1)

    def test_z2(self):
        q, _ = indecomposable_form("2^1_1")
        total, normalized, sigma = gauss_sum(q)
        from modinv.scalars import root_of_unity

        assert total == 1 + root_of_unity(4, 1)
        assert sigma == 1

    def test_trivial(self):
        q = QuadraticForm(FinAbGroup(()), {(): 0})
        total, normalized, sigma = gauss_sum(q)
        assert total.is_one() and sigma == 0

    def test_degenerate_raises(self):
        G = FinAbGroup((2,))
        flat = QuadraticForm(G, {(0,): 0, (1,): 0})
        for q in [flat] + _degenerate_forms():
            with pytest.raises(ValueError):
                gauss_sum(q)
            with pytest.raises(ValueError):
                q.signature()
            with pytest.raises(ValueError):
                descriptor(q)

    @pytest.mark.parametrize(
        "desc",
        ["2^1_1", "2^2_-1", "2^2_3", "3^1_-", "5^1_+", "2^12^1_i", "2^22^2_ii"],
    )
    def test_float_cross_check(self, desc):
        q, _ = indecomposable_form(desc)
        total, normalized, sigma = gauss_sum(q)
        approx = sum(cphase(q.phase(g)) for g in q.group.elements())
        assert close(total.approx(), approx)
        assert close(normalized.approx(), cmath.exp(2j * cmath.pi * sigma / 8))
        assert q.signature() == q.signature() == sigma


DESCRIPTORS = [
    "2^1_1",
    "2^1_-1",
    "2^1_3",
    "2^1_-3",
    "2^2_1",
    "2^2_-1",
    "2^2_3",
    "2^2_-3",
    "2^3_1",
    "2^3_-3",
    "2^4_3",
    "3^1_+",
    "3^1_-",
    "3^2_+",
    "3^2_-",
    "5^1_+",
    "5^1_-",
    "7^1_+",
    "7^1_-",
    "2^12^1_i",
    "2^12^1_ii",
    "2^22^2_i",
    "2^22^2_ii",
]


def descriptors_up_to(limit):
    """Every indecomposable descriptor of order at most ``limit``."""
    out = []
    for p in range(2, limit + 1):
        if factorize(p) != {p: 1}:
            continue
        k = 1
        while p**k <= limit:
            if p == 2:
                out += [f"2^{k}_{m}" for m in (1, -1, 3, -3)]
                if 4**k <= limit:
                    out += [f"2^{k}2^{k}_i", f"2^{k}2^{k}_ii"]
            else:
                out += [f"{p}^{k}_+", f"{p}^{k}_-"]
            k += 1
    return out


# orders where the Fraction Gauss sum took seconds or did not finish
LARGE_PRIMES = ["211^1_+", "211^1_-", "307^1_+", "307^1_-", "1009^1_+"]
GAUSS_DESCRIPTORS = (
    DESCRIPTORS + [d for d in descriptors_up_to(300) if d not in DESCRIPTORS] + LARGE_PRIMES
)


class TestIndecomposable:
    def test_two_one_one(self):
        q, x3 = indecomposable_form("2^1_1")
        from modinv.scalars import root_of_unity

        assert q.group.factors == (2,)
        assert q.phase((1,)) == F(1, 4)
        assert x3 == root_of_unity(8, -1)

    def test_odd_types(self):
        from modinv.scalars import root_of_unity

        q, x3 = indecomposable_form("3^1_+")
        assert q.phase((1,)) == F(1, 3)
        assert x3 == -root_of_unity(4, 1)  # -i
        q, x3 = indecomposable_form("3^1_-")
        assert q.phase((1,)) == F(2, 3)
        assert x3 == root_of_unity(4, 1)  # i

    def test_hyperbolic_types(self):
        q, x3 = indecomposable_form("2^12^1_i")
        assert q.group.factors == (2, 2)
        assert q.phase((1, 1)) == F(1, 2)
        assert q.phase((1, 0)) == 0
        assert x3.is_one()
        q, x3 = indecomposable_form("2^12^1_ii")
        assert q.phase((1, 0)) == F(1, 2)
        assert q.phase((1, 1)) == F(1, 2)
        assert x3 == Cyclo_minus_one()

    def test_invalid(self):
        for bad in ["4^1_+", "2^0_1", "2^1_2", "3^1_i", "junk", "9^1_+"]:
            with pytest.raises(ValueError):
                indecomposable_form(bad)

    @pytest.mark.parametrize(
        "desc,error,match",
        [
            ("2^1_", ValueError, "bad descriptor '2\\^1_'"),
            ("2^1_1 x", ValueError, "bad descriptor '2\\^1_1 x'"),
            ("2^1_1/2", ValueError, "bad descriptor '2\\^1_1/2'"),
            ("2^100_1", GuardError, "guard"),
            ("3^40_+", GuardError, "guard"),
            ("5^12_+", GuardError, "guard"),  # 244M entries if tabulated
            ("2^10_1 x 3^5_+", GuardError, "guard"),  # each part alone is legal
            (None, ValueError, "bad descriptor None"),
            (5, ValueError, "bad descriptor 5"),
        ],
    )
    def test_malformed_or_oversized(self, desc, error, match):
        with pytest.raises(error, match=match):
            indecomposable_form(desc)

    # short strings only: valid descriptors near the order guard take seconds to tabulate
    @given(st.text(alphabet="0123456789^_+-ix *", max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_fuzzed_descriptor_builds_or_raises_value_error(self, desc):
        try:
            q, x3 = indecomposable_form(desc)
        except ValueError:
            return
        assert isinstance(q, QuadraticForm) and (x3**24).is_one()

    @pytest.mark.parametrize("desc", GAUSS_DESCRIPTORS)
    def test_gauss_consistency(self, desc):
        # normalized Gauss sum is the inverse of x cubed
        q, x3 = indecomposable_form(desc)
        _, normalized, _ = gauss_sum(q)
        assert (normalized * x3).is_one()

    def test_products(self):
        q, x3 = indecomposable_form("2^1_1 x 3^1_+")
        assert q.group.factors == (6,)
        q1, a = indecomposable_form("2^1_1")
        q2, b = indecomposable_form("3^1_+")
        assert x3 == a * b
        _, normalized, _ = gauss_sum(q)
        assert (normalized * x3).is_one()


def Cyclo_minus_one():
    from modinv.scalars import Cyclotomic

    return Cyclotomic.from_rational(F(-1))


class TestEquivalence:
    def test_self(self):
        q, _ = indecomposable_form("3^1_+")
        alpha = forms_equivalent(q, q)
        assert alpha is not None
        assert all(alpha.apply(g) == g for g in q.group.elements()) or all(
            q.phase(alpha.apply(g)) == q.phase(g) for g in q.group.elements()
        )

    def test_two_squared_types_inequivalent(self):
        q1, _ = indecomposable_form("2^2_1")
        q2, _ = indecomposable_form("2^2_-3")
        assert forms_equivalent(q1, q2) is None

    def test_hyperbolic_inequivalent(self):
        q1, _ = indecomposable_form("2^12^1_i")
        q2, _ = indecomposable_form("2^12^1_ii")
        assert forms_equivalent(q1, q2) is None

    def test_mod_four_collapse_on_z2(self):
        q1, _ = indecomposable_form("2^1_1")
        q2, _ = indecomposable_form("2^1_-3")
        assert q1 == q2

    def test_witness_is_checked(self):
        q1, _ = indecomposable_form("3^1_+")
        q2, _ = indecomposable_form("3^1_-")
        assert forms_equivalent(q1, q2) is None

    @staticmethod
    def class_count(gamma):
        classes = []
        for q in forms_for_pairing(gamma):
            for rep in classes:
                if forms_equivalent(rep, q) is not None:
                    break
            else:
                classes.append(q)
        return len(classes)

    @pytest.mark.parametrize(
        "factors,count",
        [((3,), 1), ((4,), 2), ((8,), 1), ((9, 3), 1), ((4, 2), 4), ((2, 2, 2), 4)],
    )
    def test_class_counts_standard(self, factors, count):
        assert self.class_count(standard_pairing(FinAbGroup(factors))) == count

    def test_hyperbolic_pairing_two_classes(self):
        # off-diagonal pairing on Z2 x Z2: exactly the two hyperbolic types
        G = FinAbGroup((2, 2))
        gamma = Pairing(G, G, [[0, F(1, 2)], [F(1, 2), 0]])
        assert self.class_count(gamma) == 2

    def test_diagonal_two_torsion_three_classes(self):
        # (Z2)^2 with the split diagonal pairing carries three inequivalent
        # forms, separated by their Gauss signatures 2, 0, 6 mod 8
        G = FinAbGroup((2, 2))
        forms = forms_for_pairing(standard_pairing(G))
        assert self.class_count(standard_pairing(G)) == 3
        sigmas = sorted(gauss_sum(q)[2] for q in forms)
        assert sigmas == [0, 0, 2, 6]


def _hyperbolic_pairing():
    G = FinAbGroup((2, 2))
    return Pairing(G, G, [[0, F(1, 2)], [F(1, 2), 0]])


def _degenerate_forms():
    """Forms with a radical, where a map preserving the values need not be injective."""
    G = FinAbGroup((4, 2))
    return [
        QuadraticForm(G, {g: 0 for g in G.elements()}),
        QuadraticForm(G, {g: F(g[1], 2) for g in G.elements()}),
        QuadraticForm(G, {g: F(g[0] * g[0], 4) % 1 for g in G.elements()}),
    ]


class TestIsometries:
    @pytest.mark.parametrize(
        "forms",
        [
            pytest.param(forms_for_pairing(standard_pairing(FinAbGroup(f))), id=repr(f))
            for f in [(3,), (4,), (8,), (9, 3), (4, 2), (2, 2, 2)]
        ]
        + [
            pytest.param(forms_for_pairing(_hyperbolic_pairing()), id="hyperbolic"),
            pytest.param(_degenerate_forms(), id="degenerate"),
        ],
    )
    def test_matches_brute_force(self, forms):
        G = forms[0].group
        autos = automorphisms(G)
        for q1 in forms:
            for q2 in forms:
                brute = {
                    a.matrix
                    for a in autos
                    if all(q2.phase(a.apply(g)) == q1.phase(g) for g in G.elements())
                }
                assert {a.matrix for a in isometries(q1, q2)} == brute

    @pytest.mark.parametrize(
        "desc,count",
        [
            ("2^1_1 x 2^1_1 x 2^1_1 x 2^1_1", 24),
            ("3^1_+ x 3^1_+ x 3^1_+", 48),
            ("2^8_1", 2),
            ("3^5_+", 2),
        ],
    )
    def test_orthogonal_group_orders(self, desc, count):
        q, _ = indecomposable_form(desc)
        found = list(isometries(q, q))
        assert len(found) == len({a.matrix for a in found}) == count
        for a in found:
            assert a.is_bijective()
            assert all(q.phase(a.apply(g)) == q.phase(g) for g in q.group.elements())

    def test_guard_before_search(self):
        # 64 candidates for each of the 8 generators
        q, _ = indecomposable_form(" x ".join(["2^1_1"] * 8))
        with pytest.raises(GuardError, match=str(HOM_GUARD)):
            isometries(q, q)


class TestAlternating:
    @pytest.mark.parametrize(
        "factors,count",
        [((5,), 1), ((12,), 1), ((2, 2), 2), ((3, 3), 3), ((4, 2), 2), ((2, 2, 2), 8)],
    )
    def test_counts(self, factors, count):
        G = FinAbGroup(factors)
        pairings = alternating_pairings(G)
        assert len(pairings) == count
        assert len(set(pairings)) == count
        for p in pairings:
            assert p.is_alternating()
            for g in G.elements():
                assert p.phase(g, g) == 0

    def test_non_alternating_rejected(self):
        G = FinAbGroup((2,))
        with pytest.raises(ValueError):
            AlternatingPairing(G, [[F(1, 2)]])


class TestImageData:
    def test_zero_pairing(self):
        G = FinAbGroup((4,))
        H = FinAbGroup((2,))
        J0, ker = pairing_image_data(zero_pairing(H, G))
        assert J0.order == 4 and ker.order == 2

    def test_z2_into_z4_dual(self):
        Z2, Z4 = FinAbGroup((2,)), FinAbGroup((4,))
        eps = Pairing(Z2, Z4, [[F(1, 2)]])
        J0, ker = pairing_image_data(eps)
        assert set(J0.elements()) == {(0,), (2,)}
        assert ker.order == 1

    def test_nondegenerate(self):
        G = FinAbGroup((6,))
        J0, ker = pairing_image_data(standard_pairing(G))
        assert J0.order == 1 and ker.order == 1

    @pytest.mark.parametrize(
        "lf,rf,E",
        [
            ((2,), (4,), [[F(1, 2)]]),
            ((4,), (4,), [[F(1, 2)]]),
            ((4, 2), (4,), [[F(1, 4)], [F(1, 2)]]),
            ((6,), (6,), [[F(1, 3)]]),
        ],
    )
    def test_image_characterization(self, lf, rf, E):
        J1, J2 = FinAbGroup(lf), FinAbGroup(rf)
        eps = Pairing(J1, J2, E)
        J0, ker = pairing_image_data(eps)
        image = {eps.row_character(g) for g in J1.elements()}
        for chi in dual_characters(J2):
            in_image = chi in image
            kills_J0 = all(chi.phase(h) == 0 for h in J0.elements())
            assert in_image == kills_J0
        # first isomorphism: |J1| / |ker| = |J2| / |J0|
        assert J1.order * J0.order == J2.order * ker.order or (
            J1.order // ker.order == J2.order // J0.order
        )


@st.composite
def random_form(draw):
    factors = draw(
        st.sampled_from([(2,), (3,), (4,), (5,), (2, 2), (4, 2), (6,), (3, 3)])
    )
    G = FinAbGroup(factors)
    forms = forms_for_pairing(standard_pairing(G))
    return draw(st.sampled_from(forms))


SMALL_GROUPS = [
    (), (2,), (3,), (4,), (5,), (6,), (7,), (8,), (9,), (10,), (11,), (12,), (13,),
    (14,), (15,), (16,), (2, 2), (4, 2), (6, 2), (8, 2), (4, 4), (3, 3), (2, 2, 2),
    (4, 2, 2), (2, 2, 2, 2),
]


@st.composite
def quadratic_functions(draw, groups=SMALL_GROUPS):
    """(G, table) with G from groups (|G| <= 16 by default) and table a quadratic
    function, possibly degenerate:
    sum_i c_i g_i^2 / 2n_i + sum_{i<j} c_ij g_i g_j / n_j with c_i n_i even."""
    G = FinAbGroup(draw(st.sampled_from(groups)))
    n, t = G.factors, G.rank
    diag = [draw(st.integers(0, 2 * m - 1)) * (1 + m % 2) for m in n]
    cross = {(i, j): draw(st.integers(0, n[j] - 1)) for i in range(t) for j in range(i + 1, t)}
    return G, {
        g: sum(F(c * x * x, 2 * m) for c, x, m in zip(diag, g, n))
        + sum(F(c * g[i] * g[j], n[j]) for (i, j), c in cross.items())
        for g in G.elements()
    }


@st.composite
def form_tables(draw):
    """(G, table): a quadratic function, then a few edits.

    Each edit shifts the value at g and -g together, at g alone, or at every
    h with h[1:] = +-g[1:], or drops g.
    """
    G, table = draw(quadratic_functions())
    elems = G.elements()
    for _ in range(draw(st.integers(0, 3))):
        g = draw(st.sampled_from(elems))
        kind = draw(st.sampled_from(["pair", "pair", "line", "line", "single", "drop"]))
        delta = F(draw(st.integers(1, 15)), draw(st.sampled_from([2 * G.exponent, 3, 7])))
        if kind == "drop":
            table.pop(g, None)
        elif kind == "line":
            for h in table:
                if h[1:] in (g[1:], G.neg(g)[1:]):
                    table[h] += delta
        elif g in table:
            table[g] += delta
            if kind == "pair" and G.neg(g) != g and G.neg(g) in table:
                table[G.neg(g)] += delta
    return G, table


def all_pairs_accepts(G, table) -> bool:
    """The quadratic-form conditions, biadditivity tested on every pair."""
    elems = G.elements()
    if set(table) != set(elems):
        return False
    q = {g: mod1(v) for g, v in table.items()}
    if q[G.zero()] != 0 or any(q[g] != q[G.neg(g)] for g in elems):
        return False
    basis, n, t = G.basis(), G.factors, G.rank
    E = [[mod1(q[a] + q[b] - q[G.add(a, b)]) for b in basis] for a in basis]
    for i in range(t):
        for j in range(t):
            if (n[i] * E[i][j]).denominator != 1 or (n[j] * E[i][j]).denominator != 1:
                return False
    return all(
        mod1(q[g] + q[h] - q[G.add(g, h)])
        == mod1(sum(g[i] * E[i][j] * h[j] for i in range(t) for j in range(t)))
        for g in elems
        for h in elems
    )


def from_numerators(G, num):
    """QuadraticForm(G, table) for the table num[g] / den."""
    d = form_denominator(G)
    return QuadraticForm(G, {g: F(k, d) for g, k in num.items()})


def reference_setup(G, num):
    """The four checks of ``QuadraticForm(G, table)`` element by element, with
    tuple ``G.add`` and ``G.neg``: the reference for its check against ``_spell``."""
    d = form_denominator(G)
    num = {g: k % d for g, k in num.items()}
    elems = G.elements()
    if len(num) != len(elems) or any(g not in num for g in elems):
        raise ValueError("table must cover the group exactly")
    if num[G.zero()]:
        raise ValueError("q(0) must be 1")
    if any(num[g] != num[G.neg(g)] for g in elems):
        raise ValueError("q(-g) = q(g) fails")
    r = d // G.exponent
    basis = G.basis()
    B = [[num[ei] + num[ej] - num[G.add(ei, ej)] for ej in basis] for ei in basis]
    if any(x % r for row in B for x in row):
        raise ValueError("entry denominators must divide both factor pairs")
    pol = Pairing.from_numerators(G, G, [[x // r for x in row] for row in B])
    for i, e in enumerate(basis):
        col = [r * row[i] for row in pol.num]
        for g in elems:
            if (num[g] + num[e] - num[G.add(g, e)] - sum(x * c for x, c in zip(g, col))) % d:
                raise ValueError("polarization is not biadditive")


RANK_1_TO_3 = [
    (2,), (3,), (4,), (5,), (6,), (8,), (9,), (12,), (16,), (2, 2), (4, 2), (6, 2),
    (3, 3), (4, 4), (6, 3), (8, 4), (2, 2, 2), (4, 2, 2), (4, 4, 2), (6, 2, 2), (3, 3, 3),
]


@st.composite
def corrupted_numerator_tables(draw):
    """(G, num): integer numerators of a quadratic function over rank 1-3, then
    at most one corruption at an element g: its value shifted, its key dropped,
    its key replaced (or joined) by an unreduced spelling of it, or the value
    shifted at g and -g together, or at every h with h[1:] = +-g[1:] (which
    only the checks along e_1, e_2 can see)."""
    G, table = draw(quadratic_functions(RANK_1_TO_3))
    d = form_denominator(G)
    num = {g: int(v * d) for g, v in table.items()}
    g = draw(st.sampled_from(G.elements()))
    unreduced = (g[0] + G.factors[0],) + g[1:]
    kinds = ["none", "value", "value", "pair", "line", "line", "drop", "respell", "extra"]
    kind = draw(st.sampled_from(kinds))
    delta = draw(st.integers(1, d - 1))
    if kind == "value":
        num[g] += delta
    elif kind == "pair":
        num[g] += delta
        if G.neg(g) != g:
            num[G.neg(g)] += delta
    elif kind == "line":
        for h in num:
            if h[1:] in (g[1:], G.neg(g)[1:]):
                num[h] += delta
    elif kind == "drop":
        del num[g]
    elif kind == "respell":
        num[unreduced] = num.pop(g)
    elif kind == "extra":
        num[unreduced] = num[g]
    return G, num


def outcome(check, G, num):
    try:
        check(G, num)
    except ValueError as exc:
        return str(exc)
    return None


class TestSetupInIndexSpace:
    @given(corrupted_numerator_tables())
    @settings(max_examples=400, deadline=None)
    def test_matches_element_wise_reference(self, case):
        G, num = case
        assert outcome(from_numerators, G, num) == outcome(reference_setup, G, num)

    @pytest.mark.parametrize("factors", RANK_1_TO_3)
    def test_every_single_value_corruption(self, factors):
        """Each element of one valid table shifted by each nonzero amount (a
        shift can leave a form, as q(1) = 1/4 -> 3/4 on Z2 does)."""
        G = FinAbGroup(factors)
        q = forms_for_pairing(standard_pairing(G))[0]
        for g in G.elements():
            for delta in range(1, q.den):
                num = dict(q.num)
                num[g] += delta
                expected = outcome(reference_setup, G, num)
                assert outcome(from_numerators, G, num) == expected


class TestProperties:
    @given(form_tables())
    @settings(max_examples=300, deadline=None)
    def test_basis_check_matches_all_pairs(self, case):
        G, table = case
        try:
            QuadraticForm(G, table)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == all_pairs_accepts(G, table)

    @given(random_form())
    @settings(max_examples=60, deadline=None)
    def test_gauss_magnitude(self, q):
        total, normalized, sigma = gauss_sum(q)
        assert (total * total.conj()).as_rational() == q.group.order
        assert (normalized * normalized.conj()).is_one()

    @given(random_form())
    @settings(max_examples=40, deadline=None)
    def test_integer_representation(self, q):
        G = q.group
        assert from_numerators(G, q.num) == q
        assert QuadraticForm.from_generators(G, *q.generators()) == q
        assert all(q.phase(g) == F(q.num[g], q.den) for g in G.elements())
        P = q.polarization()
        assert Pairing(P.left, P.right, P.matrix) == P
        E, t = P.matrix, G.rank
        for g in G.elements():
            for h in G.elements():
                for i, n in enumerate(G.factors):
                    # g + n_i e_i and h + n_i e_i: the same elements, unreduced
                    g2 = tuple(x + n * (j == i) for j, x in enumerate(g))
                    h2 = tuple(x + n * (j == i) for j, x in enumerate(h))
                    exact = sum(g2[a] * E[a][b] * h2[b] for a in range(t) for b in range(t))
                    assert F(P.dot(g2, h2), P.den) == mod1(exact) == P.phase(g, h)

    @given(random_form(), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_dot_table_lifts_phases(self, q, lift):
        P = q.polarization()
        den = lift * P.den
        table = P.dot_table(den)
        assert list(table) == P.left.elements()
        for g, row in table.items():
            assert row == tuple(P.phase(g, h) * den for h in P.right.elements())

    @given(random_form())
    @settings(max_examples=40, deadline=None)
    def test_homogeneity(self, q):
        G = q.group
        for g in G.elements():
            for k in range(2 * G.exponent):
                assert q.phase(G.scale(k, g)) == mod1(k * k * q.phase(g))


# -- the packed Gauss sum against the Fraction construction ---------------------


def reference_gauss_sum(q):
    """The Fraction construction: |sum|^2 as a Cyclotomic product, then the
    sum over sqrt|G|, as sum * sqrt|G| / |G|, compared with each 8th root of
    unity."""
    G = q.group
    total = Cyclotomic(q.den, Counter(q.num.values()))
    norm = (total * total.conj()).as_rational()
    if norm != G.order:
        raise ValueError("Gauss sum magnitude is not sqrt(|G|); form is degenerate")
    normalized = total * sqrt_nonneg_int(G.order) * Fraction(1, G.order)
    for sigma in range(8):
        if normalized == root_of_unity(8, sigma):
            return total, normalized, sigma
    raise ValueError("normalized Gauss sum is not an 8th root of unity")


def gauss_outcome(fn, q):
    """The triple as (stored total, phase of normalized, sigma), or the error."""
    try:
        total, normalized, sigma = fn(q)
    except ValueError as exc:
        return type(exc), str(exc)
    return (total.order, sorted(total.terms())), phase_fraction(normalized), sigma


def assert_matches_reference(q):
    outcome = gauss_outcome(gauss_sum, q)
    assert outcome == gauss_outcome(reference_gauss_sum, q)
    return outcome


def cyclic_forms(n):
    """Every quadratic form on Z_n: q(x) = a x^2 / den for each a mod den."""
    G = FinAbGroup((n,))
    den = n if n % 2 else 2 * n
    return [
        from_numerators(G, {g: a * g[0] * g[0] for g in G.elements()})
        for a in range(den)
    ]


class TestPackedGaussSum:
    @given(random_form())
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_on_random_forms(self, q):
        assert assert_matches_reference(q)[0] is not ValueError

    @given(quadratic_functions())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_on_quadratic_functions(self, case):
        assert_matches_reference(QuadraticForm(*case))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_reference_on_cyclic_forms(self, n):
        nondegenerate = [
            assert_matches_reference(q)[0] is not ValueError for q in cyclic_forms(n)
        ]
        # q(x) = a x^2 / den polarizes to a xy / n: nondegenerate iff gcd(a, n) = 1
        assert nondegenerate == [gcd(a, n) == 1 for a in range(len(nondegenerate))]

    def test_degenerate_forms_raise_the_reference_error(self):
        for factors, table in [
            ((2,), {(0,): 0, (1,): 0}),  # zero form: sum = |G|, |sum|^2 = |G|^2
            ((4,), {(x,): F(x * x, 2) for x in range(4)}),  # nontrivial on the radical: sum 0
            ((2, 2), {(a, b): F(a, 2) for a in range(2) for b in range(2)}),  # a character: sum 0
        ]:
            q = QuadraticForm(FinAbGroup(factors), table)
            outcome = assert_matches_reference(q)
            assert outcome[0] is ValueError and "degenerate" in outcome[1]

    # the reference takes about a second per descriptor near order 100 and
    # minutes up to order 300, where test_gauss_consistency checks x^3 instead
    @pytest.mark.parametrize("desc", descriptors_up_to(64))
    def test_matches_reference_on_descriptors(self, desc):
        q, _ = indecomposable_form(desc)
        assert assert_matches_reference(q)[0] is not ValueError

    # opt-in (pytest -m slow): the reference alone took about 3,000 s over
    # these 110 descriptors, up to 360 s for one at p = 1 mod 4
    @pytest.mark.slow
    @pytest.mark.parametrize(
        "desc", [d for d in descriptors_up_to(300) if d not in descriptors_up_to(64)]
    )
    def test_matches_reference_on_descriptors_up_to_300(self, desc):
        q, _ = indecomposable_form(desc)
        assert assert_matches_reference(q)[0] is not ValueError

    @pytest.mark.parametrize("desc", ["2^8_1", "211^1_+", "211^1_-"])
    def test_no_cyclotomic_product_or_division(self, desc, monkeypatch):
        q, x3 = indecomposable_form(desc)

        def forbidden(*args):
            raise AssertionError("Cyclotomic arithmetic in gauss_sum")

        for name in ("__mul__", "__rmul__", "inverse"):
            monkeypatch.setattr(Cyclotomic, name, forbidden)
        total, normalized, sigma = gauss_sum(q)
        monkeypatch.undo()
        assert (normalized * x3).is_one() and normalized == root_of_unity(8, sigma)


# -- the Jordan normal form against the isometry search and the Gauss sum ---------


def descriptor_products(lo, hi):
    """Every product of indecomposable descriptors (a multiset, in the order of
    ``descriptors_up_to``) whose order lies in [lo, hi].  2^1_-1 and 2^1_-3 are
    left out: they spell the same tables as 2^1_3 and 2^1_1."""
    parts = [d for d in descriptors_up_to(hi) if d not in ("2^1_-1", "2^1_-3")]
    orders = [_parse_descriptor(d)[3] for d in parts]
    out = []

    def extend(start, prefix, order):
        if prefix and lo <= order:
            out.append(" x ".join(prefix))
        for i in range(start, len(parts)):
            if order * orders[i] <= hi:
                extend(i, prefix + [parts[i]], order * orders[i])

    extend(0, [], 1)
    return out


@functools.cache
def product_form(desc):
    """indecomposable_form(desc)[0], built once per test run."""
    return indecomposable_form(desc)[0]


def assert_classes_agree(descs):
    """On each group, two products have equal normal forms exactly when
    ``forms_equivalent`` finds an isometry.  Isometry is an equivalence, so
    each form is compared with one representative per class found so far;
    different value histograms rule an isometry out without a search.  Pairs
    the search refuses (``HOM_GUARD``) are skipped; their count is returned."""
    reps, skipped = {}, 0
    for desc in descs:
        q = product_form(desc)
        nf, hist = q.normal_form(), Counter(q.num.values())
        for r, rnf, rhist, rdesc in reps.setdefault(q.group, []):
            if hist != rhist:
                iso = False
            else:
                try:
                    iso = forms_equivalent(r, q) is not None
                except GuardError:
                    skipped += 1
                    continue
            assert iso == (nf == rnf), (desc, rdesc, iso)
            if iso:
                break
        else:
            reps[q.group].append((q, nf, hist, desc))
    return skipped


class TestNormalForm:
    def test_product_counts(self):
        assert len(descriptor_products(1, 32)) == 393
        assert len(descriptor_products(33, 64)) == 732

    def test_classes_match_isometries_up_to_32(self):
        assert assert_classes_agree(descriptor_products(1, 32)) == 0

    # opt-in (pytest -m slow): about 1 s; the guard refuses 30 comparisons on Z2^6
    @pytest.mark.slow
    def test_classes_match_isometries_33_to_64(self):
        assert assert_classes_agree(descriptor_products(33, 64)) == 30

    @pytest.mark.parametrize("n", range(2, 33))
    def test_descriptor_round_trip(self, n):
        for desc in descriptor_products(n, n):
            q = product_form(desc)
            d = descriptor(q)
            q2, _ = indecomposable_form(d)
            assert forms_equivalent(q2, q) is not None, (desc, d)
            assert q2.normal_form() == q.normal_form() and descriptor(q2) == d

    @pytest.mark.parametrize("desc", descriptors_up_to(512) + ["99991^1_+", "2^16_1", "2^72^7_ii"])
    def test_indecomposables_name_themselves(self, desc):
        """A descriptor's normal form needs no table, and reads back as the
        descriptor (up to the aliases 2^1_-1 = 2^1_3 and 2^1_-3 = 2^1_1)."""
        p, k, sub, _ = _parse_descriptor(desc)
        alias = {"2^1_-1": "2^1_3", "2^1_-3": "2^1_1"}
        assert NormalForm([(p, k, sub)]).descriptor() == alias.get(desc, desc)

    @pytest.mark.parametrize("n", range(2, 65))
    def test_signature_matches_gauss_sum(self, n):
        for desc in descriptor_products(n, n):
            q = product_form(desc)
            assert q.signature() == gauss_sum(q)[2], desc

    # opt-in (pytest -m slow): one test per order, about 20,000 products in all
    @pytest.mark.slow
    @pytest.mark.parametrize("n", range(65, 301))
    def test_signature_matches_gauss_sum_65_to_300(self, n):
        for desc in descriptor_products(n, n):
            q, _ = indecomposable_form(desc)
            assert q.signature() == gauss_sum(q)[2], desc

    @given(random_form(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_automorphisms(self, q, data):
        G = q.group
        alpha = data.draw(st.sampled_from(automorphisms(G)))
        moved = from_numerators(G, {g: q.num[alpha.apply(g)] for g in G.elements()})
        assert moved.normal_form() == q.normal_form()
        assert moved.signature() == gauss_sum(moved)[2]

    @given(quadratic_functions())
    @settings(max_examples=150, deadline=None)
    def test_nondegenerate_exactly_when_the_gauss_sum_is(self, case):
        q = QuadraticForm(*case)
        try:
            sigma = gauss_sum(q)[2]
        except ValueError:
            with pytest.raises(ValueError):
                q.normal_form()
            return
        assert q.signature() == sigma
        if q.group.order > 1:
            assert forms_equivalent(indecomposable_form(descriptor(q))[0], q) is not None

    def test_entry_point_takes_the_basis_data(self):
        q = product_form("2^2_3 x 2^1_1 x 3^1_-")
        G = q.group
        values = [q.num[e] for e in G.basis()]
        assert normal_form(G, values, q.polarization().num) == q.normal_form()
        with pytest.raises(ValueError):
            normal_form(G, values[:-1], q.polarization().num)

    def test_trivial_group(self):
        q = QuadraticForm(FinAbGroup(()), {(): 0})
        assert q.normal_form() == NormalForm([]) and q.signature() == 0 and descriptor(q) == ""

    @pytest.mark.parametrize("p,k,polar,expected", [
        (3, 1, [[0, 1], [1, 0]], "3^1_+ x 3^1_-"),
        (5, 1, [[0, 1], [1, 0]], "5^1_+ x 5^1_+"),
        (7, 1, [[0, 1], [1, 0]], "7^1_+ x 7^1_-"),
        (3, 2, [[0, 1], [1, 0]], "3^2_+ x 3^2_-"),
        # the third generator sees the pivot's own value b(f_0 + f_1, f_0 + f_1)
        (3, 1, [[0, 1, 1], [1, 0, 1], [1, 1, 0]], "3^1_+ x 3^1_+ x 3^1_-"),
        (5, 1, [[0, 1, 1], [1, 0, 1], [1, 1, 0]], "5^1_+ x 5^1_+ x 5^1_+"),
    ])
    def test_zero_diagonal_pivots_on_a_sum(self, p, k, polar, expected):
        """Generators with b(f_i, f_i) = 0, as in the hyperbolic plane
        q(x, y) = xy / p^k, leave the odd-p pivot f_0 + f_1; the normal form
        agrees with exactly the diagonal products ``forms_equivalent`` maps
        the form onto."""
        n, r = p**k, len(polar)
        H = QuadraticForm.from_generators(FinAbGroup((n,) * r), [0] * r, polar)
        assert H.normal_form().descriptor() == expected
        for signs in itertools.product("+-", repeat=r):
            C = indecomposable_form(" x ".join(f"{p}^{k}_{e}" for e in signs))[0]
            assert (C.normal_form() == H.normal_form()) == (forms_equivalent(H, C) is not None)
        assert forms_equivalent(H, indecomposable_form(expected)[0]) is not None


# -- forms from their generator data ------------------------------------------------


def table_form(q):
    """q rebuilt from its table by ``QuadraticForm(G, table)``, under the full check."""
    return QuadraticForm(q.group, {g: F(k, q.den) for g, k in q.num.items()})


# (factors, values, polar, match): each breaks one congruence of _generator_pairing
BROKEN_GENERATORS = [
    ((3,), [1, 1], [[1]], "one value"),
    ((3,), [1], [[1, 2]], "shape"),
    ((3,), [1], [[1], [1]], "shape"),
    ((4, 2), [1, 2], [[3, 1], [1, 2]], "entry denominators"),  # 2 * 1/4 is not an integer
    ((4, 2), [1, 2], [[3, 2], [0, 2]], "not symmetric"),
    ((4, 2), [1, 2], [[1, 0], [0, 2]], r"B\(e_0, e_0\) is not -2 q\(e_0\)"),
    ((3,), [1], [[2]], r"B\(e_0, e_0\)"),
    # q(e_1) = 2/12 on the Z3 factor: 2 q(e_1) = -B_11, yet q(3 e_1) = 18/12 = 1/2
    ((6, 3), [1, 2], [[5, 0], [0, 4]], r"q\(3 e_1\) is not 0"),
]


class TestFromGenerators:
    def test_equals_the_table_check_on_descriptor_products(self):
        """``indecomposable_form`` (through ``direct_sum``) and ``conj`` give
        forms that the full table check accepts, with the same polarization."""
        descs = descriptor_products(1, 64)
        assert len(descs) == 1125
        for desc in descs:
            q = product_form(desc)
            for f in (q, q.conj()):
                t = table_form(f)
                assert t == f and t.polarization() == f.polarization(), desc

    def test_equals_the_table_check_on_derived_forms(self):
        """``forms_for_pairing`` and ``times_character`` by every character of
        order at most 2, against the table check and pointwise."""
        for factors in [(), (2,), (4, 2), (6,), (3, 3), (8, 2), (4, 2, 2)]:
            G = FinAbGroup(factors)
            signs = [c for c in dual_characters(G) if all(2 * c.exponents[i] % n == 0
                                                          for i, n in enumerate(factors))]
            for q in forms_for_pairing(standard_pairing(G)):
                assert table_form(q) == q
                for chi in signs:
                    f = q.times_character(chi)
                    assert table_form(f) == f
                    assert all(f.phase(g) == mod1(q.phase(g) + chi.phase(g)) for g in G.elements())

    @pytest.mark.parametrize("factors,values,polar,match", BROKEN_GENERATORS)
    def test_each_congruence_is_refused(self, factors, values, polar, match):
        G = FinAbGroup(factors)
        with pytest.raises(ValueError, match=match):
            QuadraticForm.from_generators(G, values, polar)
        with pytest.raises(ValueError, match=match):
            normal_form(G, values, polar)

    def test_consistent_variants_are_accepted(self):
        for factors, values, polar in [
            ((3,), [1], [[1]]),
            ((4, 2), [1, 2], [[3, 0], [0, 2]]),
            ((6, 3), [1, 4], [[5, 0], [0, 2]]),
        ]:
            q = QuadraticForm.from_generators(FinAbGroup(factors), values, polar)
            assert table_form(q) == q and q.generators() == (values, tuple(map(tuple, polar)))

    def test_normal_form_refuses_inconsistent_data(self):
        """B(e_0, e_0) = 2/3 is the polarization of x^2 / 3 only as -2/3 = 1/3."""
        Z3 = FinAbGroup((3,))
        assert normal_form(Z3, [1], [[1]]).key == ((3, ((1, 1, 1),)),)
        with pytest.raises(ValueError):
            normal_form(Z3, [1], [[2]])

    @pytest.mark.parametrize(
        "d1,d2,factors", [("2^1_1", "3^1_+", (6,)), ("2^1_1", "2^2_1", (4, 2))]
    )
    def test_direct_sum_through_the_canonical_presentation(self, d1, d2, factors):
        """The product's factors merge (Z2 x Z3 = Z6) or swap (Z2 x Z4 = Z4 x Z2);
        q(g) = q1(a) + q2(b) for (a, b) = split(g) on every element."""
        q1, q2 = indecomposable_form(d1)[0], indecomposable_form(d2)[0]
        q = q1.direct_sum(q2)
        G, _, split = product_with_maps(q1.group, q2.group)
        assert q.group == G and G.factors == factors
        for g in G.elements():
            a, b = split(g)
            assert q.phase(g) == mod1(q1.phase(a) + q2.phase(b))
        assert table_form(q) == q
