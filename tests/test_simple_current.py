"""Current-subgroup invariants: base form, enumeration, products."""

from fractions import Fraction
from math import gcd

import pytest

from modinv.abelian import Character, FinAbGroup, Subgroup
from modinv.forms import (
    AlternatingPairing,
    Pairing,
    QuadraticForm,
    alternating_pairings,
    indecomposable_form,
)
from modinv.modular import ModularInvariant, brute_force_invariants, check_invariant, simple_currents
from modinv.pointed import weil
from modinv.simple_current import (
    SCParam,
    base_epsilon,
    enumerate_sc,
    invariant_product,
    make_epsilon,
    param_from_epsilon,
    s_only_matrix,
    sc_matrix,
)
from modinv.scalars import Cyclotomic, phase_fraction, rational_phase, root_of_unity


def std_form(factors, num=1):
    G = FinAbGroup(tuple(factors))
    table = {}
    for g in G.elements():
        val = Fraction(0)
        for a, n in zip(g, G.factors):
            c = num if n % 2 == 0 or num % 2 == 0 else num * (n + 1)
            val += Fraction(c * a * a, 2 * n)
        table[g] = val % 1
    return QuadraticForm(G, table)


def sqrt2n_form(n):
    return std_form((2 * n,))


Z4_FORM = indecomposable_form("2^2_1")[0]


def current_subgroup(md, gens):
    sc = simple_currents(md)
    coords = [sc.coords[md.index(g)] for g in gens]
    return sc, Subgroup(sc.group, coords)


def identity_matrix(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def conj_matrix(md):
    perm = md.charge_conjugation()
    n = md.dim
    return tuple(tuple(1 if j == perm[i] else 0 for j in range(n)) for i in range(n))


class TestPhaseFraction:
    def test_roots(self):
        assert phase_fraction(Cyclotomic.one()) == 0
        assert phase_fraction(root_of_unity(8, 3)) == Fraction(3, 8)
        assert phase_fraction(rational_phase(Fraction(5, 7))) == Fraction(5, 7)

    def test_rejects_non_root(self):
        with pytest.raises(ValueError):
            phase_fraction(Cyclotomic.from_rational(Fraction(2)))


class TestBaseEpsilon:
    def test_z4_half_current(self):
        md = weil(Z4_FORM)
        _, J = current_subgroup(md, [(2,)])
        eps = base_epsilon(md, J)
        assert eps.left.factors == (2,)
        assert eps.phase((1,), (1,)) == Fraction(1, 2)

    def test_trivial_subgroup(self):
        md = weil(Z4_FORM)
        _, J = current_subgroup(md, [])
        eps = base_epsilon(md, J)
        assert eps.left.factors == ()

    def test_quaternionic_rejected(self):
        md = weil(indecomposable_form("2^1_1")[0])
        _, J = current_subgroup(md, [(1,)])
        with pytest.raises(ValueError, match="quaternionic"):
            base_epsilon(md, J)

    def test_rank_two_base_validates(self):
        md = weil(std_form((3, 3)))
        sc, J = current_subgroup(md, [(1, 0), (0, 1)])
        param = make_epsilon(md, J)
        for y in param.group.elements():
            j = param.embed(y)
            assert param.epsilon.phase(y, y) == param.sc.q(j)


class TestMakeEpsilon:
    def test_psi_trivial_gives_base(self):
        md = weil(Z4_FORM)
        _, J = current_subgroup(md, [(2,)])
        base = base_epsilon(md, J)
        param = make_epsilon(md, J)
        assert param.epsilon.matrix == base.matrix
        assert param.psi.matrix == ((Fraction(0),),)

    def test_cyclic_has_single_psi(self):
        md = weil(std_form((6,)))
        _, J = current_subgroup(md, [(2,)])
        Jab = FinAbGroup((3,))
        assert len(alternating_pairings(Jab)) == 1

    def test_rank_two_psi_count(self):
        md = weil(std_form((3, 3)))
        _, J = current_subgroup(md, [(1, 0), (0, 1)])
        param = make_epsilon(md, J)
        assert len(alternating_pairings(param.group)) == 3

    def test_rejects_mismatched_psi(self):
        md = weil(Z4_FORM)
        _, J = current_subgroup(md, [(2,)])
        bad = AlternatingPairing(FinAbGroup((3,)), [[Fraction(0)]])
        with pytest.raises(ValueError):
            make_epsilon(md, J, bad)


class TestScMatrix:
    def test_trivial_subgroup_identity(self):
        md = weil(Z4_FORM)
        _, J = current_subgroup(md, [])
        z = sc_matrix(md, make_epsilon(md, J))
        assert z.matrix == identity_matrix(4)

    def test_z4_half_current_is_conjugation(self):
        md = weil(Z4_FORM)
        _, J = current_subgroup(md, [(2,)])
        z = sc_matrix(md, make_epsilon(md, J))
        assert z.matrix == conj_matrix(md)

    def test_charge_conjugation_from_double_subgroup(self):
        q = std_form((6,))
        md = weil(q)
        G = q.group
        _, J = current_subgroup(md, [G.scale(2, (1,))])
        found = {
            sc_matrix(md, make_epsilon(md, J, psi)).matrix
            for psi in alternating_pairings(FinAbGroup((3,)))
        }
        assert conj_matrix(md) in found

    def test_all_outputs_pass_check(self):
        md = weil(std_form((2, 2)))
        for param, z in enumerate_sc(md).entries:
            ok, _ = check_invariant(md, z.matrix)
            assert ok

    def test_support_inside_orbits(self):
        md = weil(std_form((6,)))
        enum = enumerate_sc(md)
        for param, z in enum.entries:
            sc = param.sc
            jelems = {param.embed(y) for y in param.group.elements()}
            for a in range(md.dim):
                for b in range(md.dim):
                    if z.matrix[a][b]:
                        assert any(sc.action_table[j][a] == b for j in jelems)


class TestEnumerate:
    def test_quaternionic_current_leaves_identity(self):
        md = weil(indecomposable_form("2^1_1")[0])
        enum = enumerate_sc(md)
        assert len(enum.entries) == 1
        assert enum.entries[0][1].matrix == identity_matrix(2)

    def test_divisor_counts_sqrt2n(self):
        for n, tau in [(1, 1), (2, 2), (3, 2), (4, 3)]:
            md = weil(sqrt2n_form(n))
            enum = enumerate_sc(md)
            assert len(enum.entries) == tau, f"n={n}"

    def test_trivial_md(self):
        md = weil(std_form(()))
        enum = enumerate_sc(md)
        assert len(enum.entries) == 1

    def test_equals_brute_force_on_pointed(self):
        for q in (Z4_FORM, std_form((2, 2)), std_form((6,)), std_form((3,))):
            md = weil(q)
            enum = enumerate_sc(md)
            brute = {z.matrix for z in brute_force_invariants(md)}
            assert enum.matrix_set() == brute

    def test_no_collisions_reported_when_separating(self):
        md = weil(std_form((6,)))
        enum = enumerate_sc(md)
        assert enum.sufficiently_nonzero
        assert enum.collisions == []


class TestChainIndependence:
    def test_alternate_chain_same_matrix_set(self):
        md = weil(std_form((3, 3)))
        sc, J = current_subgroup(md, [(1, 0), (0, 1)])
        chains = [
            [(1, 0), (0, 1)],
            [(1, 1), (0, 1)],
            [(1, 2), (0, 1)],
            [(0, 1), (1, 0)],
        ]
        sets = []
        for chain in chains:
            mats = set()
            for psi in alternating_pairings(FinAbGroup((3, 3))):
                param = make_epsilon(md, J, psi, chain=chain)
                mats.add(sc_matrix(md, param).matrix)
            sets.append(mats)
        assert all(s == sets[0] for s in sets)

    def test_alternate_chain_hyperbolic(self):
        md = weil(indecomposable_form("2^12^1_i")[0])
        sc, J = current_subgroup(md, [(1, 0), (0, 1)])
        chains = [[(1, 0), (0, 1)], [(1, 1), (0, 1)], [(1, 1), (1, 0)]]
        sets = []
        for chain in chains:
            mats = set()
            for psi in alternating_pairings(FinAbGroup((2, 2))):
                param = make_epsilon(md, J, psi, chain=chain)
                mats.add(sc_matrix(md, param).matrix)
            sets.append(mats)
        assert all(s == sets[0] for s in sets)

    def test_bad_chain_rejected(self):
        md = weil(std_form((3, 3)))
        _, J = current_subgroup(md, [(1, 0), (0, 1)])
        with pytest.raises(ValueError):
            make_epsilon(md, J, chain=[(1, 0), (1, 0)])


class TestRebase:
    def test_transpose_matches_transposed_parameter(self):
        q = std_form((3, 3))
        md = weil(q)
        _, J = current_subgroup(md, [(1, 0), (0, 1)])
        for psi in alternating_pairings(FinAbGroup((3, 3))):
            param = make_epsilon(md, J, psi)
            z = sc_matrix(md, param)
            rebased = param_from_epsilon(md, J, param.epsilon.transpose())
            zt = sc_matrix(md, rebased)
            assert zt.matrix == z.transpose().matrix

    def test_rebase_round_trip(self):
        md = weil(Z4_FORM)
        _, J = current_subgroup(md, [(2,)])
        param = make_epsilon(md, J)
        again = param_from_epsilon(md, J, param.epsilon)
        assert again.epsilon.matrix == param.epsilon.matrix
        assert sc_matrix(md, again).matrix == sc_matrix(md, param).matrix


@pytest.mark.parametrize("desc", ["3^1_+ x 3^1_+", "3^1_+ x 3^1_-", "2^2_1 x 2^1_1", "2^2_1 x 2^1_3"])
def test_json_round_trip_rebuilds_each_parameter(desc):
    """``to_json``'s J and psi rebuild, through ``make_epsilon``, the matrix
    of every enumerated parameter on the Weil data of the descriptor."""
    md = weil(indecomposable_form(desc)[0])
    sc = simple_currents(md)
    entries = enumerate_sc(md).entries
    assert entries
    for param, z in entries:
        data = param.to_json()
        again = make_epsilon(md, Subgroup(sc.group, data["J"]), Pairing.from_json(data["psi"]))
        assert again.J == param.J and sc_matrix(md, again).matrix == z.matrix


class TestProducts:
    def test_identity_product(self):
        md = weil(Z4_FORM)
        _, J = current_subgroup(md, [])
        z = sc_matrix(md, make_epsilon(md, J))
        n, z3 = invariant_product(md, z, z)
        assert n == 1 and z3.matrix == z.matrix

    def test_z_ztr_gives_radical_invariant(self):
        q = std_form((3, 3))
        md = weil(q)
        sc, J = current_subgroup(md, [(1, 0), (0, 1)])
        enum_set = enumerate_sc(md).matrix_set()
        for psi in alternating_pairings(FinAbGroup((3, 3))):
            param = make_epsilon(md, J, psi)
            z = sc_matrix(md, param)
            n, z3 = invariant_product(md, z, z)
            assert z3.matrix in enum_set
            rad = param.epsilon.right_radical()
            J0 = Subgroup(sc.group, [param.embed(y) for y in rad.gens()])
            expected = sc_matrix(md, make_epsilon(md, J0)).matrix
            assert z3.matrix == expected

    def test_rejects_wrong_sized_invariants(self):
        # the 3 primaries of weil(3^1_+) against a smaller and a larger identity
        md = weil(indecomposable_form("3^1_+")[0])
        z = sc_matrix(md, make_epsilon(md, current_subgroup(md, [])[1]))
        for n in (2, 4):
            other = ModularInvariant([[int(i == j) for j in range(n)] for i in range(n)])
            for pair in ((z, other), (other, z)):
                with pytest.raises(ValueError, match="matrix dimension mismatch"):
                    invariant_product(md, *pair)
        with pytest.raises(ValueError, match="matrix dimension mismatch"):
            invariant_product(md, z, ModularInvariant([(1, 0, 0), (0, 1), (0, 0, 1)]))

    def test_products_stay_in_family(self):
        md = weil(std_form((6,)))
        mats = [z for _, z in enumerate_sc(md).entries]
        enum_set = {z.matrix for z in mats}
        for z1 in mats:
            for z2 in mats:
                n, z3 = invariant_product(md, z1, z2)
                assert z3.matrix in enum_set

    def test_overlap_counts_unit_row(self):
        md = weil(std_form((6,)))
        mats = [z for _, z in enumerate_sc(md).entries]
        for z1 in mats:
            for z2 in mats:
                n, _ = invariant_product(md, z1, z2)
                expect = sum(
                    1
                    for a in range(md.dim)
                    if z1.matrix[md.unit][a] and z2.matrix[md.unit][a]
                )
                assert n == expect


class TestSOnly:
    def test_trivial_phi_matches_sc(self):
        md = weil(Z4_FORM)
        _, J = current_subgroup(md, [(2,)])
        param = make_epsilon(md, J)
        assert s_only_matrix(md, J) == sc_matrix(md, param).matrix

    def test_nontrivial_phi_breaks_T(self):
        md = weil(Z4_FORM)
        _, J = current_subgroup(md, [(2,)])
        phi = Character(FinAbGroup((2,)), (1,))
        M = s_only_matrix(md, J, phi=phi)
        invariants = {z.matrix for z in brute_force_invariants(md)}
        assert M not in invariants
        ok, report = check_invariant(md, M)
        assert not ok and report["S_commutes"] and not report["T_commutes"]

    def test_trivial_subgroup_ignores_phi(self):
        md = weil(Z4_FORM)
        _, J = current_subgroup(md, [])
        phi = Character(FinAbGroup(()), ())
        assert s_only_matrix(md, J, phi=phi) == identity_matrix(4)

    def test_rejects_odd_phi(self):
        md = weil(indecomposable_form("3^1_+")[0])
        sc, J = current_subgroup(md, [(1,)])
        phi = Character(FinAbGroup((3,)), (1,))
        with pytest.raises(ValueError):
            s_only_matrix(md, J, phi=phi)

    @pytest.mark.parametrize("factors", [(3, 3, 3), (3,)])
    def test_rejects_psi_off_the_chain_group(self, factors):
        # J is the whole current group Z3 x Z3; psi lives on another group
        md = weil(indecomposable_form("3^1_+ x 3^1_+")[0])
        sc, J = current_subgroup(md, [(1, 0), (0, 1)])
        assert J.order == 9
        psi = AlternatingPairing(FinAbGroup(factors), [[Fraction(0)] * len(factors) for _ in factors])
        with pytest.raises(ValueError):
            make_epsilon(md, J, psi)
        with pytest.raises(ValueError):
            s_only_matrix(md, J, psi)


class TestNormalization:
    def test_row_sums_match_kernel_orbits(self):
        from modinv.forms import pairing_image_data

        for q in (std_form((6,)), std_form((2, 2)), std_form((3, 3))):
            md = weil(q)
            for param, z in enumerate_sc(md).entries:
                J0ab, kernel = pairing_image_data(param.epsilon)
                sc = param.sc
                j0 = [param.embed(y) for y in J0ab.elements()]
                for a in range(md.dim):
                    row = sum(z.matrix[a])
                    if row == 0:
                        continue
                    orbit = {sc.action_table[jj][a] for jj in j0}
                    assert row == kernel.order // len(orbit)


# -- the parameter check against a Fraction reference ----------------------------


def reference_validate_error(param, epsilon):
    """Message of the first failed check of epsilon, by Fraction sums mod 1, or None."""
    sc = param.sc
    elems = epsilon.left.elements()
    currents = [param.embed(y) for y in elems]
    primaries = [sc.label_index[j] for j in currents]
    for y, j in zip(elems, currents):
        if epsilon.phase(y, y) != sc.q(j):
            return "diagonal of epsilon must match the twists"
        for z, a in zip(elems, primaries):
            if (sc.grading(a, j) + epsilon.phase(y, z) + epsilon.phase(z, y)) % 1:
                return "epsilon is not balanced against the monodromy"
    return None


def validate_error(param, epsilon):
    """Message of the ValueError that SCParam raises for epsilon, or None."""
    try:
        SCParam(param.sc, param.J, param.currents, param.psi, epsilon)
    except ValueError as exc:
        return str(exc)
    return None


VALIDATE_DATA = {
    "Z3xZ3": (lambda: weil(std_form((3, 3))), [(1, 0), (0, 1)]),
    "3^1_+x3^1_-": (lambda: weil(indecomposable_form("3^1_+ x 3^1_-")[0]), [(1, 0), (0, 1)]),
    "Z5": (lambda: weil(indecomposable_form("5^1_+")[0]), [(1,)]),
    "Z4-half": (lambda: weil(Z4_FORM), [(2,)]),
    "Z6-third": (lambda: weil(std_form((6,))), [(2,)]),
}


@pytest.mark.parametrize("build,gens", VALIDATE_DATA.values(), ids=VALIDATE_DATA.keys())
def test_validate_matches_fraction_reference(build, gens):
    md = build()
    _, J = current_subgroup(md, gens)
    param = make_epsilon(md, J)
    assert reference_validate_error(param, param.epsilon) is None
    G = param.group
    seen = set()
    for i, n in enumerate(G.factors):
        for j, m in enumerate(G.factors):
            for k in range(1, gcd(n, m)):
                matrix = [list(row) for row in param.epsilon.matrix]
                matrix[i][j] += Fraction(k, gcd(n, m))
                epsilon = Pairing(G, G, matrix)
                got = validate_error(param, epsilon)
                assert got == reference_validate_error(param, epsilon)
                seen.add(got)
    assert "diagonal of epsilon must match the twists" in seen
    if G.rank > 1:
        assert "epsilon is not balanced against the monodromy" in seen
