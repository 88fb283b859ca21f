"""Pointed data: isotropic pairs, self-dual subgroups, and their conversions."""

from fractions import Fraction

import pytest
from test_forms import descriptors_up_to

from modinv import pointed
from modinv.abelian import FinAbGroup, GuardError, Subgroup, all_subgroups, quotient
from modinv.forms import (
    Pairing,
    QuadraticForm,
    alternating_pairings,
    gauss_sum,
    indecomposable_form,
)
from modinv.modular import brute_force_invariants, check_invariant
from modinv.pointed import (
    DPMParam,
    IsotropicDatum,
    PointedData,
    ZParam,
    alpha_induction,
    dpm_to_matrix,
    dpm_to_z,
    enum_dpm,
    enum_z,
    form_from_pointed,
    isotropic_subgroups,
    jpsi_to_dpm,
    nimrep,
    square_context,
    square_group,
    square_pairing,
    weil,
    z_to_matrix,
)
from modinv.scalars import Cyclotomic, rational_phase, root_of_unity
from modinv.simple_current import (
    enumerate_sc,
    make_epsilon,
    s_only_matrix,
    sc_matrix,
)
from modinv.ty import TYData, ty_double


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


def hyperbolic(n):
    G = FinAbGroup((n, n))
    return QuadraticForm(
        G, {g: Fraction(g[0] * g[1], n) % 1 for g in G.elements()}
    )


def identity_matrix(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def conj_matrix(q):
    labels = sorted(q.group.elements())
    idx = {g: i for i, g in enumerate(labels)}
    n = len(labels)
    M = [[0] * n for _ in range(n)]
    for g in labels:
        M[idx[g]][idx[q.group.neg(g)]] = 1
    return tuple(tuple(row) for row in M)


SMALL_FORMS = [
    std_form(()),
    std_form((4,)),
    indecomposable_form("3^1_+")[0],
    std_form((6,)),
    hyperbolic(2),
    indecomposable_form("2^12^1_ii")[0],
    std_form((5,)),
    std_form((8,)),
]


class TestPointedData:
    def test_canonical_root_inverts_gauss_sum(self):
        for q in SMALL_FORMS:
            data = PointedData(q)
            _, normalized, sigma = gauss_sum(q)
            assert data.signature == sigma
            assert ((data.x ** 3) * normalized).is_one()
            assert (data.x ** 24).is_one()

    def test_wrong_root_rejected(self):
        q = std_form((4,))
        with pytest.raises(ValueError):
            PointedData(q, rational_phase(Fraction(1, 5)))

    def test_other_cube_roots_accepted(self):
        q = std_form((4,))
        base = PointedData(q).x
        third = rational_phase(Fraction(1, 3))
        data = PointedData(q, base * third)
        assert data.x == base * third


class TestFormFromPointed:
    def test_round_trip(self):
        for q in SMALL_FORMS:
            if q.group.order == 1:
                continue
            md = weil(q)
            back = form_from_pointed(md)
            assert back.group.factors == q.group.factors
            assert back == q

    def test_rejects_non_group_labels(self):
        md = weil(std_form((4,)))
        md2 = type(md)(["a", "b", "c", "d"], 0, md.S, md.T)
        with pytest.raises(ValueError):
            form_from_pointed(md2)
        # TY labels are tuples, but not integer coordinates
        q = indecomposable_form("2^1_1")[0]
        with pytest.raises(ValueError, match="group element tuples"):
            form_from_pointed(ty_double(TYData(q.group, q.polarization(), 1), q))


class TestIsotropic:
    def test_z4_only_trivial(self):
        data = isotropic_subgroups(std_form((4,)))
        assert len(data) == 1
        assert data[0].subgroup.order == 1

    def test_hyperbolic_three_isotropics(self):
        data = isotropic_subgroups(hyperbolic(2))
        orders = sorted(d.subgroup.order for d in data)
        assert orders == [1, 2, 2]

    def test_self_perp_gives_trivial_quotient(self):
        q = hyperbolic(2)
        D = Subgroup(q.group, [(1, 0)])
        datum = IsotropicDatum(q, D)
        assert datum.perp == D
        assert datum.group.order == 1

    def test_non_isotropic_rejected(self):
        q = std_form((4,))
        with pytest.raises(ValueError):
            IsotropicDatum(q, Subgroup(q.group, [(2,)]))

    def test_induced_form_keeps_signature(self):
        q = hyperbolic(4)
        D = Subgroup(q.group, [(2, 0)])
        datum = IsotropicDatum(q, D)
        assert datum.group.order == 4
        assert gauss_sum(datum.form)[2] == gauss_sum(q)[2]

    def test_quotient_lift_inverse(self):
        q = hyperbolic(4)
        datum = IsotropicDatum(q, Subgroup(q.group, [(2, 0)]))
        for y in datum.group.elements():
            assert datum.to_quotient(datum.lift(y)) == y


class TestZParams:
    def test_diagonal_gives_identity(self):
        for q in [std_form((4,)), hyperbolic(2)]:
            square, pair, split = square_group(q)
            Z = Subgroup(square, [pair(g, g) for g in q.group.elements()])
            param = ZParam(q, Z)
            assert param.isotropic
            assert z_to_matrix(param).matrix == identity_matrix(q.group.order)

    def test_anti_diagonal_gives_conjugation(self):
        q = std_form((4,))
        square, pair, split = square_group(q)
        Z = Subgroup(
            square, [pair(g, q.group.neg(g)) for g in q.group.elements()]
        )
        param = ZParam(q, Z)
        assert z_to_matrix(param).matrix == conj_matrix(q)

    def test_wrong_order_rejected(self):
        q = std_form((4,))
        square, pair, split = square_group(q)
        with pytest.raises(ValueError):
            ZParam(q, Subgroup(square, []))

    def test_sqrt4_count(self):
        assert len(enum_z(std_form((4,)))) == 2

    def test_every_matrix_has_group_order_ones(self):
        for q in SMALL_FORMS:
            for param in enum_z(q):
                M = z_to_matrix(param).matrix
                assert sum(map(sum, M)) == q.group.order

    def test_relaxed_enum_contains_isotropic(self):
        q = std_form((4,))
        strict = {p.key() for p in enum_z(q)}
        relaxed = {p.key() for p in enum_z(q, require_isotropy=False)}
        assert strict < relaxed

    def test_relaxed_count_matches_sign_twisted_family(self):
        for q in [std_form((4,)), hyperbolic(2)]:
            md = weil(q)
            mats = set()
            for param, _ in enumerate_sc(md).entries:
                J, psi, chain = param.J, param.psi, param.chain
                mats.add(s_only_matrix(md, J, psi, None, chain))
                rank = param.group.rank
                for bits in range(1, 2**rank):
                    phi_exp = []
                    for i in range(rank):
                        n = param.group.factors[i]
                        phi_exp.append((n // 2) * ((bits >> i) & 1) if n % 2 == 0 else 0)
                    if all(e == 0 for e in phi_exp):
                        continue
                    from modinv.abelian import Character

                    mats.add(
                        s_only_matrix(md, J, psi, Character(param.group, phi_exp), chain)
                    )
            assert len(mats) == len(enum_z(q, require_isotropy=False))


class TestEnumAgreement:
    def test_four_way_matrix_sets_agree(self):
        for q in SMALL_FORMS:
            md = weil(q)
            sc_set = enumerate_sc(md).matrix_set()
            dpm_set = {dpm_to_matrix(q, d).matrix for d in enum_dpm(q)}
            z_set = {z_to_matrix(p).matrix for p in enum_z(q)}
            brute_set = {m.matrix for m in brute_force_invariants(md)}
            assert sc_set == dpm_set == z_set == brute_set, q.group.factors

    def test_dpm_params_biject_with_z(self):
        for q in [std_form((4,)), hyperbolic(2), hyperbolic(3)]:
            dpms = enum_dpm(q)
            zs = {dpm_to_z(q, d).key() for d in dpms}
            assert len(zs) == len(dpms) == len(enum_z(q))

    @pytest.mark.parametrize(
        "desc,count",
        [("2^1_1 x 2^1_1 x 2^1_1 x 2^1_1", 30), ("3^1_+ x 3^1_+ x 3^1_+", 80)],
    )
    def test_paper_scale_dpm_matches_sc(self, desc, count):
        q, _ = indecomposable_form(desc)
        sc_set = enumerate_sc(weil(q)).matrix_set()
        dpm_set = {dpm_to_matrix(q, d).matrix for d in enum_dpm(q)}
        assert sc_set == dpm_set
        assert len(dpm_set) == count

    def test_all_pass_check_invariant(self):
        q = hyperbolic(2)
        md = weil(q)
        for p in enum_z(q):
            ok, report = check_invariant(md, z_to_matrix(p).matrix)
            assert ok, report


PRUNING_FORMS = SMALL_FORMS + [
    hyperbolic(3),
    indecomposable_form("2^12^1_i")[0],
    indecomposable_form("2^22^2_i")[0],
]


@pytest.mark.parametrize("q", PRUNING_FORMS, ids=lambda q: repr(q.group))
class TestPrunedSearch:
    """The pruned searches list what a filter over every subgroup lists."""

    def test_isotropic_subgroups_match_filter(self, q):
        expect = [
            D.key()
            for D in all_subgroups(q.group)
            if all(q.phase(d) == 0 for d in D.elements())
        ]
        assert [datum.subgroup.key() for datum in isotropic_subgroups(q)] == expect

    def test_enum_z_matches_filter(self, q):
        square, _, split = square_group(q)
        B = square_pairing(q)
        lagrangian = [
            Z
            for Z in all_subgroups(square)
            if Z.order == q.group.order and B.perp(Z) == Z
        ]
        isotropic = [
            Z
            for Z in lagrangian
            if all(q.phase(x) == q.phase(y) for x, y in map(split, Z.elements()))
        ]
        assert [p.key() for p in enum_z(q)] == [Z.key() for Z in isotropic]
        relaxed = [p.key() for p in enum_z(q, require_isotropy=False)]
        assert relaxed == [Z.key() for Z in lagrangian]


def degenerate_form():
    """q(a, b) = a^2 / 3 on Z3 x Z3: the second factor is the radical."""
    G = FinAbGroup((3, 3))
    return QuadraticForm(G, {g: Fraction(g[0] * g[0], 3) for g in G.elements()})


@pytest.mark.parametrize("desc", descriptors_up_to(16))
def test_self_duality_shortcut_matches_perp(monkeypatch, desc):
    q, _ = indecomposable_form(desc)
    sq = square_context(q)
    assert sq.radical == 1
    candidates = [Z for Z in all_subgroups(sq.group) if Z.order == q.group.order]
    expect = [sq.pairing.perp(Z) == Z for Z in candidates]
    assert any(expect)

    def no_perp(self, H):
        raise AssertionError("perp computed on a nondegenerate form")

    monkeypatch.setattr(Pairing, "perp", no_perp)
    assert [sq.is_self_dual(Z) for Z in candidates] == expect


def test_self_duality_on_a_degenerate_form_takes_the_perp():
    q = degenerate_form()
    sq = square_context(q)
    assert sq.radical == 3
    B = sq.pairing
    candidates = [Z for Z in all_subgroups(sq.group) if Z.order == q.group.order]
    expect = [B.perp(Z) == Z for Z in candidates]
    assert [sq.is_self_dual(Z) for Z in candidates] == expect
    # pairwise-orthogonal generators would pass these, but they are not self-dual
    fooled = [
        Z
        for Z, dual in zip(candidates, expect)
        if not dual and not any(B.dot(g, h) for g in Z.gens() for h in Z.gens())
    ]
    assert fooled


@pytest.mark.parametrize(
    "q,radical",
    [
        (QuadraticForm(FinAbGroup((2,)), {(0,): 0, (1,): 0}), 2),
        (QuadraticForm(FinAbGroup((3,)), {(0,): 0, (1,): 0, (2,): 0}), 3),
        (degenerate_form(), 3),
    ],
    ids=["zero-Z2", "zero-Z3", "Z3xZ3"],
)
def test_degenerate_form_refused_before_search(monkeypatch, q, radical):
    def no_search(*args):
        raise AssertionError("searched a degenerate form")

    monkeypatch.setattr(pointed, "all_subgroups", no_search)
    for enum in (enum_dpm, enum_z, lambda q: enum_z(q, require_isotropy=False)):
        with pytest.raises(ValueError, match=f"degenerate: its radical has order {radical}$"):
            enum(q)


def test_subgroup_guard_before_search():
    with pytest.raises(GuardError):
        enum_z(hyperbolic(6))  # square group of order 1296
    with pytest.raises(GuardError):
        isotropic_subgroups(hyperbolic(33))  # order 1089


def test_dpm_guard_before_search(monkeypatch):
    def no_search(q):
        raise AssertionError("isotropic subgroups searched before the quotient guard")

    monkeypatch.setattr(pointed, "isotropic_subgroups", no_search)
    q, _ = indecomposable_form("2^7_1")  # order 128
    with pytest.raises(GuardError, match="isotropic quotient of order 128 exceeds guard"):
        enum_dpm(q)


def test_weil_primary_guard_before_gauss_sum(monkeypatch):
    def no_gauss_sum(q):
        raise AssertionError("Gauss sum computed before the primary guard")

    monkeypatch.setattr(pointed, "gauss_sum", no_gauss_sum)
    q, _ = indecomposable_form("1009^1_+")
    with pytest.raises(GuardError, match="primary count 1009 exceeds guard 512"):
        weil(q)
    monkeypatch.undo()
    assert weil(indecomposable_form("2^9_1")[0]).dim == 512  # at the guard


class TestJpsiToDpm:
    def test_round_trip_reproduces_matrix(self):
        for q in SMALL_FORMS:
            if q.group.order == 1:
                continue
            md = weil(q)
            for param, z in enumerate_sc(md).entries:
                dpm = jpsi_to_dpm(md, param)
                assert dpm_to_matrix(q, dpm).matrix == z.matrix

    def test_trivial_subgroup_gives_identity_datum(self):
        q = std_form((4,))
        md = weil(q)
        param = make_epsilon(md, Subgroup(simple_group(md), []))
        dpm = jpsi_to_dpm(md, param)
        assert dpm.plus.subgroup.order == 1
        assert dpm.minus.subgroup.order == 1
        assert dpm.sigma.matrix == ((1, 0), (0, 1)) or dpm.sigma.is_bijective()
        assert dpm_to_matrix(q, dpm).matrix == identity_matrix(4)

    def test_half_subgroup_gives_conjugation(self):
        q = std_form((4,))
        md = weil(q)
        full = enumerate_sc(md)
        target = conj_matrix(q)
        found = None
        for param, z in full.entries:
            if z.matrix == target:
                found = param
        assert found is not None
        dpm = jpsi_to_dpm(md, found)
        assert dpm.plus.subgroup.order == 1
        assert dpm.minus.subgroup.order == 1
        assert dpm_to_z(q, dpm).Z.elements() == Subgroup(
            dpm_to_z(q, dpm).Z.ambient,
            [dpm_to_z(q, dpm).pair(g, q.group.neg(g)) for g in q.group.elements()],
        ).elements()

    def test_isotropic_subgroup_gives_type_one(self):
        q = hyperbolic(2)
        md = weil(q)
        sc = enumerate_sc(md)
        for param, z in sc.entries:
            if param.J.order != 2:
                continue
            dpm = jpsi_to_dpm(md, param)
            if dpm.plus.subgroup.order == 2:
                assert dpm.plus.subgroup == dpm.minus.subgroup
                assert dpm.sigma.domain.order == 1

    def test_rejects_distorted_twists(self):
        q = std_form((4,))
        md = weil(q)
        T = list(md.T)
        T[2] = T[2] * rational_phase(Fraction(1, 3))
        md2 = type(md)(md.labels, md.unit, md.S, T)
        param = make_epsilon(md2, Subgroup(simple_group(md2), []))
        with pytest.raises(ValueError):
            jpsi_to_dpm(md2, param)


def simple_group(md):
    from modinv.modular import simple_currents

    return simple_currents(md).group


class TestNimrep:
    def test_full_subgroup_all_ones(self):
        G = FinAbGroup((4,))
        reps, mats = nimrep(G, Subgroup(G, [(1,)]))
        assert all(m == ((1,),) for m in mats.values())

    def test_trivial_subgroup_regular(self):
        G = FinAbGroup((4,))
        reps, mats = nimrep(G, Subgroup(G, []))
        for g, M in mats.items():
            assert sum(map(sum, M)) == 4
            assert all(sum(row) == 1 for row in M)
        assert mats[(0,)] == identity_matrix(4)

    def test_homomorphism_property(self):
        G = FinAbGroup((4, 2))
        J = Subgroup(G, [(2, 0)])
        reps, mats = nimrep(G, J)
        from modinv.modular import mat_mul

        for g in G.elements():
            for h in G.elements():
                prod = tuple(
                    tuple(
                        sum(mats[g][i][k] * mats[h][k][j] for k in range(len(reps)))
                        for j in range(len(reps))
                    )
                    for i in range(len(reps))
                )
                assert prod == mats[G.add(g, h)]

    def test_spectrum_matches_perp_characters(self):
        q = std_form((4,))
        P = q.polarization()
        G = q.group
        for J_gens in [[], [(2,)], [(1,)]]:
            J = Subgroup(G, J_gens)
            perp = P.perp(J)
            reps, mats = nimrep(G, J)
            for g in G.elements():
                want = sorted(
                    rational_phase(P.phase(g, j)).canonical()
                    for j in perp.elements()
                )
                got = []
                M = mats[g]
                seen = set()
                for c in range(len(reps)):
                    if c in seen:
                        continue
                    length = 0
                    cur = c
                    while cur not in seen:
                        seen.add(cur)
                        cur = next(i for i in range(len(reps)) if M[i][cur])
                        length += 1
                    for k in range(length):
                        got.append(rational_phase(Fraction(k, length)).canonical())
                assert sorted(got) == want


class TestAlphaInduction:
    def test_identity_datum(self):
        q = std_form((4,))
        md = weil(q)
        for param, z in enumerate_sc(md).entries:
            if z.matrix == identity_matrix(4):
                dpm = jpsi_to_dpm(md, param)
                data = PointedData(q)
                _, _, M = alpha_induction(data, dpm)
                assert M.matrix == identity_matrix(4)

    def test_conjugation_datum(self):
        q = std_form((4,))
        md = weil(q)
        target = conj_matrix(q)
        for param, z in enumerate_sc(md).entries:
            if z.matrix == target:
                dpm = jpsi_to_dpm(md, param)
                _, _, M = alpha_induction(PointedData(q), dpm)
                assert M.matrix == target

    def test_type_one_block(self):
        q = hyperbolic(2)
        md = weil(q)
        for param, z in enumerate_sc(md).entries:
            dpm = jpsi_to_dpm(md, param)
            if dpm.plus.subgroup.order != 2:
                continue
            if dpm.plus.subgroup != dpm.minus.subgroup:
                continue
            _, _, M = alpha_induction(PointedData(q), dpm)
            assert M.matrix == z.matrix

    def test_delta_matrix_always_matches_z(self):
        for q in [std_form((4,)), hyperbolic(2), std_form((5,))]:
            md = weil(q)
            for param, z in enumerate_sc(md).entries:
                dpm = jpsi_to_dpm(md, param)
                _, _, M = alpha_induction(PointedData(q), dpm)
                assert M.matrix == z.matrix
