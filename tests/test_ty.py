"""Tests for the fusion, associator, double, and equivariantization module."""

from fractions import Fraction
from itertools import product

import pytest

from modinv.abelian import FinAbGroup, GuardError, Subgroup
from modinv.forms import (
    AlternatingPairing,
    Pairing,
    QuadraticForm,
    forms_for_pairing,
    indecomposable_form,
    standard_pairing,
)
from modinv.modular import ModularData, check_invariant, simple_currents, validate_modular
from modinv.pointed import PointedData, weil
from modinv.scalars import Cyclotomic, rational_phase, root_of_unity, sqrt_nonneg_int
from modinv.simple_current import make_epsilon, sc_matrix
from modinv.ty import (
    HG_LABEL_GUARD,
    DegenerateData,
    SqrtConvention,
    TYData,
    equiv_invariant,
    hg_fusion,
    pentagon_check,
    shifted_pair_sum,
    shifted_pair_sum_closed,
    ty_associator,
    ty_double,
    ty_equiv,
    ty_fusion,
    ty_module_nimrep,
)

import oracle
from oracle import mod1


def datum(descriptor, sign=1):
    q, _ = indecomposable_form(descriptor)
    return q, TYData(q.group, q.polarization(), sign)


def common_order_keys(values):
    """Hashable canonical tuples of the values, all at one cyclotomic order."""
    from math import lcm

    N = 1
    for v in values:
        N = lcm(N, v.order)
    return [v.at_order(N).canonical() for v in values]


# -- datum validation ----------------------------------------------------------


def test_datum_rejects_bad_input():
    G = FinAbGroup((2,))
    pair = standard_pairing(G)
    degenerate = type(pair)(G, G, [[Fraction(0)]])
    with pytest.raises(ValueError):
        TYData(G, degenerate, 1)
    with pytest.raises(ValueError):
        TYData(G, pair, 2)


@pytest.mark.parametrize("sign", [1.5, "1", None, 0, -2])
def test_datum_rejects_non_sign(sign):
    G = FinAbGroup((3,))
    with pytest.raises(ValueError):
        TYData(G, standard_pairing(G), sign)


def test_datum_stores_integral_sign_as_int():
    G = FinAbGroup((3,))
    data = TYData(G, standard_pairing(G), -1.0)
    assert data.sign == -1 and type(data.sign) is int
    as_float = ty_equiv(data)
    exact = ty_equiv(TYData(G, standard_pairing(G), -1))
    assert as_float.S == exact.S and as_float.T == exact.T


# -- fusion ring ---------------------------------------------------------------


def test_fusion_ring_axioms():
    G = FinAbGroup((4,))
    fus = ty_fusion(G)
    assert fus.is_commutative()
    assert fus.is_associative()
    assert fus.has_nonnegative_constants()
    root = ("root",)
    assert fus.product(root, root) == {("inv", g): 1 for g in G.elements()}
    for g in G.elements():
        assert fus.product(("inv", g), root) == {root: 1}
        assert fus.product(("inv", g), ("inv", G.neg(g))) == {fus.unit: 1}


def test_fusion_ising_shape():
    G = FinAbGroup((2,))
    fus = ty_fusion(G)
    assert fus.product(("root",), ("root",)) == {
        ("inv", (0,)): 1,
        ("inv", (1,)): 1,
    }


@pytest.mark.parametrize("factors", [(2,), (3,), (2, 2)])
def test_perron_dimension_of_root(factors):
    G = FinAbGroup(factors)
    fus = ty_fusion(G)
    pf = fus.perron_dimension(("root",))
    assert abs(pf * pf - G.order) < 1e-7
    M = [
        [fus.product(("root",), a).get(b, 0) for b in fus.labels]
        for a in fus.labels
    ]
    assert abs(pf - oracle.largest_eigenvalue(M)) < 1e-7


# -- associators ---------------------------------------------------------------


def test_associator_z2_root_block():
    G = FinAbGroup((2,))
    data = TYData(G, standard_pairing(G), 1)
    A = ty_associator(data)
    root = ("root",)
    r = sqrt_nonneg_int(2).inverse()
    comp = A[(root, root, root)]
    e0, e1 = ("inv", (0,)), ("inv", (1,))
    assert comp[(root, e0, e0)] == r
    assert comp[(root, e0, e1)] == r
    assert comp[(root, e1, e0)] == r
    assert comp[(root, e1, e1)] == r * Fraction(-1)


def test_associator_component_shapes():
    G = FinAbGroup((3,))
    data = TYData(G, standard_pairing(G), 1)
    A = ty_associator(data)
    root = ("root",)
    zero = ("inv", G.zero())
    g = ("inv", (1,))
    # invertible-root-invertible carries the pairing phase
    val = A[(g, root, g)][(root, root, root)]
    assert val == rational_phase(data.pairing.phase((1,), (1,)))
    # trivial slots are exactly 1
    assert A[(zero, root, zero)][(root, root, root)].is_one()
    assert A[(g, g, g)][(("inv", (0,)), ("inv", (2,)), ("inv", (2,)))].is_one()
    assert A[(g, g, root)][(root, ("inv", (2,)), root)].is_one()
    # middle-invertible case distributes over the total
    for h in G.elements():
        tot = ("inv", h)
        assert A[(root, g, root)][(tot, root, root)] == rational_phase(
            data.pairing.phase((1,), h)
        )


def test_associator_negative_sign_flips_root_block():
    G = FinAbGroup((2,))
    plus = ty_associator(TYData(G, standard_pairing(G), 1))
    minus = ty_associator(TYData(G, standard_pairing(G), -1))
    root = ("root",)
    for key, val in plus[(root, root, root)].items():
        assert minus[(root, root, root)][key] == val * Fraction(-1)


# -- pentagon ------------------------------------------------------------------


def _compose(f, g):
    """Composition g after f for sparse maps src -> {dst: scalar}."""
    out = {}
    for src, row in f.items():
        acc = out.setdefault(src, {})
        for mid, c1 in row.items():
            for dst, c2 in g.get(mid, {}).items():
                acc[dst] = acc.get(dst, Cyclotomic.zero()) + c1 * c2
    return out


def reference_pentagon_sides(fusion, A, X, Y, Z, W):
    """(source paths, lhs, rhs) for one quadruple, as composites of path-basis maps.

    The left side is the three-associator composite ((XY)Z)W -> (X(YZ))W ->
    X((YZ)W) -> X(Y(ZW)), the right side the two-associator composite through
    (XY)(ZW); each side maps a source path to {target path: scalar}.
    """
    prod = fusion.product
    src = [(p, q, r) for p in prod(X, Y) for q in prod(p, Z) for r in prod(q, W)]
    a1 = {
        (p, q, r): {(m, q, r): A[(X, Y, Z)][(q, p, m)] for m in prod(Y, Z) if q in prod(X, m)}
        for p, q, r in src
    }
    a2 = {
        (m, q, r): {(m, w, r): A[(X, m, W)][(r, q, w)] for w in prod(m, W) if r in prod(X, w)}
        for row in a1.values()
        for m, q, r in row
    }
    a3 = {
        (m, w, r): {(n, w, r): A[(Y, Z, W)][(w, m, n)] for n in prod(Z, W) if w in prod(Y, n)}
        for row in a2.values()
        for m, w, r in row
    }
    b1 = {
        (p, q, r): {(p, n, r): A[(p, Z, W)][(r, q, n)] for n in prod(Z, W) if r in prod(p, n)}
        for p, q, r in src
    }
    b2 = {
        (p, n, r): {(n, w, r): A[(X, Y, n)][(r, p, w)] for w in prod(Y, n) if r in prod(X, w)}
        for row in b1.values()
        for p, n, r in row
    }
    return src, _compose(_compose(a1, a2), a3), _compose(b1, b2)


def reference_pentagon_check(fusion, A):
    """(True, None) or (False, (quad, source path, lhs row, rhs row)) for the first failure."""
    for quad in product(fusion.labels, repeat=4):
        src, lhs, rhs = reference_pentagon_sides(fusion, A, *quad)
        for s in src:
            lrow = {k: v for k, v in lhs.get(s, {}).items() if not v.is_zero()}
            rrow = {k: v for k, v in rhs.get(s, {}).items() if not v.is_zero()}
            if lrow != rrow:
                return False, (quad, s, lrow, rrow)
    return True, None


@pytest.mark.parametrize("factors", [(2,), (3,), (4,), (2, 2), (5,)])
@pytest.mark.parametrize("sign", [1, -1])
def test_pentagon_small_groups(factors, sign):
    G = FinAbGroup(factors)
    data = TYData(G, standard_pairing(G), sign)
    ok, witness = pentagon_check(ty_fusion(G), ty_associator(data))
    assert ok and witness is None


@pytest.mark.parametrize("sign", [1, -1])
def test_pentagon_nonstandard_pairing(sign):
    G = FinAbGroup((5,))
    data = TYData(G, Pairing(G, G, [[Fraction(2, 5)]]), sign)
    ok, witness = pentagon_check(ty_fusion(G), ty_associator(data))
    assert ok and witness is None


def _single_sign_flips():
    for n in (2, 3):
        G = FinAbGroup((n,))
        A = ty_associator(TYData(G, standard_pairing(G), 1))
        for triple, comp in A.items():
            for key in comp:
                yield n, triple, key


@pytest.mark.parametrize("n,triple,key", list(_single_sign_flips()))
def test_pentagon_matches_composition_reference(n, triple, key):
    G = FinAbGroup((n,))
    fus = ty_fusion(G)
    A = ty_associator(TYData(G, standard_pairing(G), 1))
    A[triple][key] = A[triple][key] * Fraction(-1)
    ok, (quad, src, dst, lhs, rhs) = pentagon_check(fus, A)
    ref_ok, (ref_quad, ref_src, lrow, rrow) = reference_pentagon_check(fus, A)
    assert not ok and not ref_ok
    assert (quad, src) == (ref_quad, ref_src)
    # the target path is an entry where the composites differ
    zero = Cyclotomic.zero()
    assert lhs != rhs
    assert lhs == lrow.get(dst, zero) and rhs == rrow.get(dst, zero)


def test_pentagon_mutation_gives_witness():
    G = FinAbGroup((2,))
    data = TYData(G, standard_pairing(G), 1)
    A = ty_associator(data)
    root = ("root",)
    A[(root, root, root)][(root, ("inv", (1,)), ("inv", (1,)))] *= Fraction(-1)
    ok, witness = pentagon_check(ty_fusion(G), A)
    assert not ok
    quad, src, dst, lhs, rhs = witness
    assert root in quad
    assert lhs != rhs


def test_pentagon_rejects_multiplicity():
    G = FinAbGroup((2,))
    fus = ty_fusion(G)
    fus.table[(("root",), ("root",))][("inv", (0,))] = 2
    with pytest.raises(ValueError):
        pentagon_check(fus, ty_associator(TYData(G, standard_pairing(G), 1)))


# -- square-root conventions ---------------------------------------------------


def test_sqrt_convention_squares_to_targets():
    q, data = datum("3^1_+")
    conv = SqrtConvention.canonical(q, 1)
    for g in q.group.elements():
        assert conv.root[g] * conv.root[g] == q.eval(g)
    bad = dict(conv.root)
    bad[(1,)] = conv.root[(1,)] * root_of_unity(4, 1)
    with pytest.raises(ValueError):
        SqrtConvention(q, 1, bad, conv.inv_anchor)
    conv.flip((1,))
    conv.anchor_flipped()


def test_sqrt_convention_faithful_rejects_even():
    q, _ = datum("2^1_1")
    with pytest.raises(ValueError):
        SqrtConvention.fusion_faithful(q, 1)


@pytest.mark.parametrize("sign", [5, 0, 1.5, "1"])
def test_sqrt_convention_rejects_non_sign(sign):
    q, _ = datum("3^1_+")
    conv = SqrtConvention.canonical(q, 1)
    with pytest.raises(ValueError):
        SqrtConvention.canonical(q, sign)
    with pytest.raises(ValueError):
        SqrtConvention.fusion_faithful(q, sign)
    with pytest.raises(ValueError):
        SqrtConvention(q, sign, conv.root, conv.inv_anchor)


@pytest.mark.parametrize("g", [(3,), (-1,), (0, 0), (), [1], "1"])
def test_sqrt_convention_flip_rejects_non_elements(g):
    q, _ = datum("3^1_+")
    with pytest.raises(ValueError):
        SqrtConvention.canonical(q, 1).flip(g)


def test_sqrt_convention_checks_the_anchor_it_computes():
    q, _ = datum("5^1_-")
    conv = SqrtConvention.canonical(q, -1)
    flipped = conv.flip((2,)).anchor_flipped()
    # inv_anchor^2 inverts sign * x^3, x the 24th-root normalization
    unit = PointedData(q).x ** 3 * Fraction(-1)
    assert (flipped.inv_anchor * flipped.inv_anchor * unit).is_one()
    for k in range(1, 8):
        wrong = conv.inv_anchor * root_of_unity(8, k)
        if k == 4:
            SqrtConvention(q, -1, conv.root, wrong)
            continue
        with pytest.raises(ValueError):
            SqrtConvention(q, -1, conv.root, wrong)
        with pytest.raises(ValueError):
            SqrtConvention(q, 1, conv.root, wrong * root_of_unity(8, 2))


def test_sqrt_convention_takes_one_gauss_sum_per_form(monkeypatch):
    """The anchor's signature is read once per form, off its cached normal
    form, so no Gauss sum of the form is taken at all."""
    import modinv.forms as forms

    calls, sums = [], []
    real, real_sum = forms.normal_form, forms.gauss_sum
    monkeypatch.setattr(forms, "normal_form", lambda G, *rest: calls.append(G) or real(G, *rest))
    monkeypatch.setattr(forms, "gauss_sum", lambda q: sums.append(q) or real_sum(q))
    q, _ = indecomposable_form("5^1_-")
    conv = SqrtConvention.canonical(q, -1)
    conv.flip((2,)).anchor_flipped()
    SqrtConvention.fusion_faithful(q, 1)
    ty_double(TYData(q.group, q.polarization(), -1), q)
    assert calls == [q.group] and sums == []


def test_flip_is_a_label_swap():
    q, data = datum("3^1_+")
    md1 = ty_double(data, q)
    g0 = (1,)
    md2 = ty_double(data, q, SqrtConvention.canonical(q, 1).flip(g0))
    perm = list(range(len(md1.labels)))
    i0 = md1.labels.index(("root", g0, 0))
    i1 = md1.labels.index(("root", g0, 1))
    perm[i0], perm[i1] = i1, i0
    for a in range(len(perm)):
        assert md2.T[a] == md1.T[perm[a]]
        for b in range(len(perm)):
            assert md2.S[a][b] == md1.S[perm[a]][perm[b]]


def test_anchor_flip_is_a_global_label_swap():
    q, data = datum("3^1_-", sign=-1)
    md1 = ty_double(data, q)
    md2 = ty_double(data, q, SqrtConvention.canonical(q, -1).anchor_flipped())
    perm = list(range(len(md1.labels)))
    for g in q.group.elements():
        i0 = md1.labels.index(("root", g, 0))
        i1 = md1.labels.index(("root", g, 1))
        perm[i0], perm[i1] = i1, i0
    for a in range(len(perm)):
        assert md2.T[a] == md1.T[perm[a]]
        for b in range(len(perm)):
            assert md2.S[a][b] == md1.S[perm[a]][perm[b]]


# -- double: modular data --------------------------------------------------------


DOUBLES = [("2^1_1", 1), ("3^1_+", 1), ("3^1_+", -1), ("2^2_1", 1), ("5^1_+", 1)]


@pytest.mark.parametrize("descriptor,sign", DOUBLES)
def test_double_is_modular(descriptor, sign):
    q, data = datum(descriptor, sign)
    md = ty_double(data, q)
    assert validate_modular(md) == []


def assert_fusion_matches_float_oracle(md):
    assert md.unit == 0  # the oracle's convention
    N = md.fusion()
    approx = oracle.verlinde_float([[x.approx() for x in row] for row in md.S])
    for (a, b, c), v in approx.items():
        assert abs(N[a][b][c] - v) < 1e-8


@pytest.mark.parametrize("descriptor,sign", DOUBLES + [("3^1_-", 1)])
def test_double_verlinde_matches_float_oracle(descriptor, sign):
    q, data = datum(descriptor, sign)
    assert_fusion_matches_float_oracle(ty_double(data, q))
    if q.group.order % 2:
        faithful = SqrtConvention.fusion_faithful(q, sign)
        assert_fusion_matches_float_oracle(ty_double(data, q, faithful))


@pytest.mark.parametrize("sign", [1, -1])
def test_trivial_double_verlinde_matches_float_oracle(sign):
    G = FinAbGroup(())
    q = QuadraticForm(G, {(): Fraction(0)})
    assert_fusion_matches_float_oracle(ty_double(TYData(G, q.polarization(), sign), q))


def test_double_primary_count():
    for descriptor, n in [("2^1_1", 2), ("3^1_+", 3), ("2^2_1", 4), ("5^1_+", 5)]:
        q, data = datum(descriptor)
        md = ty_double(data, q)
        assert len(md.labels) == 4 * n + n * (n - 1) // 2


def test_double_primary_guard_before_any_table(monkeypatch):
    import modinv.ty as ty

    def no_convention(*args):
        raise AssertionError("square-root convention built before the primary guard")

    monkeypatch.setattr(ty.SqrtConvention, "canonical", no_convention)
    q, data = datum("29^1_+")  # 29 * 36 / 2 = 522 primaries
    with pytest.raises(GuardError, match="primary count 522 exceeds guard 512"):
        ty_double(data, q)


def test_equiv_primary_guard_before_any_form(monkeypatch):
    import modinv.ty as ty

    def no_form(*args):
        raise AssertionError("form or Gauss sum built before the primary guard")

    monkeypatch.setattr(ty, "forms_for_pairing", no_form)
    monkeypatch.setattr(ty, "gauss_sum", no_form)
    _, data = datum("1033^1_+")  # (1033 + 7) / 2 = 520 primaries
    with pytest.raises(GuardError, match="primary count 520 exceeds guard 512"):
        ty_equiv(data)


def test_equiv_builds_each_two_two_entry_once():
    # the two-two block of 101^1_+ (50 labels) holds one object per value of
    # b(r, s)^2, at most 101 of them, and one-two is a single object
    _, data = datum("101^1_+")
    md = ty_equiv(data)
    two = [i for i, la in enumerate(md.labels) if la[0] == "two"]
    assert len({id(md.S[i][j]) for i in two for j in two}) <= 101
    assert len({id(md.S[0][j]) for j in two}) == 1


def test_double_trivial_group_toric_and_semion():
    G = FinAbGroup(())
    q = QuadraticForm(G, {(): Fraction(0)})
    pair = q.polarization()
    plus = ty_double(TYData(G, pair, 1), q)
    assert validate_modular(plus) == []
    assert tuple(plus.T) == (
        Cyclotomic.one(),
        Cyclotomic.one(),
        Cyclotomic.one(),
        Cyclotomic.from_rational(Fraction(-1)),
    )
    minus = ty_double(TYData(G, pair, -1), q)
    assert validate_modular(minus) == []
    i = root_of_unity(4, 1)
    assert tuple(minus.T) == (Cyclotomic.one(), Cyclotomic.one(), i, i.conj())


def test_double_wrong_form_rejected():
    q3, data3 = datum("3^1_+")
    q5, _ = datum("5^1_+")
    with pytest.raises(ValueError):
        ty_double(data3, q5)
    with pytest.raises(ValueError):
        ty_double(data3, q3, SqrtConvention.canonical(q3, -1))


def reference_ty_double(data, q, conv):
    """Entry-by-entry construction of the double's S and T, one product chain
    per matrix entry, as the center construction states them."""
    G = data.G
    n = G.order
    P = q.polarization()
    els = G.elements()
    inv_anchor = conv.inv_anchor
    sqrt_q = conv.root
    labels = [("one", g, i) for g in els for i in (0, 1)]
    labels += [("root", g, i) for g in els for i in (0, 1)]
    labels += [("two", g, h) for gi, g in enumerate(els) for h in els[gi + 1:]]
    unit = labels.index(("one", G.zero(), 0))
    inv_rt_n = sqrt_nonneg_int(n) / n
    gs = {a: shifted_pair_sum(q, a) for a in els}
    pref = inv_anchor * inv_anchor

    def s_entry(la, lb):
        ka, kb = la[0], lb[0]
        if ka > kb:
            la, lb = lb, la
            ka, kb = kb, ka
        if (ka, kb) == ("one", "one"):
            return root_of_unity(P.den, -2 * P.dot(la[1], lb[1])) * Fraction(1, 2 * n)
        if (ka, kb) == ("one", "root"):
            sgn = 1 if la[2] == 0 else -1
            return P.eval(la[1], lb[1]).conj() * inv_rt_n * Fraction(sgn, 2)
        if (ka, kb) == ("one", "two"):
            return P.eval(la[1], G.add(lb[1], lb[2])).conj() * Fraction(1, n)
        if (ka, kb) == ("root", "two"):
            return Cyclotomic.zero()
        if (ka, kb) == ("two", "two"):
            g, h = la[1], la[2]
            gp, hp = lb[1], lb[2]
            tot = P.eval(g, hp) * P.eval(h, gp) + P.eval(g, gp) * P.eval(h, hp)
            return tot.conj() * Fraction(1, n)
        g, h = la[1], lb[1]
        sgn = (-1) ** (la[2] + lb[2])
        val = pref * gs[G.add(g, h)] * sqrt_q[g].inverse() * sqrt_q[h].inverse()
        return val * Fraction(sgn, 2 * n)

    S = [[s_entry(la, lb) for lb in labels] for la in labels]
    T = []
    for la in labels:
        if la[0] == "one":
            T.append(P.eval(la[1], la[1]))
        elif la[0] == "two":
            T.append(P.eval(la[1], la[2]))
        else:
            sgn = 1 if la[2] == 0 else -1
            T.append(inv_anchor * sqrt_q[la[1]].inverse() * Fraction(sgn))
    return ModularData(labels, unit, S, T)


def stored(x):
    """A Cyclotomic exactly as stored: its order and its unreduced terms."""
    return x.order, sorted(x.terms())


def conventions(q, sign):
    base = SqrtConvention.canonical(q, sign)
    out = {"canonical": base, "anchor_flipped": base.anchor_flipped()}
    out["flip"] = base.flip(q.group.elements()[-1])
    if q.group.order % 2:
        out["fusion_faithful"] = SqrtConvention.fusion_faithful(q, sign)
    return out


ENTRY_DOUBLES = [
    (d, s) for d in ("2^1_1", "3^1_+", "3^1_-", "2^2_1", "5^1_+", "5^1_-") for s in (1, -1)
]


@pytest.mark.parametrize("descriptor,sign", ENTRY_DOUBLES)
def test_double_entries_match_reference(descriptor, sign):
    q, data = datum(descriptor, sign)
    for name, conv in conventions(q, sign).items():
        md, ref = ty_double(data, q, conv), reference_ty_double(data, q, conv)
        assert (md.labels, md.unit) == (ref.labels, ref.unit)
        assert [stored(t) for t in md.T] == [stored(t) for t in ref.T], name
        for row, ref_row in zip(md.S, ref.S):
            assert [stored(x) for x in row] == [stored(x) for x in ref_row], name


def test_double_shares_transposed_entries():
    q, data = datum("2^2_1")
    md = ty_double(data, q)
    n = md.dim
    assert all(md.S[i][j] is md.S[j][i] for i in range(n) for j in range(i, n))


@pytest.mark.parametrize("descriptor,sign", [("2^1_1", 1), ("3^1_+", -1), ("2^2_1", 1), ("5^1_+", 1)])
def test_double_inverse_count(descriptor, sign, monkeypatch):
    """One inverse per root of q and one of sqrt(n); the default convention
    adds one more (the Gauss-sum normalization, once per form)."""
    q, data = datum(descriptor, sign)
    calls = []
    inverse = Cyclotomic.inverse

    def counted(x):
        calls.append(x)
        return inverse(x)

    monkeypatch.setattr(Cyclotomic, "inverse", counted)
    ty_double(data, q)
    assert len(calls) <= q.group.order + 3


def test_double_pair_root_entries_vanish():
    q, data = datum("3^1_+")
    md = ty_double(data, q)
    for a, la in enumerate(md.labels):
        for b, lb in enumerate(md.labels):
            kinds = {la[0], lb[0]}
            if kinds == {"two", "root"}:
                assert md.S[a][b].is_zero()


@pytest.mark.parametrize("descriptor,sign", [("3^1_+", 1), ("3^1_+", -1), ("3^1_-", 1)])
def test_double_fusion_verbatim_odd(descriptor, sign):
    q, data = datum(descriptor, sign)
    md = ty_double(data, q, SqrtConvention.fusion_faithful(q, sign))
    expected = oracle.expected_double_fusion(q.group.factors, md.labels)
    assert oracle.realized_fusion_table(md) == expected


def test_double_even_group_has_intrinsic_index_twist():
    """For even order no root convention realizes the listed index rule.

    The mismatches are confined to the invertible-root and root-root
    sectors, and the twist scalar depends on the root argument even when
    the invertible is 2-torsion, so no relabeling removes it.
    """
    q, data = datum("2^1_1")
    md = ty_double(data, q)
    expected = oracle.expected_double_fusion(q.group.factors, md.labels)
    realized = oracle.realized_fusion_table(md)
    mismatch = {}
    for key in expected:
        if realized[key] != expected[key]:
            kinds = tuple(sorted((key[0][0], key[1][0])))
            mismatch[kinds] = mismatch.get(kinds, 0) + 1
    assert set(mismatch) == {("one", "root"), ("root", "root")}
    assert mismatch[("one", "root")] > 0 and mismatch[("root", "root")] > 0

    # the would-be corrective sign depends on h even though 2g = 0
    P = q.polarization()
    G = q.group

    def twist(g, h):
        ph = mod1(P.phase(h, g)) + mod1(P.phase(g, g))
        ph += Fraction(mod1(q.phase(G.add(h, G.scale(2, g)))), 2)
        ph -= Fraction(mod1(q.phase(h)), 2)
        return rational_phase(mod1(ph))

    assert twist((1,), (0,)) != twist((1,), (1,))


def test_double_form_choice_preserves_sign():
    """The double depends on the pairing and sign, not on the chosen form.

    The two inequivalent forms over the rank-one 4-torsion pairing give
    relabelings of one another at equal sign, while opposite signs stay
    non-isomorphic (their twist multisets already differ).
    """
    q1, _ = indecomposable_form("2^2_1")
    q2, _ = indecomposable_form("2^2_-3")
    assert q1.polarization().key() == q2.polarization().key()
    md = {}
    ones = {}
    for tag, q in (("a", q1), ("b", q2)):
        for sign in (1, -1):
            data = TYData(q.group, q.polarization(), sign)
            md[(tag, sign)] = ty_double(data, q)
            ones[(tag, sign)] = sum(1 for t in md[(tag, sign)].T if t.is_one())
    assert ones == {("a", 1): 9, ("b", 1): 9, ("a", -1): 7, ("b", -1): 7}
    for sign in (1, -1):
        a, b = md[("a", sign)], md[("b", sign)]
        perm = oracle.find_modular_isomorphism(a, b)
        assert perm is not None
        n = len(a.labels)
        assert all(a.T[i] == b.T[perm[i]] for i in range(n))
        for i in range(n):
            for j in range(n):
                assert a.S[i][j] == b.S[perm[i]][perm[j]]
    assert oracle.find_modular_isomorphism(md[("a", 1)], md[("b", -1)]) is None
    assert oracle.find_modular_isomorphism(md[("b", 1)], md[("a", -1)]) is None


# -- shifted pair sums -----------------------------------------------------------


@pytest.mark.parametrize(
    "descriptor",
    [
        "3^1_+",
        "3^1_-",
        "5^1_+",
        "5^1_-",
        "7^1_+",
        "7^1_-",
        "3^2_+",
        "3^2_-",
        "2^1_1",
        "2^2_1",
        "2^2_-3",
        "2^3_3",
        "2^3_-1",
        "2^4_1",
        "3^1_+1",
        "3^1_1",
        "5^1_+1",
        "5^1_1",
    ],
)
def test_shifted_pair_sum_closed_form(descriptor):
    q, _ = indecomposable_form(descriptor)
    n = q.group.order
    for a in range(n):
        assert shifted_pair_sum(q, (a,)) == shifted_pair_sum_closed(descriptor, a)


def test_shifted_pair_sum_two_power_parity():
    for k in (2, 3, 4):
        for a in range(1, 2**k, 2):
            assert shifted_pair_sum_closed(f"2^{k}_1", a).is_zero()
    assert shifted_pair_sum_closed("2^1_1", 1) == Cyclotomic.from_rational(Fraction(2))
    assert shifted_pair_sum_closed("2^1_1", 0).is_zero()


def test_shifted_pair_sum_closed_rejects_products():
    with pytest.raises(ValueError):
        shifted_pair_sum_closed("3^1_+ x 3^1_+", 0)


@pytest.mark.parametrize(
    "descriptor,a",
    [
        ("2^12^1_i", 0),
        ("2^12^1_ii", 1),
        ("3^1_q", 0),
        (None, 0),
        ("3^1_+", "a"),
        ("3^1_+", 1.5),
    ],
)
def test_shifted_pair_sum_closed_rejects_bad_input(descriptor, a):
    with pytest.raises(ValueError):
        shifted_pair_sum_closed(descriptor, a)


# -- parity equivariantization ---------------------------------------------------


def test_equiv_z3_structure():
    q, data = datum("3^1_+")
    md = ty_equiv(data)
    assert len(md.labels) == (3 - 1) // 2 + 2 + 2
    assert md.labels == (
        ("one", 1),
        ("one", -1),
        ("two", (1,)),
        ("root", 1),
        ("root", -1),
    )
    lam = sqrt_nonneg_int(12).inverse()
    assert md.S[0][0] == lam
    assert md.S[0][1] == lam
    assert md.S[0][2] == lam + lam
    assert md.S[0][3] == Cyclotomic.from_rational(Fraction(1, 2))
    assert md.S[1][3] == Cyclotomic.from_rational(Fraction(-1, 2))
    assert md.S[2][3].is_zero()
    assert validate_modular(md) == []


@pytest.mark.parametrize(
    "descriptor,sign",
    [("3^1_+", 1), ("3^1_+", -1), ("3^1_-", 1), ("5^1_+", 1), ("5^1_+", -1), ("3^2_+", 1)],
)
def test_equiv_is_modular_odd(descriptor, sign):
    q, data = datum(descriptor, sign)
    assert validate_modular(ty_equiv(data)) == []


@pytest.mark.parametrize("descriptor,sign", [("3^1_+", 1), ("5^1_+", -1)])
def test_equiv_fusion_rules(descriptor, sign):
    q, data = datum(descriptor, sign)
    md = ty_equiv(data)
    expected = oracle.expected_equiv_fusion(q.group.factors, md.labels)
    assert oracle.realized_fusion_table(md) == expected


@pytest.mark.parametrize("descriptor,sign", [("3^1_+", 1), ("3^1_+", -1), ("5^1_-", 1)])
def test_equiv_root_twists_match_double(descriptor, sign):
    """Up to the global unit, the root twists equal the double's at zero."""
    q, data = datum(descriptor, sign)
    md_e = ty_equiv(data)
    md_d = ty_double(data, q)
    unit = md_e.T[0]
    stripped = [
        md_e.T[a] * unit.inverse()
        for a, la in enumerate(md_e.labels)
        if la[0] == "root"
    ]
    zero_roots = [
        md_d.T[a]
        for a, la in enumerate(md_d.labels)
        if la[0] == "root" and la[1] == q.group.zero()
    ]
    keys = common_order_keys(stripped + zero_roots)
    assert set(keys[: len(stripped)]) == set(keys[len(stripped) :])


def test_equiv_even_certificates():
    q2, data2 = datum("2^1_1")
    cert = ty_equiv(data2)
    assert isinstance(cert, DegenerateData)
    i, j = cert.duplicate
    assert cert.matrix[i] == cert.matrix[j]
    assert {cert.labels[i], cert.labels[j]} == {
        ("one", (0,), 1),
        ("one", (1,), -1),
    }

    q4, data4 = datum("2^2_1")
    cert4 = ty_equiv(data4)
    assert isinstance(cert4, DegenerateData)
    ones = [la for la in cert4.labels if la[0] == "one"]
    assert len(ones) >= 4
    i, j = cert4.duplicate
    assert cert4.matrix[i] == cert4.matrix[j]
    assert {cert4.labels[i], cert4.labels[j]} == {
        ("one", (0,), 1),
        ("one", (2,), 1),
    }


# -- module nimreps ---------------------------------------------------------------


def ring_hom_holds(data, nim):
    fus = ty_fusion(data.G)
    n = len(nim.labels)

    def mat_mul(A, B):
        return [
            [sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

    for X in fus.labels:
        for Y in fus.labels:
            left = mat_mul(nim.matrices[X], nim.matrices[Y])
            right = [[0] * n for _ in range(n)]
            for Z, c in fus.product(X, Y).items():
                M = nim.matrices[Z]
                for i in range(n):
                    for j in range(n):
                        right[i][j] += c * M[i][j]
            if left != right:
                return False
    return True


def test_nimrep_full_subgroup():
    q, data = datum("3^1_+")
    G = q.group
    nim = ty_module_nimrep(data, Subgroup(G, [(1,)]))
    assert len(nim.labels) == G.order + 1
    root = nim.matrices[("root",)]
    xs = [k for k, la in enumerate(nim.labels) if la[0] == "x"]
    cs = [k for k, la in enumerate(nim.labels) if la[0] == "c"]
    assert len(xs) == 3 and len(cs) == 1
    for a in xs:
        for b in cs:
            assert root[a][b] == 1 and root[b][a] == 1
    assert ring_hom_holds(data, nim)


def test_nimrep_trivial_subgroup_is_regular():
    q, data = datum("3^1_+")
    G = q.group
    nim = ty_module_nimrep(data, Subgroup(G, []))
    assert len(nim.labels) == G.order + 1
    assert ring_hom_holds(data, nim)


def test_nimrep_twisted_maximal():
    G = FinAbGroup((2, 2))
    data = TYData(G, standard_pairing(G), 1)
    H = Subgroup(G, [(1, 0), (0, 1)])
    psi = AlternatingPairing(
        G, [[Fraction(0), Fraction(1, 2)], [Fraction(1, 2), Fraction(0)]]
    )
    nim = ty_module_nimrep(data, H, psi)
    assert len(nim.labels) == 2
    assert nim.matrices[("root",)] == [[0, 2], [2, 0]]
    assert ring_hom_holds(data, nim)
    for M in nim.matrices.values():
        assert all(x >= 0 and isinstance(x, int) for row in M for x in row)


def test_nimrep_twist_on_wrong_group_rejected():
    G = FinAbGroup((2, 2))
    data = TYData(G, standard_pairing(G), 1)
    H = Subgroup(G, [(1, 0)])
    psi = AlternatingPairing(
        G, [[Fraction(0), Fraction(1, 2)], [Fraction(1, 2), Fraction(0)]]
    )
    with pytest.raises(ValueError):
        ty_module_nimrep(data, H, psi)


def test_nimrep_dual_subgroups_equivalent():
    G = FinAbGroup((2, 2))
    data = TYData(G, standard_pairing(G), 1)
    H = Subgroup(G, [(1, 0)])
    Hperp = data.pairing.perp(H)
    assert H.key() != Hperp.key()
    nim1 = ty_module_nimrep(data, H)
    nim2 = ty_module_nimrep(data, Hperp)
    n = len(nim1.labels)
    assert n == len(nim2.labels)

    import itertools

    found = None
    for perm in itertools.permutations(range(n)):
        ok = True
        for key, M1 in nim1.matrices.items():
            M2 = nim2.matrices[key]
            if any(
                M1[i][j] != M2[perm[i]][perm[j]] for i in range(n) for j in range(n)
            ):
                ok = False
                break
        if ok:
            found = perm
            break
    assert found is not None


# -- transported invariants --------------------------------------------------------


def test_equiv_invariant_z3_full_subgroup():
    q, data = datum("3^1_+")
    G = q.group
    md = ty_equiv(data)
    inv = equiv_invariant(data, q, Subgroup(G, [(1,)]))
    expected = (
        (1, 1, 0, 0, 0),
        (1, 1, 0, 0, 0),
        (0, 0, 2, 0, 0),
        (0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0),
    )
    assert inv.matrix == expected
    ok, report = check_invariant(md, inv.matrix)
    assert ok, report


def test_equiv_invariant_trivial_subgroup():
    q, data = datum("3^1_+")
    G = q.group
    md = ty_equiv(data)
    inv = equiv_invariant(data, q, Subgroup(G, []))
    ok, report = check_invariant(md, inv.matrix)
    assert ok, report
    # the underlying pointed invariant of the trivial parameter is identity
    doubled = QuadraticForm(G, {g: mod1(-2 * q.phase(g)) for g in G.elements()})
    md_w = weil(doubled)
    sc = simple_currents(md_w)
    Z = sc_matrix(md_w, make_epsilon(md_w, Subgroup(sc.group, []))).matrix
    assert all(Z[i][j] == (1 if i == j else 0) for i in range(3) for j in range(3))


def test_equiv_invariant_z5_passes_check():
    q, data = datum("5^1_+")
    G = q.group
    md = ty_equiv(data)
    for gens in ([], [(1,)]):
        inv = equiv_invariant(data, q, Subgroup(G, gens))
        ok, report = check_invariant(md, inv.matrix)
        assert ok, report


def test_equiv_invariant_rejects_bad_input():
    q2, data2 = datum("2^1_1")
    with pytest.raises(ValueError):
        equiv_invariant(data2, q2, Subgroup(q2.group, []))
    q3, data3 = datum("3^1_+")
    q5, _ = indecomposable_form("5^1_+")
    with pytest.raises(ValueError):
        equiv_invariant(data3, q5, Subgroup(q3.group, []))
    # H must be a subgroup of the datum's group, even where its labels would resolve
    for H in (Subgroup(q5.group, [(1,)]), Subgroup(FinAbGroup((3, 3)), [(1, 0)])):
        with pytest.raises(ValueError, match="subgroup of a different group"):
            equiv_invariant(data3, q3, H)


# -- grafted fusion ring ------------------------------------------------------------


def test_hg_rank_and_label_families():
    ring = hg_fusion(3)
    grids = [la for la in ring.labels if la[0] == "grid"]
    arcs = [la for la in ring.labels if la[0] == "arc"]
    assert len(grids) == 4
    assert len(arcs) == 6
    assert len(ring.labels) == 12

    small = hg_fusion(1)
    assert len(small.labels) == 4


def test_hg_displayed_products():
    ring = hg_fusion(3)
    full = {la: 1 for la in ring.labels}
    rest = {la: 1 for la in ring.labels if la != ("one",)}
    hub = ("hub",)
    assert ring.product(hub, hub) == full
    grid = ("grid", (0, 1))
    arc = ("arc", 1)
    assert ring.product(grid, arc) == rest
    out = ring.product(hub, arc)
    want = dict(rest)
    want[arc] -= 1
    assert out == {la: c for la, c in want.items() if c}


@pytest.mark.parametrize("nu", [1, 3])
def test_hg_ring_axioms(nu):
    ring = hg_fusion(nu)
    assert ring.has_nonnegative_constants()
    assert ring.is_commutative()
    assert ring.is_associative()


def test_hg_even_rejected():
    for nu in (2, 4, 0, 1.5, "3"):
        with pytest.raises(ValueError):
            hg_fusion(nu)


def test_hg_label_guard():
    nu = max(n for n in range(1, HG_LABEL_GUARD, 2) if n * n + 3 <= HG_LABEL_GUARD)
    assert len(hg_fusion(nu).labels) == nu * nu + 3
    # the next odd size, and one whose table could never be built, fail at once
    for big in (nu + 2, 10**9 + 1):
        with pytest.raises(GuardError, match=f"label count {big * big + 3} exceeds guard"):
            hg_fusion(big)


def test_hg_smallest_ring_diagonal():
    ring = hg_fusion(1)
    a1 = ("arc", 1)
    a2 = ("arc", 2)
    assert ring.product(a1, a1) == {("one",): 1, a1: 1}
    assert ring.product(a2, a2) == {("one",): 1, a2: 1}
    assert ring.product(a1, a2) == {("hub",): 1}
