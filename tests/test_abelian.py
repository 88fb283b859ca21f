"""Group layer: SNF/HNF, subgroup lattice, quotients, homs, characters."""

import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracle import all_subgroup_sets, close, cphase, group_elements, subgroup_closure
from test_forms import descriptors_up_to

from modinv import abelian, pointed
from modinv.abelian import (
    Character,
    FinAbGroup,
    GuardError,
    Hom,
    Subgroup,
    all_subgroups,
    automorphisms,
    canonical_presentation,
    congruence_kernel,
    dual_characters,
    dual_quotient,
    full_subgroup,
    hermite_rows,
    hom_kernel_image,
    homs,
    invariant_factor_group,
    mat_mul_int,
    quotient,
    smith_with_inverses,
    trivial_subgroup,
)
from modinv.forms import indecomposable_form
from modinv.scalars import factorize


def naive_product(A, B):
    """A·B by the triple loop over its definition."""
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


big_entries = st.integers(-(2**70), 2**70)


@st.composite
def product_pairs(draw):
    """(A, B) of shapes n x m and m x p, 1 <= n, m, p <= 5, rows as tuples or lists."""
    n, m, p = (draw(st.integers(1, 5)) for _ in range(3))
    rows = draw(st.sampled_from([tuple, list]))
    A = [rows(draw(st.lists(big_entries, min_size=m, max_size=m))) for _ in range(n)]
    B = [rows(draw(st.lists(big_entries, min_size=p, max_size=p))) for _ in range(m)]
    return A, B


@settings(max_examples=200, deadline=None)
@given(product_pairs())
def test_mat_mul_int_matches_triple_loop(pair):
    A, B = pair
    assert mat_mul_int(A, B) == naive_product(A, B)


square_matrices = st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


def inverse_check(Vt, Vi, m):
    """V·V⁻¹ = I (mod m), V given by its columns and V⁻¹ by its rows."""
    n = len(Vt)
    for i in range(n):
        for j in range(n):
            assert (sum(Vt[k][i] * Vi[k][j] for k in range(n)) - (i == j)) % m == 0


def assert_presents(R, G, to, frm):
    """to kills the rows of R and inverts frm on G's coordinates."""
    assert len(to) == G.rank and len(frm) == len(R)
    assert all(len(row) == G.rank for row in frm)
    toR = mat_mul_int(to, [list(col) for col in zip(*R)])
    assert all(x % d == 0 for row, d in zip(toR, G.factors) for x in row)
    tofrm = mat_mul_int(to, frm)
    for i, d in enumerate(G.factors):
        for j in range(G.rank):
            assert (tofrm[i][j] - (i == j)) % d == 0


class TestSmith:
    """The Smith kernel modulo a multiple m of |det M|."""

    def test_fixed_example(self):
        pivots, Vt, Vi = smith_with_inverses([[2, 4], [-2, 6]], 20, inverse=True)
        assert pivots == [2, 10]
        inverse_check(Vt, Vi, 20)

    def test_zero_matrix(self):
        """A singular matrix has no positive multiple of its determinant."""
        with pytest.raises(ValueError, match="nonsingular"):
            smith_with_inverses([[0, 0], [0, 0]], 0)

    def test_rectangular(self):
        with pytest.raises(ValueError, match="rows of 2"):
            smith_with_inverses([[6, 4, 2], [2, 8, 10]], 4)
        with pytest.raises(ValueError, match="rows of 3"):
            smith_with_inverses([[3], [6], [9]], 9)

    def test_diag_reorder(self):
        pivots, _, _ = smith_with_inverses([[4, 0], [0, 6]], 24)
        assert pivots == [2, 12]
        assert invariant_factor_group([[4, 0], [0, 6]], 24)[0].factors == (12, 2)

    @given(square_matrices, st.integers(1, 3))
    @settings(max_examples=120, deadline=None)
    def test_random(self, M, k):
        """Modulo any multiple k·|det M| the pivots form a divisibility chain
        with product |det M|, and the transforms invert each other mod m."""
        det = abs(_det(M))
        assume(det != 0)
        m = k * det
        pivots, Vt, Vi = smith_with_inverses(M, m, inverse=True)
        assert prod(pivots) == det
        assert all(b % a == 0 for a, b in zip(pivots, pivots[1:]))
        inverse_check(Vt, Vi, m)
        assert smith_with_inverses(M, m)[:2] == (pivots, Vt)


class TestInvariantFactorGroup:
    def test_random_nonsingular(self):
        rng = random.Random(20031)
        tried = 0
        while tried < 150:
            n = rng.randint(1, 4)
            M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            det = _det(M)
            if det == 0:
                continue
            tried += 1
            # the relations are M's columns, the rows of its transpose
            Mt = [list(col) for col in zip(*M)]
            G, to, frm = invariant_factor_group(Mt, abs(det))
            assert G.order == abs(det)
            assert all(a % b == 0 for a, b in zip(G.factors, G.factors[1:]))
            assert_presents(Mt, G, to, frm)
            # the Smith form modulo det² agrees; its classes M v_j / d_j, in
            # this form's coordinates, are the images of an isomorphism
            G2, cols2 = dual_quotient(M, abs(det))
            assert G2 == G
            Mc2 = mat_mul_int(M, cols2)
            classes = [[x // d for x, d in zip(row, G.factors)] for row in Mc2]
            assert Hom(G, G, mat_mul_int(to, classes)).is_bijective()

    def test_trivial_and_cyclic(self):
        G, to, frm = invariant_factor_group([[1, 0], [0, 1]], 1)
        assert G == FinAbGroup(()) and to == [] and frm == [[], []]
        G, _, _ = invariant_factor_group([[2, 0], [0, 3]], 6)
        assert G.factors == (6,)

    def test_rejects_a_wrong_determinant(self):
        with pytest.raises(ValueError, match="determinant"):
            invariant_factor_group([[2, 0], [0, 3]], 12)

    def test_dense_6x6_in_a_fresh_process(self):
        """A dense matrix the integer Smith form never finished: within 10 s,
        presented by its columns, so to·M = 0 (mod the factor)."""
        M = [
            [2, 2, -4, -2, -9, -7],
            [-6, -7, -9, -8, -9, 2],
            [-1, -5, -4, -4, 7, -9],
            [3, 9, -8, -2, -5, -8],
            [-9, 2, -6, 0, 1, 6],
            [-9, 0, 5, 8, -8, -1],
        ]
        assert _det(M) == -105260
        Mt = [list(col) for col in zip(*M)]
        code = (
            "import json, sys; from modinv.abelian import invariant_factor_group; "
            "G, to, frm = invariant_factor_group(json.loads(sys.argv[1]), 105260); "
            "print(json.dumps([G.factors, to, frm]))"
        )
        src = str(Path(abelian.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code, json.dumps(Mt)],
            capture_output=True, text=True, timeout=10, check=True, env=env,
        )
        factors, to, frm = json.loads(out.stdout)
        G = FinAbGroup(factors)
        assert repr(G) == "Z105260"
        assert_presents(Mt, G, to, frm)


def determinantal_factors(M):
    """Invariant factors > 1, decreasing, from the determinantal divisors:
    D_k, the gcd of the k x k minors, is the product of the first k factors."""
    n = len(M)
    divisors = [1]
    for k in range(1, n + 1):
        divisors.append(
            gcd(
                *(
                    _det([[M[i][j] for j in cs] for i in rs])
                    for rs in itertools.combinations(range(n), k)
                    for cs in itertools.combinations(range(n), k)
                )
            )
        )
    factors = [b // a for a, b in zip(divisors, divisors[1:])]
    return tuple(sorted((f for f in factors if f > 1), reverse=True))


class TestDualQuotient:
    @given(square_matrices)
    @settings(max_examples=150, deadline=None)
    def test_factors_and_generators(self, M):
        """The factors of both entry points to the Smith kernel match the
        determinantal divisors, and ``invariant_factor_group``'s maps present
        the group."""
        det = _det(M)
        assume(det != 0)
        n = len(M)
        G, cols = dual_quotient(M, abs(det))
        assert G.factors == determinantal_factors(M)
        G2, to, frm = invariant_factor_group(M, abs(det))
        assert G2 == G
        assert_presents(M, G, to, frm)
        assert len(cols) == n and all(len(row) == G.rank for row in cols)
        assert all(0 <= row[j] < d for row in cols for j, d in enumerate(G.factors))
        # M v_j = 0 (mod d_j): v_j / d_j is a dual vector
        Mc = mat_mul_int(M, cols)
        assert all(row[j] % d == 0 for row in Mc for j, d in enumerate(G.factors))
        # the classes of M v_j / d_j and the columns of M span Z^n, so g maps
        # to sum_j g_j M v_j / d_j onto Z^n / M Z^n, a group of order |G|
        classes = [[Mc[r][j] // d for r in range(n)] for j, d in enumerate(G.factors)]
        H = hermite_rows([list(col) for col in zip(*M)] + classes, n)
        assert all(H[i][i] == 1 for i in range(n))

    def test_trivial_and_empty(self):
        assert dual_quotient([], 1) == (FinAbGroup(()), [])
        G, cols = dual_quotient([[2, -1], [-1, 1]], 1)
        assert G == FinAbGroup(()) and cols == [[], []]

    def test_rejects_a_wrong_determinant(self):
        with pytest.raises(ValueError, match="determinant"):
            dual_quotient([[2, 0], [0, 3]], 5)
        with pytest.raises(ValueError, match="positive"):
            dual_quotient([[1, 1], [1, 1]], 0)


def _det(M):
    """Integer determinant by Laplace expansion along the first row."""
    if len(M) == 1:
        return M[0][0]
    return sum(
        (-1) ** j * M[0][j] * _det([row[:j] + row[j + 1 :] for row in M[1:]])
        for j in range(len(M))
    )


class TestHermite:
    def test_full_lattice(self):
        H = hermite_rows([[1, 0], [0, 1]], 2)
        assert H == ((1, 0), (0, 1))

    def test_canonical_across_generating_sets(self):
        rows1 = [[2, 0], [0, 2], [4, 0], [0, 4]]
        rows2 = [[2, 2], [0, 2], [4, 0], [0, 4]]
        assert hermite_rows(rows1, 2) == hermite_rows(rows2, 2)

    def test_pivot_reduction(self):
        H = hermite_rows([[2, 7], [0, 3]], 2)
        assert H == ((2, 1), (0, 3))


class TestGroup:
    def test_validation(self):
        FinAbGroup(())
        FinAbGroup((6,))
        FinAbGroup((4, 2))
        with pytest.raises(ValueError):
            FinAbGroup((2, 4))
        with pytest.raises(ValueError):
            FinAbGroup((1,))

    @pytest.mark.parametrize(
        "factors", [[2.5], [4, 1.5], ["2"], [None], [Fraction(5, 2)], None, 6]
    )
    def test_rejects_non_integral_factors(self, factors):
        with pytest.raises(ValueError, match="integers"):
            FinAbGroup(factors)

    def test_accepts_integral_floats_and_fractions(self):
        assert FinAbGroup([4.0, Fraction(2)]).factors == (4, 2)

    def test_arithmetic(self):
        G = FinAbGroup((4, 2))
        assert G.add((3, 1), (2, 1)) == (1, 0)
        assert G.neg((1, 1)) == (3, 1)
        assert G.sub((0, 0), (1, 1)) == (3, 1)
        assert G.scale(3, (2, 1)) == (2, 1)
        assert G.element_order((1, 0)) == 4
        assert G.element_order((2, 1)) == 2
        assert G.element_order(G.zero()) == 1
        assert G.order == 8
        assert G.exponent == 4

    def test_elements_match_oracle(self):
        G = FinAbGroup((4, 2))
        assert set(G.elements()) == set(group_elements([4, 2]))
        assert len(G.elements()) == 8

    def test_trivial(self):
        G = FinAbGroup(())
        assert G.order == 1
        assert G.elements() == [()]
        assert G.zero() == ()

    def test_product_renormalizes(self):
        assert FinAbGroup((2,)).times(FinAbGroup((3,))).factors == (6,)
        assert FinAbGroup((4,)).times(FinAbGroup((6,))).factors == (12, 2)

    def test_json(self):
        assert FinAbGroup((4, 2)).to_json() == {"factors": [4, 2]}


class TestCanonicalPresentation:
    @pytest.mark.parametrize(
        "raw,expect",
        [((2, 3), (6,)), ((4, 6), (12, 2)), ((2, 2), (2, 2)), ((), ()), ((1, 5), (5,))],
    )
    def test_invariant_factors(self, raw, expect):
        G, _, _ = canonical_presentation(raw)
        assert G.factors == expect

    @pytest.mark.parametrize("raw", [(2, 3), (4, 6), (2, 2, 2), (6, 10), (1, 4)])
    def test_maps_are_mutually_inverse_isos(self, raw):
        import itertools

        G, to_c, from_c = canonical_presentation(raw)
        raw_elems = list(itertools.product(*[range(f) for f in raw]))
        assert len(raw_elems) == G.order

        def to_canon(x):
            return tuple(
                sum(row[i] * x[i] for i in range(len(x))) % n
                for row, n in zip(to_c, G.factors)
            )

        def from_canon(y):
            return tuple(
                sum(from_c[r][j] * y[j] for j in range(len(y))) % raw[r]
                for r in range(len(raw))
            )

        images = {to_canon(x) for x in raw_elems}
        assert len(images) == G.order
        for x in raw_elems:
            assert from_canon(to_canon(x)) == x
        # homomorphism property on the raw side
        for x in raw_elems[:8]:
            for y in raw_elems[:8]:
                s = tuple((a + b) % f for a, b, f in zip(x, y, raw))
                assert to_canon(s) == G.add(to_canon(x), to_canon(y))


class TestSubgroup:
    def test_trivial_and_full(self):
        G = FinAbGroup((4, 2))
        assert trivial_subgroup(G).order == 1
        assert full_subgroup(G).order == 8
        assert full_subgroup(G).contains((3, 1))

    def test_canonical_equality(self):
        G = FinAbGroup((4, 2))
        H1 = Subgroup(G, [(2, 0), (0, 1)])
        H2 = Subgroup(G, [(2, 1), (0, 1)])
        assert H1 == H2
        assert hash(H1) == hash(H2)
        assert H1.order == 4

    def test_contains(self):
        G = FinAbGroup((4, 2))
        H = Subgroup(G, [(2, 1)])
        assert H.contains((2, 1))
        assert H.contains((0, 0))
        assert not H.contains((2, 0))
        assert not H.contains((1, 1))

    def test_elements_match_closure_oracle(self):
        G = FinAbGroup((4, 4))
        H = Subgroup(G, [(2, 1)])
        assert set(H.elements()) == subgroup_closure([4, 4], [(2, 1)])
        assert H.order == len(H.elements())

    @pytest.mark.parametrize(
        "factors,count",
        [
            ((2, 2), 5), ((6,), 4), ((3, 3), 6), ((4, 2), 8), ((5, 5), 8), ((12,), 6),
            ((3, 3, 3, 3), 212), ((2,) * 6, 2825), ((4, 4, 2, 2), 249),
        ],
    )
    def test_subgroup_counts(self, factors, count):
        G = FinAbGroup(factors)
        subs = all_subgroups(G)
        assert len(subs) == count

    @pytest.mark.parametrize(
        "factors", [(2, 2), (6,), (4, 2), (3, 3), (8,), (4, 4), (3, 3, 3), (2, 2, 2, 2)]
    )
    def test_subgroups_match_oracle_sets(self, factors):
        G = FinAbGroup(factors)
        ours = {frozenset(H.elements()) for H in all_subgroups(G)}
        assert ours == all_subgroup_sets(list(factors))

    def test_nothing_admissible_gives_trivial_only(self):
        G = FinAbGroup((4, 2))
        assert all_subgroups(G, lambda gens, g: False) == [Subgroup(G, [])]

    @pytest.mark.parametrize("factors", [(), (2,), (4, 2), (6, 3), (8, 4, 2)])
    def test_coset_representatives(self, factors):
        G = FinAbGroup(factors)
        for H in all_subgroups(G):
            reps = H.coset_representatives()
            assert len(reps) == G.order // H.order - 1
            assert not any(H.contains(g) for g in reps)
            assert all(not H.contains(G.sub(a, b)) for a in reps for b in reps if a != b)

    def test_order_divides(self):
        G = FinAbGroup((12, 2))
        for H in all_subgroups(G):
            assert G.order % H.order == 0

    def test_guard(self):
        with pytest.raises(GuardError):
            all_subgroups(FinAbGroup((2,) * 11))

    def test_json(self):
        G = FinAbGroup((4,))
        assert Subgroup(G, [(2,)]).to_json() == {
            "ambient": {"factors": [4]},
            "gens": [(2,)] and [[2]],
        }


# -- the element-set search against one HNF per candidate ---------------------------


def reference_all_subgroups(G, admissible=None):
    """The closure search with a ``Subgroup`` (one HNF) built for every
    candidate H + <g> and deduplicated by its lattice."""
    triv = trivial_subgroup(G)
    found = {triv.key(): triv}
    frontier = [triv]
    while frontier:
        nxt = []
        for H in frontier:
            gens = H.gens()
            for g in H.coset_representatives():
                if admissible is not None and not admissible(gens, g):
                    continue
                K = Subgroup(G, gens + [g])
                if K.key() not in found:
                    found[K.key()] = K
                    nxt.append(K)
        frontier = nxt
    return sorted(found.values(), key=lambda s: (s.order, s.lattice))


def invariant_factor_chains(limit, top=None):
    """Every invariant-factor tuple of a group of order at most ``limit``."""
    yield ()
    for n in range(2, limit + 1):
        if top is None or top % n == 0:
            for rest in invariant_factor_chains(limit // n, n):
                yield (n,) + rest


ORDER_64_GROUPS = [FinAbGroup(f) for f in invariant_factor_chains(64)]


def assert_same_search(ours, reference):
    assert [S.key() for S in ours] == [S.key() for S in reference]
    # the seeded element tuples are the ones the lattice generates
    assert [S.elements() for S in ours] == [R.elements() for R in reference]


def test_every_group_up_to_64_is_listed():
    # groups of order n = prod p^e: one per choice of a partition of each e
    partitions = [1, 1, 2, 3, 5, 7, 11]
    count = sum(prod(partitions[e] for e in factorize(n).values()) for n in range(1, 65))
    assert len(set(ORDER_64_GROUPS)) == len(ORDER_64_GROUPS) == count


@pytest.mark.parametrize("G", ORDER_64_GROUPS, ids=repr)
def test_all_subgroups_match_reference(G):
    assert_same_search(all_subgroups(G), reference_all_subgroups(G))


def test_cyclic_search_closes_once_per_pair_of_subgroups():
    """On Z_1024 a candidate is closed only when it generates a subgroup
    above H not found from H yet: one closure per pair H < K of the 11
    subgroups, where one per coset would be 2,036 from the trivial group's
    and its index-2 subgroup's cosets alone."""
    closed = []

    def count(gens, g):
        closed.append(g)
        return True

    assert len(all_subgroups(FinAbGroup((1024,)), count)) == 11
    assert len(closed) == 11 * 10 // 2


def test_found_subgroups_share_element_tuples():
    """Equal elements of different subgroups are one object, so a search's
    subgroups together hold at most |G| element tuples."""
    shared: dict = {}
    for S in all_subgroups(FinAbGroup((4, 4, 2))):
        for x in S.elements():
            assert shared.setdefault(x, x) is x
    assert len(shared) == 32


@pytest.mark.parametrize("desc", descriptors_up_to(16))
def test_pruned_searches_match_reference(monkeypatch, desc):
    """The predicates ``isotropic_subgroups`` and ``enum_z`` search with."""
    searched = []

    def both(G, admissible=None):
        ours = all_subgroups(G, admissible)
        assert_same_search(ours, reference_all_subgroups(G, admissible))
        searched.append(G.order)
        return ours

    monkeypatch.setattr(pointed, "all_subgroups", both)
    q, _ = indecomposable_form(desc)
    pointed.isotropic_subgroups(q)
    pointed.enum_z(q)
    pointed.enum_z(q, require_isotropy=False)
    n = q.group.order
    assert searched == [n, n * n, n * n]


class TestQuotient:
    def test_cyclic(self):
        G = FinAbGroup((4,))
        H = Subgroup(G, [(2,)])
        Q, proj, reps = quotient(G, H)
        assert Q.factors == (2,)
        assert len(reps) == 2
        assert proj.apply((2,)) == (0,)
        assert proj.apply((1,)) != (0,)

    def test_diagonal(self):
        G = FinAbGroup((2, 2))
        H = Subgroup(G, [(1, 1)])
        Q, proj, reps = quotient(G, H)
        assert Q.factors == (2,)
        assert proj.apply((1, 1)) == (0,)
        assert len({proj.apply(g) for g in G.elements()}) == 2

    def test_trivial_quotient(self):
        G = FinAbGroup((4, 2))
        Q, proj, reps = quotient(G, full_subgroup(G))
        assert Q.factors == ()
        assert reps == [G.zero()] or len(reps) == 1

    def test_by_trivial(self):
        G = FinAbGroup((4, 2))
        Q, proj, reps = quotient(G, trivial_subgroup(G))
        assert Q.order == 8
        assert len(reps) == 8
        assert len({proj.apply(g) for g in G.elements()}) == 8

    @pytest.mark.parametrize("factors", [(4, 2), (6,), (2, 2), (9, 3)])
    def test_order_and_kernel(self, factors):
        G = FinAbGroup(factors)
        for H in all_subgroups(G):
            Q, proj, reps = quotient(G, H)
            assert Q.order * H.order == G.order
            assert len(reps) == Q.order
            ker = {g for g in G.elements() if proj.apply(g) == Q.zero()}
            assert ker == set(H.elements())
            # projection is onto
            assert len({proj.apply(g) for g in G.elements()}) == Q.order


class TestHom:
    def test_well_defined_check(self):
        Z4, Z2 = FinAbGroup((4,)), FinAbGroup((2,))
        Hom(Z4, Z2, [[1]])
        with pytest.raises(ValueError):
            Hom(Z2, Z4, [[1]])
        Hom(Z2, Z4, [[2]])

    def test_apply_and_compose(self):
        Z4, Z2 = FinAbGroup((4,)), FinAbGroup((2,))
        f = Hom(Z4, Z2, [[1]])
        g = Hom(Z2, Z4, [[2]])
        assert f.apply((3,)) == (1,)
        gf = g.compose(f)
        assert gf.domain == Z4 and gf.codomain == Z4
        assert gf.apply((1,)) == (2,)
        assert Hom.identity(Z4).apply((3,)) == (3,)

    def test_compose_through_trivial_group(self):
        # the product has inner dimension 0: its shape comes from the outer groups
        Z1, Z2, Z3 = FinAbGroup(()), FinAbGroup((2,)), FinAbGroup((3,))
        zero = Hom(Z1, Z2, [[]]).compose(Hom(Z3, Z1, []))
        assert zero == Hom(Z3, Z2, [[0]])
        G = FinAbGroup((6, 2))
        assert Hom(Z1, G, [[], []]).compose(Hom(Z2, Z1, [])).matrix == ((0,), (0,))

    def test_hom_property(self):
        G = FinAbGroup((4, 2))
        H = FinAbGroup((8, 2))
        f = Hom(H, G, [[1, 0], [0, 1]])
        for a in H.elements():
            for b in H.elements():
                assert f.apply(H.add(a, b)) == G.add(f.apply(a), f.apply(b))

    @pytest.mark.parametrize(
        "dom,cod,M",
        [
            ((4,), (2,), [[1]]),
            ((4, 2), (4, 2), [[2, 2], [1, 1]]),
            ((6,), (6,), [[2]]),
            ((8, 4), (4, 2), [[1, 2], [1, 1]]),
        ],
    )
    def test_kernel_image_sizes(self, dom, cod, M):
        f = Hom(FinAbGroup(dom), FinAbGroup(cod), M)
        ker, img = hom_kernel_image(f)
        assert ker.order * img.order == f.domain.order
        brute_ker = {g for g in f.domain.elements() if f.apply(g) == f.codomain.zero()}
        assert set(ker.elements()) == brute_ker
        brute_img = {f.apply(g) for g in f.domain.elements()}
        assert set(img.elements()) == brute_img


@st.composite
def congruences(draw):
    """A group of order at most 64 and up to three conditions, each constant
    on cosets of its relations: coefficient i is a multiple of e / gcd(e, n_i)."""
    G = draw(st.sampled_from(ORDER_64_GROUPS))
    moduli = draw(st.lists(st.integers(1, 12), max_size=3))
    rows = [
        [draw(st.integers(-3, 3)) * (e // gcd(e, n)) for n in G.factors] for e in moduli
    ]
    return G, rows, moduli


def assert_kernel_matches(G, rows, moduli):
    K = congruence_kernel(G, rows, moduli)
    brute = {
        g
        for g in G.elements()
        if all(
            sum(r[i] * g[i] for i in range(len(g))) % m == 0
            for r, m in zip(rows, moduli)
        )
    }
    assert set(K.elements()) == brute


class TestCongruenceKernel:
    @pytest.mark.parametrize(
        "factors,rows,moduli",
        [
            ((4, 2), [[1, 1]], [2]),
            ((6,), [[2]], [3]),
            ((4, 4), [[1, 2], [2, 0]], [4, 4]),
            ((9, 3), [[3, 3]], [9]),
        ],
    )
    def test_matches_brute_force(self, factors, rows, moduli):
        assert_kernel_matches(FinAbGroup(factors), rows, moduli)

    @given(congruences())
    @settings(max_examples=150, deadline=None)
    def test_random_matches_brute_force(self, drawn):
        assert_kernel_matches(*drawn)

    def test_no_conditions(self):
        G = FinAbGroup((4,))
        assert congruence_kernel(G, [], []).order == 4


class TestAutomorphisms:
    @pytest.mark.parametrize(
        "factors,count",
        [((3,), 2), ((2, 2), 6), ((4,), 2), ((4, 2), 8), ((6,), 2), ((3, 3), 48)],
    )
    def test_counts(self, factors, count):
        assert len(automorphisms(FinAbGroup(factors))) == count

    def test_endomorphism_count(self):
        # product of gcd(n_i, n_j) over all pairs
        G = FinAbGroup((4, 2))
        assert len(homs(G, G)) == 4 * 2 * 2 * 2

    def test_are_bijections(self):
        G = FinAbGroup((4, 2))
        for f in automorphisms(G):
            assert len({f.apply(g) for g in G.elements()}) == G.order

    def test_guard(self):
        G = FinAbGroup((2,) * 10)
        with pytest.raises(GuardError):
            homs(G, G)

    @pytest.mark.parametrize(
        "dom,cod",
        [((4, 2), (4, 2)), ((6,), (6,)), ((3, 3), (3, 3)), ((2, 2, 2), (2, 2, 2)),
         ((4,), (2, 2)), ((2, 2), (4,)), ((8,), (4, 2)), ((), ())],
    )
    def test_is_bijective_matches_the_kernel(self, dom, cod):
        """Basis images spanning the codomain agree with a trivial SNF kernel
        and with injectivity on the elements."""
        G, H = FinAbGroup(dom), FinAbGroup(cod)
        for f in homs(G, H):
            ker, _ = hom_kernel_image(f)
            injective = len({f.apply(g) for g in G.elements()}) == G.order
            assert f.is_bijective() == (ker.order == 1 and G.order == H.order) == injective


class TestCharacters:
    def test_count(self):
        G = FinAbGroup((4, 2))
        assert len(dual_characters(G)) == 8

    def test_phase_and_eval(self):
        G = FinAbGroup((4,))
        chi = Character(G, (1,))
        assert chi.phase((1,)) == Fraction(1, 4)
        assert chi.phase((3,)) == Fraction(3, 4)
        assert chi.eval((2,)).is_rational()
        assert close(chi.eval((1,)).approx(), cphase(Fraction(1, 4)))

    def test_orthogonality_exact(self):
        G = FinAbGroup((6,))
        chars = dual_characters(G)
        for c1 in chars:
            for c2 in chars:
                total = sum(
                    (c1.eval(g) * c2.eval(g).conj() for g in G.elements()),
                    start=c1.eval(G.zero()) * 0,
                )
                if c1 == c2:
                    assert total.as_rational() == 6
                else:
                    assert total.is_zero()

    def test_group_structure(self):
        G = FinAbGroup((4, 2))
        a = Character(G, (1, 1))
        b = Character(G, (3, 1))
        assert a.mul(b).exponents == (0, 0)
        assert a.inverse().exponents == (3, 1)
        assert a.order() == 4

    def test_kernel(self):
        G = FinAbGroup((4, 2))
        chi = Character(G, (2, 1))
        brute = {g for g in G.elements() if chi.phase(g) == 0}
        assert set(chi.kernel().elements()) == brute
        assert chi.kernel().order * 2 == G.order

    def test_separates_points(self):
        G = FinAbGroup((6, 2))
        for g in G.elements():
            if g != G.zero():
                assert any(chi.phase(g) != 0 for chi in dual_characters(G))


# -- malformed input to the constructors -------------------------------------------

Z4 = FinAbGroup((4,))
MALFORMED = {
    "hom-non-integer": (lambda: Hom(Z4, Z4, [[1.5]]), "integers"),
    "hom-long-row": (lambda: Hom(Z4, Z4, [[1, 2]]), "rows of 1"),
    "hom-empty-row": (lambda: Hom(Z4, Z4, [[]]), "rows of 1"),
    "hom-extra-row": (lambda: Hom(Z4, Z4, [[1], [1]]), "1 rows"),
    "hom-no-rows": (lambda: Hom(Z4, Z4, []), "1 rows"),
    "character-non-integer": (lambda: Character(Z4, [2.7]), "integers"),
    "character-short": (lambda: Character(FinAbGroup((4, 2)), [1]), "rows of 2"),
    "subgroup-long-generator": (lambda: Subgroup(Z4, [(1, 2, 3)]), "rows of 1"),
    "subgroup-non-integer": (lambda: Subgroup(Z4, [(1.5,)]), "integers"),
    "kernel-short-row": (lambda: congruence_kernel(FinAbGroup((4, 2)), [[2]], [4]), "rows of 2"),
    "kernel-few-moduli": (lambda: congruence_kernel(Z4, [[2], [1]], [4]), "one modulus"),
    "kernel-zero-modulus": (lambda: congruence_kernel(Z4, [[2]], [0]), "one modulus"),
    "kernel-non-integer": (lambda: congruence_kernel(Z4, [[0.5]], [2]), "integers"),
    "dual-quotient-ragged": (lambda: dual_quotient([[1, 2], [3]], 1), "rows of 2"),
    "dual-quotient-non-square": (lambda: dual_quotient([[1, 2, 3], [3, 4, 5]], 2), "rows of 2"),
    "smith-ragged": (lambda: invariant_factor_group([[1, 2], [3, 4, 5]], 2), "rows of 2"),
    "presentation-zero-factor": (lambda: canonical_presentation([0, 2]), "nonsingular"),
}


@pytest.mark.parametrize("build,match", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_rejected(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_integral_input_accepted():
    assert Hom(Z4, Z4, [[Fraction(5)]]).matrix == ((1,),)
    assert Character(Z4, [-2.0]).exponents == (2,)
    assert Subgroup(Z4, [(2.0,)]) == Subgroup(Z4, [(2,)])
