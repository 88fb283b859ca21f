"""Tambara-Yamagami categories over a finite abelian group with a pairing.

A datum here is a finite abelian group together with a nondegenerate
symmetric pairing and a sign.  From it the module builds the fusion ring
with one non-invertible simple, the associator table with an exhaustive
pentagon checker, exact modular data for the center construction and for
the parity equivariantization, module-category annular matrices, the
transport of pointed invariants through the branching rules, and the
grafted near-group fusion ring.

All scalar output is exact cyclotomic arithmetic; nothing here is floating
point except the Perron eigenvalue helper on fusion rings.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import isqrt

from .abelian import FinAbGroup, GuardError, Subgroup, mat_mul_int, quotient, subgroup_group
from .forms import (
    AlternatingPairing,
    Pairing,
    QuadraticForm,
    _block_generators,
    _parse_descriptor,
    forms_for_pairing,
    gauss_sum,
    standard_pairing,
)
from .modular import ModularData, ModularInvariant, check_primaries, simple_currents
from .pointed import PointedData, weil
from .scalars import Cyclotomic, as_integer, root_of_unity, sqrt_nonneg_int
from .simple_current import make_epsilon, sc_matrix

HG_LABEL_GUARD = 100  # most labels ``hg_fusion`` builds: nu = 9 has 84, nu = 11 has 124


class TYData:
    """Group with a nondegenerate symmetric pairing and a sign choice."""

    __slots__ = ("G", "pairing", "sign")

    def __init__(self, G: FinAbGroup, pairing: Pairing, sign: int):
        if pairing.left is not G and pairing.left != G:
            raise ValueError("pairing must live on the given group")
        if not pairing.is_symmetric():
            raise ValueError("pairing must be symmetric")
        if not pairing.is_nondegenerate():
            raise ValueError("pairing must be nondegenerate")
        self.G = G
        self.pairing = pairing
        self.sign = _sign(sign)


def _sign(sign) -> int:
    """sign as the ``int`` +1 or -1; ``ValueError`` for anything else."""
    sign = as_integer(sign, "sign must be +1 or -1")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return sign


# -- fusion rings --------------------------------------------------------------


class FusionRing:
    """Based ring with nonnegative integer structure constants."""

    __slots__ = ("labels", "unit", "table", "_index")

    def __init__(self, labels, unit, table):
        self.labels = list(labels)
        self.unit = unit
        self.table = table
        self._index = {la: k for k, la in enumerate(self.labels)}

    def product(self, a, b) -> dict:
        return dict(self.table[(a, b)])

    def is_commutative(self) -> bool:
        return all(
            self.table[(a, b)] == self.table[(b, a)]
            for a in self.labels
            for b in self.labels
        )

    def is_associative(self) -> bool:
        return self.first_associativity_failure() is None

    def first_associativity_failure(self):
        for a in self.labels:
            for b in self.labels:
                ab = self.table[(a, b)]
                for c in self.labels:
                    left: dict = {}
                    for m, k in ab.items():
                        for t, k2 in self.table[(m, c)].items():
                            left[t] = left.get(t, 0) + k * k2
                    right: dict = {}
                    for m, k in self.table[(b, c)].items():
                        for t, k2 in self.table[(a, m)].items():
                            right[t] = right.get(t, 0) + k * k2
                    left = {t: k for t, k in left.items() if k}
                    right = {t: k for t, k in right.items() if k}
                    if left != right:
                        return (a, b, c, left, right)
        return None

    def has_nonnegative_constants(self) -> bool:
        return all(
            k >= 0 for out in self.table.values() for k in out.values()
        )

    def perron_dimension(self, label) -> float:
        """Largest eigenvalue of the multiplication matrix, by power iteration.

        Iterates on the matrix plus the identity so that bipartite action
        patterns still converge, then shifts the estimate back.
        """
        n = len(self.labels)
        M = [[0.0] * n for _ in range(n)]
        for a, la in enumerate(self.labels):
            out = self.table[(label, la)]
            for lc, k in out.items():
                M[a][self._index[lc]] = float(k)
        for i in range(n):
            M[i][i] += 1.0
        v = [1.0] * n
        est = 1.0
        for _ in range(300):
            w = [sum(M[i][j] * v[j] for j in range(n)) for i in range(n)]
            norm = max(abs(x) for x in w)
            if norm == 0.0:
                return 0.0
            v = [x / norm for x in w]
            est = norm
        return est - 1.0


def ty_fusion(G: FinAbGroup) -> FusionRing:
    """Fusion ring on the invertibles of G plus one self-dual simple.

    The non-invertible simple absorbs every invertible and squares to the
    sum of all of them.
    """
    els = G.elements()
    labels = [("inv", g) for g in els] + [("root",)]
    root = ("root",)
    table = {}
    for g in els:
        for h in els:
            table[(("inv", g), ("inv", h))] = {("inv", G.add(g, h)): 1}
        table[(("inv", g), root)] = {root: 1}
        table[(root, ("inv", g))] = {root: 1}
    table[(root, root)] = {("inv", g): 1 for g in els}
    return FusionRing(labels, ("inv", G.zero()), table)


# -- associators and the pentagon ---------------------------------------------


def ty_associator(data: TYData) -> dict:
    """Associator components in the path basis, keyed by ordered triples.

    Entry format: table[(X, Y, Z)][(total, left_mid, right_mid)] is the
    scalar relating the two parenthesizations, where left_mid runs over
    X*Y and right_mid over Y*Z.  Components not forced away from 1 by the
    pairing or the sign are stored explicitly as 1.
    """
    G = data.G
    fus = ty_fusion(G)
    pair = data.pairing
    inv_rt = sqrt_nonneg_int(G.order) / G.order
    table: dict = {}
    for X in fus.labels:
        for Y in fus.labels:
            for Z in fus.labels:
                comp: dict = {}
                for p in fus.product(X, Y):
                    for t in fus.product(p, Z):
                        for m in fus.product(Y, Z):
                            if t not in fus.product(X, m):
                                continue
                            if X[0] == "inv" and Y[0] == "root" and Z[0] == "inv":
                                val = pair.eval(X[1], Z[1])
                            elif X[0] == "root" and Y[0] == "inv" and Z[0] == "root":
                                val = pair.eval(Y[1], t[1])
                            elif X[0] == "root" and Y[0] == "root" and Z[0] == "root":
                                val = (
                                    pair.eval(p[1], m[1]).conj()
                                    * inv_rt
                                    * Fraction(data.sign)
                                )
                            else:
                                val = Cyclotomic.one()
                            comp[(t, p, m)] = val
                table[(X, Y, Z)] = comp
    return table


def pentagon_check(fusion: FusionRing, associators: dict):
    """Exhaustively verify the pentagon equation over all ordered quadruples.

    Write F(X, Y, Z)[t, p, m] for associators[(X, Y, Z)][(t, p, m)].  For
    every quadruple (X, Y, Z, W), every source path p in XY, q in pZ, r in
    qW and every target path n in ZW, w in Yn with r in Xw, the pentagon
    equation reads

        sum over m in YZ with q in Xm and w in mW of
            F(X, Y, Z)[q, p, m] * F(X, m, W)[r, q, w] * F(Y, Z, W)[w, m, n]
        = F(p, Z, W)[r, q, n] * F(X, Y, n)[r, p, w]   (0 unless r in pn).

    Returns (True, None) on success, else (False, witness) for the first
    failure, with witness (quadruple, (p, q, r), (n, w, r), lhs, rhs).
    """
    table = fusion.table
    if any(k > 1 for out in table.values() for k in out.values()):
        raise ValueError("pentagon path basis requires multiplicity-free fusion")
    F = associators
    zero = Cyclotomic.zero()
    for X, Y, Z, W in product(fusion.labels, repeat=4):
        sources = (
            (p, q, r) for p in table[(X, Y)] for q in table[(p, Z)] for r in table[(q, W)]
        )
        for p, q, r in sources:
            targets = (
                (n, w) for n in table[(Z, W)] for w in table[(Y, n)] if r in table[(X, w)]
            )
            for n, w in targets:
                terms = (
                    F[(X, Y, Z)][(q, p, m)] * F[(X, m, W)][(r, q, w)] * F[(Y, Z, W)][(w, m, n)]
                    for m in table[(Y, Z)]
                    if q in table[(X, m)] and w in table[(m, W)]
                )
                lhs = sum(terms, zero)
                rhs = zero
                if r in table[(p, n)]:
                    rhs = F[(p, Z, W)][(r, q, n)] * F[(X, Y, n)][(r, p, w)]
                if lhs != rhs:
                    return False, ((X, Y, Z, W), (p, q, r), (n, w, r), lhs, rhs)
    return True, None


# -- square-root conventions ---------------------------------------------------


def _half_phase(k: int, den: int) -> Cyclotomic:
    """e^(pi i r) for the representative r in [0, 1) of k / den mod 1."""
    return root_of_unity(2 * den, k % den)


def _anchor(q: QuadraticForm, sign: int) -> int:
    """Numerator over 8 of the anchor phase -signature / 8 (+ 1/2 for sign -1)."""
    return (4 * (sign != 1) - q.signature()) % 8


class SqrtConvention:
    """Chosen square roots of the form values and of the anchor unit.

    root[g] squares to the form value at g; inv_anchor squares to the
    inverse of (sign times the cube of the 24th-root normalization), the
    8th root of unity with numerator -``_anchor(q, sign)``.
    """

    __slots__ = ("q", "sign", "root", "inv_anchor")

    def __init__(self, q: QuadraticForm, sign: int, root: dict, inv_anchor: Cyclotomic):
        sign = _sign(sign)
        for g in q.group.elements():
            if root[g] * root[g] != q.eval(g):
                raise ValueError(f"root at {g} does not square to the form value")
        target = root_of_unity(8, -_anchor(q, sign))
        if inv_anchor * inv_anchor != target:
            raise ValueError("anchor root does not square to the anchor unit")
        self.q = q
        self.sign = sign
        self.root = dict(root)
        self.inv_anchor = inv_anchor

    @classmethod
    def canonical(cls, q: QuadraticForm, sign: int) -> "SqrtConvention":
        """Half the canonical phase in [0, 1) for every square root."""
        root = {g: _half_phase(k, q.den) for g, k in q.num.items()}
        return cls(q, sign, root, _half_phase(-_anchor(q, sign), 8))

    @classmethod
    def fusion_faithful(cls, q: QuadraticForm, sign: int) -> "SqrtConvention":
        """Root signs aligned so index arithmetic matches the fusion ring.

        Only defined for groups of odd order, where halving is invertible.
        """
        G = q.group
        if G.exponent % 2 == 0:
            raise ValueError("faithful roots need a group of odd order")
        P = q.polarization()
        inv2 = pow(2, -1, G.exponent) if G.exponent > 1 else 1
        root = {}
        for h in G.elements():
            g = G.scale(inv2, h)
            # tau = 1 exactly when b(g, g) + q(h) / 2 = 0 mod 1; P.den = q.den for odd order
            tau = -1 if (2 * P.dot(g, g) + q.num[h]) % (2 * q.den) else 1
            root[h] = _half_phase(q.num[h], q.den) * tau
        return cls(q, sign, root, _half_phase(-_anchor(q, sign), 8))

    def flip(self, g) -> "SqrtConvention":
        """The convention with the root at g negated; g an element of the group."""
        root = dict(self.root)
        try:
            root[g] = root[g] * Fraction(-1)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"{g!r} is not an element of the form's group") from exc
        return SqrtConvention(self.q, self.sign, root, self.inv_anchor)

    def anchor_flipped(self) -> "SqrtConvention":
        return SqrtConvention(
            self.q, self.sign, self.root, self.inv_anchor * Fraction(-1)
        )


# -- modular data for the center construction ----------------------------------


def shifted_pair_sum(q: QuadraticForm, a) -> Cyclotomic:
    """Sum of the pairing phases at (l - a, l) over the whole group."""
    G = q.group
    P = q.polarization()
    a = G.reduce(a)
    return Cyclotomic(P.den, Counter(P.dot(G.sub(l, a), l) for l in G.elements()))


def shifted_pair_sum_closed(descriptor: str, a: int) -> Cyclotomic:
    """Closed form of the shifted sum for a single indecomposable factor.

    Supports the odd prime-power types "p^k_s" and the cyclic two-power
    types "2^k_m".  Raises ValueError for anything else.
    """
    p, k, sub, n = _parse_descriptor(descriptor)
    if sub in ("i", "ii"):
        raise ValueError("descriptor is not a single cyclic factor")
    G, _, polar = _block_generators(p, k, sub)
    P = Pairing.from_numerators(G, G, polar)
    a = as_integer(a, "shift must be an integer") % n
    if p % 2 == 1:
        inv2 = pow(2, -1, n)
        eps_inv = root_of_unity(8, (n - 1) % 8)
        return (
            eps_inv
            * Fraction(sub**k)
            * root_of_unity(P.den, -P.dot((a * inv2,), (a * inv2,)))
            * sqrt_nonneg_int(n)
        )
    if k == 1:
        if a % 2 == 1:
            return Cyclotomic.from_rational(Fraction(2))
        return Cyclotomic.zero()
    if a % 2 == 1:
        return Cyclotomic.zero()
    eps = Cyclotomic.one() if sub % 4 == 1 else root_of_unity(4, 1)
    jac = 1 if abs(sub) == 1 else -1
    one_minus_i = Cyclotomic.one() + root_of_unity(4, 3)
    return (
        one_minus_i
        * eps
        * sqrt_nonneg_int(n)
        * Fraction(jac**k)
        * root_of_unity(P.den, -P.dot((a // 2,), (a // 2,)))
    )


def ty_double(data: TYData, q: QuadraticForm, conv: SqrtConvention | None = None) -> ModularData:
    """Modular data of the center construction for the given datum.

    The form must polarize to the datum's pairing; the convention fixes
    every square root appearing in the matrix entries.  The simples are
    ("one", g, i) and ("root", g, i) for g in G and i in {0, 1}, then
    ("two", g, h) for g before h in ``G.elements()``.  With n = |G|, b the
    pairing as a root of unity and dot(g, h) its integer numerator, t =
    (-1)^i on a one or root label (t' on the second label), r_g the
    convention's root of q(g), c its inverse anchor root and s(a) the
    shifted pair sum at a, S has the blocks below, each keyed by the
    integers that determine it.  The first label carries g, the second h,
    or (h, h') for a two; in two-two they are (g, h) and (g', h').

        one-one    conj b(g, h)^2 / 2n                 key dot(g, h),
        one-root   t conj b(g, h) / 2 sqrt(n)          key dot(g, h) and t,
        one-two    conj b(g, h + h') / n               key dot(g, h + h'),
        root-two   0,
        two-two    conj(b(g, h') b(h, g') + b(g, g') b(h, h')) / n
                                                       key the four dots,
        root-root  t t' c^2 s(g + h) / (2n r_g r_h)    key (g, h, t t').

    T is b(g, g) on ("one", g, i), b(g, h) on ("two", g, h) and t c / r_g
    on ("root", g, i).  Each distinct entry is built once, and c^2 s(a) and
    1 / r_g once per group element.

    S is symmetric.  ``TYData`` requires a symmetric pairing, so the
    one-one and two-two keys do not change when the two labels swap (the
    two-two sum only swaps the factors of each product); root-root depends
    on g + h and r_g r_h; and a mixed block is one formula of the unordered
    pair of labels.  So only the entries on and above the diagonal are
    built, and each entry below it is the same object as its transpose.
    Products and sums in Q[x]/(x^N - 1) commute exactly, so the stored
    order and terms of an entry do not depend on which label comes first.

    The primary count 2n + 2n + n(n - 1)/2 = n(n + 7)/2 is checked by
    ``check_primaries`` before anything is built.
    """
    G = data.G
    n = G.order
    check_primaries(n * (n + 7) // 2)
    if q.polarization().key() != data.pairing.key():
        raise ValueError("form does not polarize to the datum's pairing")
    if conv is None:
        conv = SqrtConvention.canonical(q, data.sign)
    if conv.q is not q and conv.q.key() != q.key():
        raise ValueError("convention was built for a different form")
    if conv.sign != data.sign:
        raise ValueError("convention was built for a different sign")
    P = q.polarization()
    den = P.den
    els = G.elements()
    pos = {g: k for k, g in enumerate(els)}
    dots = P.dot_table(den)
    inv_anchor = conv.inv_anchor
    inv_root = {g: conv.root[g].inverse() for g in els}
    labels = [("one", g, i) for g in els for i in (0, 1)]
    labels += [("root", g, i) for g in els for i in (0, 1)]
    labels += [("two", g, h) for gi, g in enumerate(els) for h in els[gi + 1:]]
    unit = labels.index(("one", G.zero(), 0))

    inv_rt_n = sqrt_nonneg_int(n) / n
    pref = inv_anchor * inv_anchor
    pref_gs = {a: pref * shifted_pair_sum(q, a) for a in els}
    zero = Cyclotomic.zero()

    def dot(g, h):
        return dots[g][pos[h]]

    @lru_cache(maxsize=None)
    def one_one(d):
        return root_of_unity(den, -2 * d) * Fraction(1, 2 * n)

    @lru_cache(maxsize=None)
    def one_root(d, sgn):
        return root_of_unity(den, -d) * inv_rt_n * Fraction(sgn, 2)

    @lru_cache(maxsize=None)
    def one_two(d):
        return root_of_unity(den, -d) * Fraction(1, n)

    @lru_cache(maxsize=None)
    def two_two(d1, d2, d3, d4):
        tot = root_of_unity(den, d1) * root_of_unity(den, d2)
        tot = tot + root_of_unity(den, d3) * root_of_unity(den, d4)
        return tot.conj() * Fraction(1, n)

    @lru_cache(maxsize=None)
    def root_pair(g, h):
        return pref_gs[G.add(g, h)] * inv_root[g] * inv_root[h]

    @lru_cache(maxsize=None)
    def root_root(g, h, sgn):
        return root_pair(g, h) * Fraction(sgn, 2 * n)

    def s_entry(la, lb):
        """S at (la, lb), la not after lb in ``labels``, so kinds come in order."""
        kinds, g, h = (la[0], lb[0]), la[1], lb[1]
        if kinds == ("one", "one"):
            return one_one(dot(g, h))
        if kinds == ("one", "root"):
            return one_root(dot(g, h), 1 - 2 * la[2])
        if kinds == ("one", "two"):
            return one_two((dot(g, h) + dot(g, lb[2])) % den)
        if kinds == ("root", "two"):
            return zero
        if kinds == ("two", "two"):
            h, gp, hp = la[2], lb[1], lb[2]
            return two_two(dot(g, hp), dot(h, gp), dot(g, gp), dot(h, hp))
        return root_root(g, h, 1 - 2 * ((la[2] + lb[2]) & 1))

    m = len(labels)
    S = [[None] * m for _ in range(m)]
    for i, la in enumerate(labels):
        row = S[i]
        for j in range(i, m):
            row[j] = S[j][i] = s_entry(la, labels[j])
    T = []
    for la in labels:
        if la[0] == "one":
            T.append(root_of_unity(den, dot(la[1], la[1])))
        elif la[0] == "two":
            T.append(root_of_unity(den, dot(la[1], la[2])))
        else:
            T.append(inv_anchor * inv_root[la[1]] * Fraction(1 - 2 * la[2]))
    return ModularData(labels, unit, S, T)


# -- the parity equivariantization ---------------------------------------------


class DegenerateData:
    """Certificate that the candidate matrix cannot be modular.

    Holds the labels, the attempted matrix, and a pair of indices of two
    rows that are equal entry for entry.
    """

    __slots__ = ("labels", "matrix", "duplicate")

    def __init__(self, labels, matrix, duplicate):
        self.labels = labels
        self.matrix = matrix
        self.duplicate = duplicate


def _plus_minus_classes(G: FinAbGroup):
    """(fixed points of negation, one representative per free pair)."""
    fixed = []
    reps = []
    seen = set()
    for g in G.elements():
        if G.neg(g) == g:
            fixed.append(g)
            continue
        if g in seen:
            continue
        seen.add(g)
        seen.add(G.neg(g))
        reps.append(min(g, G.neg(g)))
    return fixed, reps


def ty_equiv(data: TYData):
    """Modular data of the parity equivariantization, for odd group order.

    The simples are ("one", t) for odd order and ("one", h, t) over the
    fixed points h of negation for even order, then ("two", r) for one r
    in each pair {r, -r} with r != -r, then ("root", t), with t = +-1.
    With lam = 1/sqrt(4|G|) and b the pairing, S has the blocks

        one-one lam,  one-two 2 lam,  two-two 2 lam (b(r, s)^2 + b(r, s)^-2),
        root-two 0,  one-root t b(h, h)/2 (t/2 for odd order),
        root-root 0 for even order, t t' x^3 lam sign sum_g b(g, g) for odd,

    where x^3 inverts the normalized Gauss sum of a form q polarizing to b.
    Each distinct entry is built once: two-two by 2 dot(r, s) mod den, the
    integer numerator of b(r, s)^2, and one-two once.  The primary count is
    checked by ``check_primaries`` before any form, Gauss sum or entry.
    For even order the matrix is degenerate, and a DegenerateData
    certificate with the first pair of identical rows is returned instead.
    """
    G = data.G
    n = G.order
    fixed, reps = _plus_minus_classes(G)
    if n % 2 == 0:
        ones = [("one", h, t) for h in fixed for t in (1, -1)]
    else:
        ones = [("one", 1), ("one", -1)]
    labels = ones + [("two", r) for r in reps] + [("root", 1), ("root", -1)]
    check_primaries(len(labels))
    q = forms_for_pairing(data.pairing)[0]
    P = q.polarization()
    lam = sqrt_nonneg_int(4 * n) / (4 * n)
    two_lam = lam + lam

    if n % 2 == 0:
        pref = Cyclotomic.zero()

        def one_root(la):
            return P.eval(la[1], la[1]) * Fraction(la[2], 2)

    else:
        doubled = q.power(-2)  # g -> b(g, g)
        gs2, _, sig2 = gauss_sum(doubled)
        pref = (PointedData(q).x ** 3) * gs2 * lam * data.sign

        def one_root(la):
            return Cyclotomic.from_rational(Fraction(la[1], 2))

    @lru_cache(maxsize=None)
    def two_two(k):
        z = root_of_unity(P.den, k)
        return (z + z.conj()) * lam * 2

    def s_entry(la, lb):
        if la[0] > lb[0]:
            la, lb = lb, la
        kinds = (la[0], lb[0])
        if kinds == ("one", "one"):
            return lam
        if kinds == ("one", "two"):
            return two_lam
        if kinds == ("two", "two"):
            return two_two(2 * P.dot(la[1], lb[1]) % P.den)
        if kinds == ("one", "root"):
            return one_root(la)
        if kinds == ("root", "root"):
            return pref * Fraction(la[1] * lb[1])
        return Cyclotomic.zero()

    S = [[s_entry(la, lb) for lb in labels] for la in labels]
    if n % 2 == 0:
        rows = range(len(S))
        dup = next(((i, j) for i in rows for j in rows[i + 1 :] if S[i] == S[j]), None)
        return DegenerateData(labels, S, dup)
    u = root_of_unity(24, -sig2)
    inv_anchor = _half_phase(-_anchor(q, data.sign), 8)
    T = []
    for la in labels:
        if la[0] == "one":
            T.append(u)
        elif la[0] == "two":
            T.append(u * P.eval(la[1], la[1]))
        else:
            T.append(u * inv_anchor * Fraction(la[1]))
    return ModularData(labels, 0, S, T)


# -- module categories ---------------------------------------------------------


class NimRep:
    """Annular action matrices of the fusion ring on a module's simples."""

    __slots__ = ("labels", "matrices")

    def __init__(self, labels, matrices):
        self.labels = labels
        self.matrices = matrices


def ty_module_nimrep(data: TYData, H: Subgroup, psi: AlternatingPairing | None = None) -> NimRep:
    """Module-category action matrices for a subgroup with a twist.

    Simples split into character labels on the radical of the twist and
    coset labels; the non-invertible simple acts by a constant bipartite
    block whose entry is the square root of the twist's symplectic size.
    """
    G = data.G
    if H.ambient != G:
        raise ValueError("subgroup of a different group")
    J, embed_J, _ = subgroup_group(H)
    if psi is None:
        psi = AlternatingPairing(J, [[0] * J.rank for _ in range(J.rank)])
    if psi.left.factors != J.factors:
        raise ValueError("twist must live on the subgroup's presentation")
    R = psi.radical()
    Rab, embed_R, _ = subgroup_group(R)
    d2, rem = divmod(H.order, Rab.order)
    d = isqrt(d2)
    if rem or d * d != d2:
        raise ValueError("twist radical does not have symplectic index")
    sp, P = standard_pairing(Rab), data.pairing
    Q, proj, _ = quotient(G, H)

    xs = [("x", y) for y in Rab.elements()]
    cs = [("c", c) for c in Q.elements()]
    labels = xs + cs
    index = {la: k for k, la in enumerate(labels)}
    rgens = Rab.basis()

    def dual_shift(g):
        """Element of Rab pairing like the ambient pairing against g."""
        for y in Rab.elements():
            if all(
                sp.dot(y, r) * P.den == P.dot(G.neg(g), embed_J(embed_R(r))) * sp.den
                for r in rgens
            ):
                return y
        raise ValueError("pairing restriction is not a character of the radical")

    m = len(labels)
    matrices = {}
    for g in G.elements():
        M = [[0] * m for _ in range(m)]
        y_g = dual_shift(g)
        cg = proj.apply(g)
        for y in Rab.elements():
            M[index[("x", y)]][index[("x", Rab.add(y, y_g))]] = 1
        for c in Q.elements():
            M[index[("c", c)]][index[("c", Q.add(c, cg))]] = 1
        matrices[("inv", g)] = M
    M = [[0] * m for _ in range(m)]
    for la in xs:
        for lb in cs:
            M[index[la]][index[lb]] = d
            M[index[lb]][index[la]] = d
    matrices[("root",)] = M
    return NimRep(labels, matrices)


def equiv_invariant(data: TYData, q: QuadraticForm, H: Subgroup, psi=None) -> ModularInvariant:
    """Invariant of the parity equivariantization from a pointed parameter.

    The parameter (H, psi) selects an invariant of the pointed data for
    the doubled conjugate form; the branching rules transport it.  Odd
    group order only.
    """
    G = data.G
    if H.ambient != G:
        raise ValueError("subgroup of a different group")
    if G.order % 2 == 0:
        raise ValueError("transport needs a group of odd order")
    if q.polarization().key() != data.pairing.key():
        raise ValueError("form does not polarize to the datum's pairing")
    doubled = q.power(-2)
    md_w = weil(doubled)
    sc = simple_currents(md_w)
    row_of = {g: k for k, g in enumerate(md_w.labels)}
    gens = [sc.coords[row_of[h]] for h in H.gens()]
    Jsc = Subgroup(sc.group, gens)
    param = make_epsilon(md_w, Jsc, psi)
    Zw = sc_matrix(md_w, param).matrix

    md_e = ty_equiv(data)
    wl = md_w.labels
    widx = {g: k for k, g in enumerate(wl)}
    B = []
    for la in md_e.labels:
        row = [0] * len(wl)
        if la[0] == "one":
            row[widx[G.zero()]] = 1
        elif la[0] == "two":
            row[widx[la[1]]] += 1
            row[widx[G.neg(la[1])]] += 1
        B.append(row)
    M = mat_mul_int(mat_mul_int(B, Zw), list(zip(*B)))
    return ModularInvariant(M, {"source": "branching transport", "subgroup": H.key()})


# -- grafted near-group fusion -------------------------------------------------


def hg_fusion(nu: int) -> FusionRing:
    """Grafted fusion ring mixing a (nu x nu) grid with a (nu^2+4) cycle.

    Basis: the unit, a hub object whose square is the sum of everything,
    grid objects indexed by sign classes of the punctured nu-torus, and
    arc objects indexed by sign classes of the punctured cycle: nu^2 + 3
    labels in all.  The table holds a product for each pair of labels, so
    its size grows as nu^6; the label count is checked against
    HG_LABEL_GUARD before anything is built.
    """
    nu = as_integer(nu, "the grafting size must be an integer")
    if nu % 2 == 0 or nu < 1:
        raise ValueError("only odd grafting sizes are defined")
    if nu * nu + 3 > HG_LABEL_GUARD:
        raise GuardError(f"label count {nu * nu + 3} exceeds guard {HG_LABEL_GUARD}")
    m = nu * nu + 4

    def grep(v):
        a, b = v[0] % nu, v[1] % nu
        return min((a, b), ((-a) % nu, (-b) % nu))

    def arep(a):
        a %= m
        return min(a, (-a) % m)

    grids = sorted({grep((a, b)) for a in range(nu) for b in range(nu)} - {(0, 0)})
    arcs = sorted({arep(a) for a in range(1, m)})
    labels = [("one",), ("hub",)]
    labels += [("grid", r) for r in grids]
    labels += [("arc", a) for a in arcs]
    unit = ("one",)
    hub = ("hub",)

    def vec(*pairs):
        out: dict = {}
        for la, c in pairs:
            out[la] = out.get(la, 0) + c
        return out

    def madd(u, v, s=1):
        out = dict(u)
        for la, c in v.items():
            out[la] = out.get(la, 0) + s * c
        return {la: c for la, c in out.items() if c}

    full = {la: 1 for la in labels}
    rest = {la: 1 for la in labels if la != unit}

    def grid_term(v):
        r = grep(v)
        if r == (0, 0):
            return vec((unit, 1), (hub, 1))
        return vec((("grid", r), 1))

    def arc_term(a):
        r = arep(a)
        if r == 0:
            return vec((hub, 1), (unit, -1))
        return vec((("arc", r), 1))

    table = {}
    for la in labels:
        for lb in labels:
            if la == unit:
                table[(la, lb)] = vec((lb, 1))
            elif lb == unit:
                table[(la, lb)] = vec((la, 1))
            elif la == hub and lb == hub:
                table[(la, lb)] = dict(full)
            elif la == hub and lb[0] == "grid":
                table[(la, lb)] = madd(rest, vec((lb, 1)))
            elif lb == hub and la[0] == "grid":
                table[(la, lb)] = madd(rest, vec((la, 1)))
            elif la == hub and lb[0] == "arc":
                table[(la, lb)] = madd(rest, vec((lb, 1)), -1)
            elif lb == hub and la[0] == "arc":
                table[(la, lb)] = madd(rest, vec((la, 1)), -1)
            elif la[0] == "grid" and lb[0] == "grid":
                va, vb = la[1], lb[1]
                out = madd(rest, grid_term((va[0] + vb[0], va[1] + vb[1])))
                out = madd(out, grid_term((va[0] - vb[0], va[1] - vb[1])))
                table[(la, lb)] = out
            elif la[0] == "arc" and lb[0] == "arc":
                out = madd(rest, arc_term(la[1] + lb[1]), -1)
                out = madd(out, arc_term(la[1] - lb[1]), -1)
                table[(la, lb)] = out
            else:
                table[(la, lb)] = dict(rest)
    ring = FusionRing(labels, unit, table)
    if not ring.has_nonnegative_constants():
        raise ValueError("grafted ring has a negative structure constant")
    return ring
