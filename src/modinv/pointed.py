"""Pointed modular data from quadratic forms and its invariant parametrizations.

The same family of invariants is produced three ways: from current subgroups
with a discrete torsion choice, from pairs of isotropic subgroups joined by a
form-preserving isomorphism, and from self-dual subgroups of the square group.
Conversions between the pictures are exact and tested against each other.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .abelian import (
    SUBGROUP_GUARD,
    FinAbGroup,
    GuardError,
    Hom,
    Subgroup,
    all_subgroups,
    homs,
    product_with_maps,
    quotient,
    subgroup_group,
)
from .forms import Pairing, QuadraticForm, gauss_sum, isometries
from .modular import ModularData, ModularInvariant, check_primaries
from .scalars import Cyclotomic, phase_fraction, root_of_unity, sqrt_nonneg_int

QUOTIENT_GUARD = 64


class PointedData:
    """Nondegenerate quadratic form with a fixed 24th-root normalization."""

    __slots__ = ("group", "q", "x", "signature")

    def __init__(self, q: QuadraticForm, x: Cyclotomic | None = None):
        self.group = q.group
        self.q = q
        _, normalized, sigma = gauss_sum(q)
        self.signature = sigma
        if x is None:
            x = root_of_unity(24, -sigma)
        if not ((x**3) * normalized).is_one():
            raise ValueError("x^3 must invert the normalized Gauss sum")
        if not (x**24).is_one():
            raise ValueError("x must be a 24th root of unity")
        self.x = x


def weil(q: QuadraticForm, x: Cyclotomic | None = None) -> ModularData:
    """Modular data with S from the polarization phases and T from the form.

    One primary per element of the group, checked by ``check_primaries``
    before the Gauss sum."""
    check_primaries(q.group.order)
    data = PointedData(q, x)
    G = data.group
    labels = sorted(G.elements())
    unit = labels.index(G.zero())
    P = q.polarization()
    root = sqrt_nonneg_int(G.order) / G.order
    # one product per phase: S_gh = zeta_den^k / sqrt|G| with k = P.dot(g, h)
    entry = {k: root_of_unity(P.den, k) * root for k in range(P.den)}
    S = [[entry[P.dot(g, h)] for h in labels] for g in labels]
    T = [data.x * q.eval(g) for g in labels]
    return ModularData(labels, unit, S, T)


# -- isotropic subgroups and the two subgroup parametrizations ----------------


class IsotropicDatum:
    """Isotropic subgroup with its perp, quotient group, and induced form."""

    __slots__ = ("subgroup", "perp", "group", "form", "_to_q", "_lift")

    def __init__(self, q: QuadraticForm, D: Subgroup):
        G = q.group
        for d in D.elements():
            if q.num[d]:
                raise ValueError("subgroup is not isotropic for the form")
        P = q.polarization()
        perp = P.perp(D)
        if not all(perp.contains(d) for d in D.gens()):
            raise ValueError("isotropic subgroup must lie in its own perp")
        J, embed, section = subgroup_group(perp)
        inner = Subgroup(J, [section(d) for d in D.gens()])
        Q, proj, reps = quotient(J, inner)
        rep_of = dict(zip(sorted(Q.elements()), reps))
        table = {}
        lift = {}
        for y in Q.elements():
            g = embed(rep_of[y])
            lift[y] = g
            k = q.num[g]
            if any(q.num[G.add(g, d)] != k for d in D.elements()):
                raise ValueError("form is not constant on the cosets")
            table[y] = Fraction(k, q.den)
        self.subgroup = D
        self.perp = perp
        self.group = Q
        self.form = QuadraticForm(Q, table)
        self._to_q = (section, proj)
        self._lift = lift

    def to_quotient(self, g):
        """Quotient coordinates of an element of the perp."""
        section, proj = self._to_q
        return proj.apply(section(g))

    def lift(self, y):
        """Chosen ambient representative of a quotient element."""
        return self._lift[y]


def isotropic_subgroups(q: QuadraticForm) -> list[IsotropicDatum]:
    """All subgroups on which the form vanishes, with induced quotient data.

    The search adds only g with q(g) = 0 orthogonal to the subgroup so far.
    """
    P = q.polarization()

    def admissible(gens, g):
        return not q.num[g] and not any(P.dot(g, h) for h in gens)

    return [IsotropicDatum(q, D) for D in all_subgroups(q.group, admissible)]


class DPMParam:
    """Pair of isotropic subgroups joined by a form-preserving isomorphism."""

    __slots__ = ("plus", "minus", "sigma")

    def __init__(self, plus: IsotropicDatum, minus: IsotropicDatum, sigma: Hom):
        if sigma.domain != plus.group or sigma.codomain != minus.group:
            raise ValueError("isomorphism does not match the quotients")
        if not sigma.is_bijective():
            raise ValueError("sigma must be an isomorphism")
        for k in plus.group.elements():
            if minus.form.num[sigma.apply(k)] != plus.form.num[k]:
                raise ValueError("sigma must preserve the induced form")
        self.plus = plus
        self.minus = minus
        self.sigma = sigma

    def key(self):
        return (self.plus.subgroup.key(), self.minus.subgroup.key(), self.sigma.matrix)


def enum_dpm(q: QuadraticForm) -> list[DPMParam]:
    """All isotropic-pair parameters: each pair of isotropic data joined by
    each isometry of the plus quotient form onto the minus one.

    A degenerate form is refused with ``ValueError`` before any search."""
    # the trivial subgroup's quotient is all of G, the largest of them
    if q.group.order > QUOTIENT_GUARD:
        raise GuardError(
            f"isotropic quotient of order {q.group.order} exceeds guard {QUOTIENT_GUARD}"
        )
    _nondegenerate_square(q)
    data = isotropic_subgroups(q)
    out = []
    for plus in data:
        for minus in data:
            for sigma in isometries(plus.form, minus.form):
                out.append(DPMParam(plus, minus, sigma))
    return out


class SquareGroup:
    """The square group G + G of a form on G, built once per form.

    ``pair`` and ``split`` are the coordinate maps of ``product_with_maps``
    as table lookups on tuples, each entry computed on its first use.
    ``pairing`` is B = b + (-b), b the polarization of q, and ``radical`` the
    order of b's radical (B's radical is its square).
    """

    __slots__ = ("group", "pair", "split", "pairing", "radical")

    def __init__(self, q: QuadraticForm):
        G = q.group
        square, pair, split = product_with_maps(G, G)
        self.group = square
        self.pair = lru_cache(maxsize=None)(pair)
        self.split = lru_cache(maxsize=None)(split)
        P = q.polarization()
        gens = [split(e) for e in square.basis()]
        matrix = [[P.dot(ga, gb) - P.dot(ha, hb) for (gb, hb) in gens] for (ga, ha) in gens]
        self.pairing = Pairing.from_numerators(square, square, matrix)
        self.radical = P.radical().order

    def is_self_dual(self, Z: Subgroup) -> bool:
        """Whether Z equals its perp under ``pairing``.

        Where b is nondegenerate and |Z| = |G|, that holds exactly when the
        generators of Z are pairwise B-orthogonal, each with itself too: then
        Z lies in its perp, whose order is |G|^2 / |Z| = |Z|.  Elsewhere the
        perp is computed (an SNF).
        """
        B = self.pairing
        if Z.ambient != self.group:
            raise ValueError("subgroup of the wrong group")
        if self.radical == 1 and Z.order * Z.order == self.group.order:
            gens = Z.gens()
            return not any(B.dot(g, h) for i, g in enumerate(gens) for h in gens[i:])
        return B.perp(Z) == Z


def square_context(q: QuadraticForm) -> SquareGroup:
    """The form's ``SquareGroup``, built on first use and kept on the form."""
    if q._square is None:
        q._square = SquareGroup(q)
    return q._square


def _nondegenerate_square(q: QuadraticForm) -> SquareGroup:
    """``square_context(q)``; ``ValueError`` naming the radical if q is degenerate."""
    sq = square_context(q)
    if sq.radical > 1:
        raise ValueError(f"form is degenerate: its radical has order {sq.radical}")
    return sq


class ZParam:
    """Self-dual subgroup of the square group, optionally form-isotropic."""

    __slots__ = ("q", "square", "pair", "split", "Z", "isotropic")

    def __init__(self, q: QuadraticForm, Z: Subgroup):
        """Z is a subgroup of ``square_context(q).group``; self-duality under
        its pairing is decided by ``SquareGroup.is_self_dual``."""
        sq = square_context(q)
        self.q = q
        self.square = sq.group
        self.pair = sq.pair
        self.split = split = sq.split
        self.Z = Z
        if Z.order != q.group.order:
            raise ValueError("self-dual subgroup must have the ambient order")
        if not sq.is_self_dual(Z):
            raise ValueError("subgroup is not self-dual")
        self.isotropic = all(
            q.num[g] == q.num[h]
            for g, h in (split(z) for z in Z.elements())
        )

    def key(self):
        return self.Z.key()


def square_group(q: QuadraticForm):
    """The product of the underlying group with itself, with coordinate maps."""
    sq = square_context(q)
    return sq.group, sq.pair, sq.split


def square_pairing(q: QuadraticForm) -> Pairing:
    """Pairing on the square group: first factor minus second factor."""
    return square_context(q).pairing


def enum_z(q: QuadraticForm, require_isotropy: bool = True) -> list[ZParam]:
    """All self-dual subgroups of the square group, optionally isotropic.

    The search adds only g = (x, y) orthogonal under ``square_pairing`` to
    the subgroup so far, with q(x) = q(y) (isotropy for q + (-q), looked up in
    a table of those g built once) or, without ``require_isotropy``,
    b(g, g) = 0.  By the contract of ``all_subgroups`` every subgroup found
    is then self-orthogonal, and isotropic where isotropy is required; under
    the nondegenerate pairing those of order |G| are self-dual (``ZParam``
    checks it again, and raises if the contract breaks).  Each
    generator h's column num·h of the pairing is formed once for the whole
    search, so b(g, h) is one dot product per candidate g.  The square
    group's order is checked against SUBGROUP_GUARD, and a degenerate form
    refused with ``ValueError``, before any search.
    """
    order = q.group.order
    if order * order > SUBGROUP_GUARD:
        raise GuardError(f"square group of order {order * order} exceeds guard {SUBGROUP_GUARD}")
    sq = _nondegenerate_square(q)
    square, pair, B = sq.group, sq.pair, sq.pairing
    if require_isotropy:
        level: dict = {}
        for x in q.group.elements():
            level.setdefault(q.num[x], []).append(x)
        iso = {pair(x, y) for xs in level.values() for x in xs for y in xs}

    num, den = B.num, B.den
    columns: dict = {}  # h -> num·h, for each generator h met in the search

    def column(h):
        col = columns.get(h)
        if col is None:
            col = columns[h] = tuple(sum(x * hj for x, hj in zip(row, h)) for row in num)
        return col

    def admissible(gens, g):
        if require_isotropy:
            if g not in iso:
                return False
        elif B.dot(g, g):
            return False
        return not any(sum(gi * c for gi, c in zip(g, column(h))) % den for h in gens)

    return [ZParam(q, Z) for Z in all_subgroups(square, admissible) if Z.order == order]


def z_to_matrix(z: ZParam) -> ModularInvariant:
    return ModularInvariant(_member_matrix(z), {"source": "z", "Z": z.Z.key()})


def _member_matrix(z: ZParam) -> list[list[int]]:
    """0/1 invariant matrix: entry 1 exactly at the member pairs."""
    index = {g: i for i, g in enumerate(sorted(z.q.group.elements()))}
    M = [[0] * len(index) for _ in index]
    for member in z.Z.elements():
        g, h = z.split(member)
        M[index[g]][index[h]] = 1
    return M


def dpm_to_z(q: QuadraticForm, dpm: DPMParam) -> ZParam:
    """Graph of sigma over the perp of the plus side, extended by the minus side."""
    G = q.group
    sq = square_context(q)
    gens = []
    for h in dpm.plus.perp.gens():
        img = dpm.sigma.apply(dpm.plus.to_quotient(h))
        gens.append(sq.pair(h, dpm.minus.lift(img)))
    for d in dpm.minus.subgroup.gens():
        gens.append(sq.pair(G.zero(), d))
    return ZParam(q, Subgroup(sq.group, gens))


def dpm_to_matrix(q: QuadraticForm, dpm: DPMParam) -> ModularInvariant:
    return ModularInvariant(_member_matrix(dpm_to_z(q, dpm)), {"source": "dpm"})


def form_from_pointed(md: ModularData) -> QuadraticForm:
    """Recover the quadratic form of pointed data from its twist ratios."""
    labels = md.labels
    if not labels or any(
        not isinstance(lab, tuple) or len(lab) != len(labels[0]) or any(type(x) is not int for x in lab)
        for lab in labels
    ):
        raise ValueError("pointed labels must be group element tuples")
    rank = len(labels[0])
    factors = tuple(max(lab[i] for lab in labels) + 1 for i in range(rank))
    G = FinAbGroup(factors)
    if sorted(G.elements()) != sorted(labels):
        raise ValueError("labels do not enumerate a finite abelian group")
    unit_tw = md.T[md.unit]
    table = {
        lab: phase_fraction(md.T[i] * unit_tw.conj()) for i, lab in enumerate(labels)
    }
    return QuadraticForm(G, table)


def jpsi_to_dpm(md: ModularData, param) -> DPMParam:
    """Isotropic-pair datum reproducing a current-subgroup invariant.

    The two isotropic subgroups are the images of the torsion form's left and
    right kernels, and the joining isomorphism sends a row class to the column
    class its charge condition selects.  Requires pointed data: every primary
    must be invertible.
    """
    sc = param.sc
    if len(sc.label_index) != md.dim:
        raise ValueError("conversion needs pointed data with invertible primaries")
    q = form_from_pointed(md)
    G = q.group

    elems = list(param.group.elements())
    emb = {y: md.labels[a] for y, a in zip(elems, param.currents.primaries)}
    eps = param.epsilon
    minus = IsotropicDatum(
        q, Subgroup(G, [emb[y] for y in eps.radical().gens()])
    )
    plus = IsotropicDatum(
        q, Subgroup(G, [emb[y] for y in eps.right_radical().gens()])
    )
    P = q.polarization()
    images = []
    for e in plus.group.basis():
        h = plus.lift(e)
        y = next(
            y
            for y in elems
            if all(eps.dot(y, z) * P.den == P.dot(h, emb[z]) * eps.den for z in elems)
        )
        images.append(minus.to_quotient(G.add(h, emb[y])))
    matrix = [
        [images[i][j] for i in range(len(images))]
        for j in range(minus.group.rank)
    ]
    sigma = Hom(plus.group, minus.group, matrix)
    return DPMParam(plus, minus, sigma)


# -- nimreps and induced boundary maps -----------------------------------------


def nimrep(G: FinAbGroup, J: Subgroup):
    """Permutation action of the group ring on cosets modulo the subgroup.

    Returns (coset representatives, {element: matrix}).
    """
    Q, proj, reps = quotient(G, J)
    labels = [proj.apply(r) for r in reps]
    index = {lab: i for i, lab in enumerate(labels)}
    mats = {}
    for g in sorted(G.elements()):
        M = [[0] * len(labels) for _ in labels]
        for c, r in enumerate(reps):
            M[index[proj.apply(G.add(g, r))]][c] = 1
        mats[g] = tuple(tuple(row) for row in M)
    return reps, mats


def alpha_induction(data: PointedData, dpm: DPMParam):
    """Boundary maps into cosets mod the minus subgroup and the plus perp.

    Returns (alpha_plus, alpha_minus, delta matrix); the maps are group
    homomorphisms written as {element: (coset, coset)} tables.
    """
    G = data.group
    Qm, projm, _ = quotient(G, dpm.minus.subgroup)
    Qp, projp, _ = quotient(G, dpm.plus.perp)
    targets = []
    gens = dpm.plus.perp.gens()
    for h in gens:
        img = dpm.sigma.apply(dpm.plus.to_quotient(h))
        targets.append(projm.apply(dpm.minus.lift(img)))
    ext = None
    for f in homs(G, Qm):
        if all(f.apply(h) == t for h, t in zip(gens, targets)):
            ext = f
            break
    if ext is None:
        raise ValueError("no homomorphic extension of sigma exists")
    labels = sorted(G.elements())
    alpha_plus = {g: (ext.apply(g), projp.apply(g)) for g in labels}
    alpha_minus = {g: (projm.apply(g), Qp.zero()) for g in labels}
    M = [
        [1 if alpha_plus[g] == alpha_minus[h] else 0 for h in labels]
        for g in labels
    ]
    return alpha_plus, alpha_minus, ModularInvariant(M, {"source": "alpha"})
