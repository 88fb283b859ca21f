"""Pairings and quadratic forms on finite abelian groups.

Pairings are stored by an exponent matrix of rationals mod 1; quadratic forms
by a full value table of rationals mod 1.  The polarization convention is
pair(g, h) = q(g) * q(h) * conj(q(g + h)), i.e. on exponents
B(g, h) = q(g) + q(h) - q(g + h).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm, prod

from .abelian import (
    HOM_GUARD,
    FinAbGroup,
    GuardError,
    Hom,
    Subgroup,
    congruence_kernel,
    full_subgroup,
    product_with_maps,
    Character,
)
from .scalars import (
    Cyclotomic,
    factorize,
    json_list,
    json_rational,
    rational_phase,
    root_of_unity,
    sqrt_nonneg_int,
)

PAIRING_GUARD = 10**6
DISCRIMINANT_GUARD = 10**5  # largest order of a tabulated form


def mod1(x) -> Fraction:
    return Fraction(x) % 1


class Pairing:
    """Bicharacter gamma: left x right -> roots of unity.

    gamma(g, h) = e^(2 pi i g^T E h) with E a matrix of rationals mod 1.
    """

    __slots__ = ("left", "right", "matrix")

    def __init__(self, left: FinAbGroup, right: FinAbGroup, matrix):
        self.left = left
        self.right = right
        E = tuple(
            tuple(mod1(matrix[i][j]) for j in range(right.rank))
            for i in range(left.rank)
        )
        for i, n in enumerate(left.factors):
            for j, m in enumerate(right.factors):
                if (n * E[i][j]).denominator != 1 or (E[i][j] * m).denominator != 1:
                    raise ValueError("entry denominators must divide both factor pairs")
        self.matrix = E

    @property
    def is_square(self) -> bool:
        return self.left == self.right

    def phase(self, g, h) -> Fraction:
        g = self.left.reduce(g)
        h = self.right.reduce(h)
        total = Fraction(0)
        for i, gi in enumerate(g):
            if gi:
                row = self.matrix[i]
                total += gi * sum(row[j] * h[j] for j in range(len(h)) if h[j])
        return mod1(total)

    def eval(self, g, h) -> Cyclotomic:
        return rational_phase(self.phase(g, h))

    def phase_table(self) -> dict:
        """{g: (phase(g, h) for h in right.elements())} for every g of left,
        from integer dot products: phase(g, h) = (g^T (d E) h mod d) / d."""
        d = lcm(1, *(x.denominator for row in self.matrix for x in row))
        D = [[int(x * d) for x in row] for row in self.matrix]
        phases = [Fraction(k, d) for k in range(d)]
        right, rank = self.right.elements(), self.right.rank
        table = {}
        for g in self.left.elements():
            u = [sum(gi * row[j] for gi, row in zip(g, D)) for j in range(rank)]
            table[g] = tuple(phases[sum(a * b for a, b in zip(u, h)) % d] for h in right)
        return table

    def is_symmetric(self) -> bool:
        if not self.is_square:
            return False
        E = self.matrix
        return all(
            E[i][j] == E[j][i] for i in range(len(E)) for j in range(i + 1, len(E))
        )

    def is_alternating(self) -> bool:
        if not self.is_square:
            return False
        E = self.matrix
        t = len(E)
        return all(E[i][i] == 0 for i in range(t)) and all(
            mod1(E[i][j] + E[j][i]) == 0 for i in range(t) for j in range(i + 1, t)
        )

    def transpose(self) -> "Pairing":
        return Pairing(
            self.right,
            self.left,
            [
                [self.matrix[i][j] for i in range(self.left.rank)]
                for j in range(self.right.rank)
            ],
        )

    def conj(self) -> "Pairing":
        return Pairing(self.left, self.right, [[-x for x in row] for row in self.matrix])

    def row_character(self, g) -> Character:
        """gamma(g, .) as a character of the right group."""
        g = self.left.reduce(g)
        exps = []
        for j, m in enumerate(self.right.factors):
            r = sum(g[i] * self.matrix[i][j] for i in range(len(g)))
            exps.append(int(r * m) % m)
        return Character(self.right, exps)

    def radical(self) -> Subgroup:
        return self.perp(full_subgroup(self.right))

    def right_radical(self) -> Subgroup:
        return self.transpose().perp(full_subgroup(self.left))

    def is_nondegenerate(self) -> bool:
        return self.radical().order == 1 and self.right_radical().order == 1

    def perp(self, H: Subgroup) -> Subgroup:
        """{g in left : gamma(g, h) = 1 for all h in H}, H a subgroup of right."""
        if H.ambient != self.right:
            raise ValueError("subgroup of the wrong group")
        rows, moduli = [], []
        for h in H.gens():
            col = [
                sum(self.matrix[i][j] * h[j] for j in range(len(h)))
                for i in range(self.left.rank)
            ]
            d = lcm(1, *(Fraction(c).denominator for c in col))
            rows.append([int(c * d) for c in col])
            moduli.append(d)
        return congruence_kernel(self.left, rows, moduli)

    def pull_back(self, JL: FinAbGroup, JR: FinAbGroup, embedL, embedR) -> "Pairing":
        """Pairing obtained by composing with coordinate maps into each side."""
        M = [
            [self.phase(embedL(ei), embedR(ej)) for ej in JR.basis()]
            for ei in JL.basis()
        ]
        return Pairing(JL, JR, M)

    def key(self):
        return (self.left.factors, self.right.factors, self.matrix)

    def __eq__(self, other):
        return isinstance(other, Pairing) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Pairing({self.left}, {self.right}, {self.matrix})"

    def to_json(self):
        return {
            "left": self.left.to_json(),
            "right": self.right.to_json(),
            "E": [[str(x) for x in row] for row in self.matrix],
        }

    @staticmethod
    def from_json(obj) -> "Pairing":
        try:
            left = FinAbGroup(json_list(obj["left"]["factors"], "'factors'"))
            right = FinAbGroup(json_list(obj["right"]["factors"], "'factors'"))
            E = [
                [json_rational(s) for s in json_list(row, "a row of 'E'")]
                for row in json_list(obj["E"], "'E'")
            ]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed pairing JSON: {exc!r}") from exc
        if len(E) != left.rank or any(len(row) != right.rank for row in E):
            raise ValueError("pairing matrix shape must be left rank x right rank")
        return Pairing(left, right, E)


class AlternatingPairing(Pairing):
    """Square pairing with gamma(g, h) = conj(gamma(h, g)) and gamma(g, g) = 1."""

    __slots__ = ()

    def __init__(self, group: FinAbGroup, matrix):
        super().__init__(group, group, matrix)
        if not self.is_alternating():
            raise ValueError("pairing is not alternating")

    @property
    def group(self) -> FinAbGroup:
        return self.left


def standard_pairing(G: FinAbGroup) -> Pairing:
    t = G.rank
    return Pairing(
        G, G, [[Fraction(1, G.factors[i]) if i == j else 0 for j in range(t)] for i in range(t)]
    )


def zero_pairing(left: FinAbGroup, right: FinAbGroup | None = None) -> Pairing:
    right = left if right is None else right
    return Pairing(left, right, [[0] * right.rank for _ in range(left.rank)])


class QuadraticForm:
    """q: G -> roots of unity stored as the full table of exponents mod 1."""

    __slots__ = ("group", "table", "_polar")

    def __init__(self, group: FinAbGroup, table):
        self.group = group
        self.table = {g: mod1(v) for g, v in table.items()}
        self._polar = None
        self._validate()

    def _validate(self):
        """Check that the table is a quadratic form with a bilinear polarization.

        Biadditivity is checked only against the basis: B(g, e_i) = b(g, e_i)
        for every g and i, where B(g, h) = q(g) + q(h) - q(g + h) and b is the
        bilinear pairing with matrix B(e_i, e_j).  That gives B(g, h) = b(g, h)
        for every pair by induction on h: B(g, 0) = q(0) = 0 = b(g, 0), and
        expanding q(g + h + e_i) and q(h + e_i) with the basis identity gives
        B(g, h + e_i) = B(g, h) + b(g, e_i).  So the O(rank |G|) check accepts
        exactly the tables the all-pairs check does.
        """
        G = self.group
        elems = G.elements()
        if set(self.table) != set(elems):
            raise ValueError("table must cover the group exactly")
        if self.table[G.zero()] != 0:
            raise ValueError("q(0) must be 1")
        for g in elems:
            if self.table[g] != self.table[G.neg(g)]:
                raise ValueError("q(-g) = q(g) fails")
        pol = self.polarization()
        for e in G.basis():
            qe = self.table[e]
            for g in elems:
                lhs = mod1(self.table[g] + qe - self.table[G.add(g, e)])
                if lhs != pol.phase(g, e):
                    raise ValueError("polarization is not biadditive")

    def phase(self, g) -> Fraction:
        return self.table[self.group.reduce(g)]

    def eval(self, g) -> Cyclotomic:
        return rational_phase(self.phase(g))

    def polarization(self) -> Pairing:
        if self._polar is None:
            G = self.group
            basis = G.basis()
            E = [
                [
                    mod1(self.table[ei] + self.table[ej] - self.table[G.add(ei, ej)])
                    for ej in basis
                ]
                for ei in basis
            ]
            self._polar = Pairing(G, G, E)
        return self._polar

    def pair_phase(self, g, h) -> Fraction:
        """Exponent of the polarization pairing at (g, h)."""
        G = self.group
        return mod1(self.table[G.reduce(g)] + self.table[G.reduce(h)] - self.table[G.add(g, h)])

    def times_character(self, chi: Character) -> "QuadraticForm":
        """Pointwise product with a character of order at most 2."""
        if chi.ambient != self.group:
            raise ValueError("character on the wrong group")
        table = {g: mod1(v + chi.phase(g)) for g, v in self.table.items()}
        return QuadraticForm(self.group, table)

    def conj(self) -> "QuadraticForm":
        return QuadraticForm(self.group, {g: -v for g, v in self.table.items()})

    def direct_sum(self, other: "QuadraticForm") -> "QuadraticForm":
        """Orthogonal sum, renormalized to invariant-factor coordinates."""
        G, _, split = product_with_maps(self.group, other.group)
        table = {}
        for g in G.elements():
            a, b = split(g)
            table[g] = self.table[a] + other.table[b]
        return QuadraticForm(G, table)

    def key(self):
        return (self.group.factors, tuple(sorted(self.table.items())))

    def __eq__(self, other):
        return isinstance(other, QuadraticForm) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        vals = ", ".join(f"{g}:{v}" for g, v in sorted(self.table.items()))
        return f"QuadraticForm({self.group}, {{{vals}}})"

    def to_json(self):
        return {
            "group": self.group.to_json(),
            "values": [str(self.table[g]) for g in sorted(self.group.elements())],
        }

    @staticmethod
    def from_json(obj) -> "QuadraticForm":
        try:
            G = FinAbGroup(json_list(obj["group"]["factors"], "'factors'"))
            values = [json_rational(s) for s in json_list(obj["values"], "'values'")]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed quadratic form JSON: {exc!r}") from exc
        if len(values) != G.order:
            raise ValueError("value array length must equal the group order")
        return QuadraticForm(G, dict(zip(sorted(G.elements()), values)))


def forms_for_pairing(gamma: Pairing) -> list[QuadraticForm]:
    """All quadratic forms whose polarization is the given pairing."""
    if not gamma.is_square or not gamma.is_symmetric():
        raise ValueError("need a symmetric pairing on a single group")
    if not gamma.is_nondegenerate():
        raise ValueError("need a nondegenerate pairing")
    G = gamma.left
    n = G.factors
    E = gamma.matrix
    diag = []
    for i, ni in enumerate(n):
        if ni % 2:
            diag.append(mod1(E[i][i] * ((ni - 1) // 2)))
        else:
            diag.append(mod1(-E[i][i] / 2))
    base = {}
    for g in G.elements():
        v = sum(g[i] * g[i] * diag[i] for i in range(len(g)))
        v -= sum(
            g[i] * g[j] * E[i][j]
            for i in range(len(g))
            for j in range(i + 1, len(g))
        )
        base[g] = mod1(v)
    out = []
    two_torsion = [i for i, ni in enumerate(n) if ni % 2 == 0]
    for bits in itertools.product((0, 1), repeat=len(two_torsion)):
        exps = [0] * G.rank
        for b, i in zip(bits, two_torsion):
            exps[i] = b * (n[i] // 2)
        chi = Character(G, exps)
        out.append(
            QuadraticForm(G, {g: mod1(base[g] + chi.phase(g)) for g in base})
        )
    out.sort(key=lambda q: q.key())
    return out


def gauss_sum(q: QuadraticForm):
    """(sum, normalized, signature mod 8) of sum_g q(g)."""
    G = q.group
    total = Cyclotomic.zero()
    for g in G.elements():
        total = total + q.eval(g)
    norm = (total * total.conj()).as_rational()
    if norm != G.order:
        raise ValueError("Gauss sum magnitude is not sqrt(|G|); form is degenerate")
    normalized = total / sqrt_nonneg_int(G.order)
    for sigma in range(8):
        if normalized == root_of_unity(8, sigma):
            return total, normalized, sigma
    raise ValueError("normalized Gauss sum is not an 8th root of unity")


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, 1} for an odd prime p."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def _eps_unit(n: int) -> Cyclotomic:
    # 1 when n = 1 mod 4, -i when n = 3 mod 4
    if n % 4 == 1:
        return Cyclotomic.one()
    if n % 4 == 3:
        return -root_of_unity(4, 1)
    raise ValueError("n must be odd")


def _parse_descriptor(part: str):
    """Parse one indecomposable descriptor into (p, k, sub, order).

    sub is "i" or "ii" for the pair types 2^k2^k, m in {1, -1, 3, -3} for
    2^k_m and the sign +1 or -1 for p^k_s.  The order is checked against
    DISCRIMINANT_GUARD before p^k is formed, so huge exponents fail fast.
    """
    bad = ValueError(f"bad descriptor {part!r}")
    if not isinstance(part, str):
        raise bad
    try:
        head, sub = part.strip().rsplit("_", 1)
        if head.count("^") == 2:
            half = head[: len(head) // 2]
            if half * 2 != head or not half.startswith("2^") or sub not in ("i", "ii"):
                raise bad
            p, k, rank = 2, int(half[2:]), 2
        else:
            p_str, k_str = head.split("^")
            p, k, rank = int(p_str), int(k_str), 1
            if p == 2:
                sub = int(sub)
                if sub not in (1, -1, 3, -3):
                    raise bad
            elif sub in ("+", "+1", "1", "-", "-1"):
                sub = -1 if sub.startswith("-") else 1
            else:
                raise bad
    except ValueError:
        raise bad from None
    if k < 1 or p < 2:
        raise bad
    # the order is p^(rank k) with p >= 2: past the guard once rank k reaches its bit length
    e = rank * k
    if e >= DISCRIMINANT_GUARD.bit_length() or p**e > DISCRIMINANT_GUARD:
        raise GuardError(f"descriptor {part!r} exceeds the form order guard {DISCRIMINANT_GUARD}")
    if p != 2 and factorize(p) != {p: 1}:
        raise ValueError(f"p must be an odd prime in {part!r}")
    return p, k, sub, p**e


def _tabulate(p: int, k: int, sub):
    """(QuadraticForm, x_cubed) for one parsed indecomposable descriptor."""
    N = p**k
    if sub in ("i", "ii"):
        G = FinAbGroup((N, N))
        if sub == "i":
            table = {g: mod1(Fraction(g[0] * g[1], N)) for g in G.elements()}
            x3 = Cyclotomic.one()
        else:
            table = {
                g: mod1(Fraction(g[0] * g[0] + g[0] * g[1] + g[1] * g[1], N))
                for g in G.elements()
            }
            x3 = Cyclotomic.from_rational(Fraction((-1) ** k))
        return QuadraticForm(G, table), x3
    G = FinAbGroup((N,))
    if p == 2:
        table = {g: mod1(Fraction(sub * g[0] * g[0], 2 * N)) for g in G.elements()}
        eps = -1 if (k % 2 == 1 and sub % 8 in (3, 5)) else 1
        x3 = Cyclotomic.from_rational(Fraction(eps)) * root_of_unity(8, -sub)
        return QuadraticForm(G, table), x3
    m = 1 if sub == 1 else next(a for a in range(2, p) if legendre(a, p) == -1)
    table = {g: mod1(Fraction(m * g[0] * g[0], N)) for g in G.elements()}
    x3 = _eps_unit(N) if sub**k == 1 else _eps_unit(N) * Cyclotomic.from_rational(Fraction(-1))
    return QuadraticForm(G, table), x3


def indecomposable_form(descriptor: str):
    """(QuadraticForm, x_cubed) for one indecomposable descriptor.

    Grammar: "p^k_s" with p an odd prime and s one of +,-;
    "2^k_m" with m in {1,-1,3,-3}; "2^k2^k_i" and "2^k2^k_ii".
    Products join descriptors with " x ".  Every part is parsed, and the
    order of the product checked against DISCRIMINANT_GUARD, before any
    table is built.
    """
    if not isinstance(descriptor, str):
        raise ValueError(f"bad descriptor {descriptor!r}")
    parts = [
        _parse_descriptor(part)
        for part in descriptor.strip().replace("*", " x ").split(" x ")
    ]
    order = prod(order for *_, order in parts)
    if order > DISCRIMINANT_GUARD:
        raise GuardError(f"form order {order} exceeds guard {DISCRIMINANT_GUARD}")
    (q, x3), *rest = [_tabulate(p, k, sub) for p, k, sub, _ in parts]
    for q2, x32 in rest:
        q = q.direct_sum(q2)
        x3 = x3 * x32
    return q, x3


def isometries(q1: QuadraticForm, q2: QuadraticForm):
    """Every isomorphism alpha: q1.group -> q2.group with q2(alpha(g)) = q1(g).

    Backtracks over the images of the generators e_i: the image of e_i has
    order dividing n_i and q2-value q1(e_i), and its b2-pairing with each
    earlier image is b1(e_i, e_j).  As q(g + h) = q(g) + q(h) - b(g, h), such
    a map preserves q everywhere; it is yielded if bijective (q1 may be degenerate).
    """
    G, H = q1.group, q2.group
    b1, b2 = q1.polarization(), q2.polarization()
    basis = G.basis()
    candidates = [
        [h for h in H.elements() if n % H.element_order(h) == 0 and q2.table[h] == q1.table[e]]
        for e, n in zip(basis, G.factors)
    ]
    count = prod(len(c) for c in candidates)
    if count > HOM_GUARD:
        raise GuardError(f"isometry candidate count {count} exceeds guard {HOM_GUARD}")

    def extend(images):
        i = len(images)
        if i == len(basis):
            alpha = Hom(G, H, [[h[j] for h in images] for j in range(H.rank)], check=False)
            if alpha.is_bijective():
                yield alpha
            return
        for h in candidates[i]:
            if all(b2.phase(h, prev) == b1.matrix[i][j] for j, prev in enumerate(images)):
                yield from extend(images + [h])

    return extend([])


def forms_equivalent(q1: QuadraticForm, q2: QuadraticForm):
    """An isomorphism alpha: q2.group -> q1.group with q1(alpha(g)) = q2(g), or None."""
    return next(isometries(q2, q1), None)


def alternating_pairings(G: FinAbGroup) -> list[AlternatingPairing]:
    """All alternating pairings; count is prod over i<j of n_j."""
    t = G.rank
    n = G.factors
    pairs = [(i, j) for i in range(t) for j in range(i + 1, t)]
    count = prod(n[j] for _, j in pairs) if pairs else 1
    if count > PAIRING_GUARD:
        raise GuardError(f"alternating pairing count {count} exceeds guard {PAIRING_GUARD}")
    out = []
    for choice in itertools.product(*[range(n[j]) for _, j in pairs]):
        E = [[Fraction(0)] * t for _ in range(t)]
        for (i, j), c in zip(pairs, choice):
            E[i][j] = Fraction(c, n[j])
            E[j][i] = mod1(-E[i][j])
        out.append(AlternatingPairing(G, E))
    return out


def pairing_image_data(eps: Pairing):
    """(J0, kernel) with: phi in image of eps iff J0 is in ker(phi).

    J0 is the right radical (common kernel of all eps(g)); kernel is the left
    radical.
    """
    return eps.right_radical(), eps.radical()
