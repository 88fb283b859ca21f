"""Pairings and quadratic forms on finite abelian groups.

Every value in Q/Z is an integer numerator over one denominator fixed by the
groups, so equal objects have equal integers.  A pairing keeps its exponent
matrix mod den = gcd(exp left, exp right): n_i E_ij and E_ij m_j are
integers, so E_ij lies in (1/gcd(n_i, m_j))Z.  A form keeps q(g) mod den =
exp G for odd exp G and 2 exp G for even: with n = ord g, n^2 q(g) = q(ng) = 0
and 2n q(g) = -b(ng, g) = 0, so q(g) lies in (1/n)Z for odd n, (1/2n)Z for
even n.  ``Fraction`` appears only in the rational constructors
(``Pairing(left, right, matrix)``, ``QuadraticForm(G, table)`` and the
``from_json`` readers), ``phase``, ``Pairing.matrix``, ``to_json`` and the
reprs; ``Pairing.dot_table`` lifts the numerators to a multiple of den, to
meet tables kept over another one (the simple-current charges of
``modular``).  The polarization convention is pair(g, h) = q(g) * q(h) *
conj(q(g + h)), i.e. on exponents B(g, h) = q(g) + q(h) - q(g + h).

A form keeps its table of |G| numerators.  Every form the package builds is
given by its generator data, q(e_i) and B(e_i, e_j), to
``QuadraticForm.from_generators``: O(rank^2) congruences, then ``_spell``,
the one routine that writes a table from such data.  A user table
(``QuadraticForm(G, table)``, ``from_json``) must equal its own spelling.

A nondegenerate form has a Jordan normal form (``normal_form``, cached by
``QuadraticForm.normal_form``): its p-primary parts split into cyclic and
(p = 2) 2x2 blocks by unit pivots on the Gram of the generators, and the
blocks are read as Conway and Sloane's p-adic symbols, canonical for p = 2
after oddity fusion and sign walking (SPLAG ch. 15; Wall, Topology 2, 1963;
Miranda-Morrison, ch. IV).  Two forms are isometric exactly when their normal
forms are equal.  The signature and a descriptor (``descriptor``) are read off
it in closed form, with no table of the group and no cyclotomic arithmetic;
``isometries`` still searches for the maps themselves.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import gcd, lcm, prod

from .abelian import (
    HOM_GUARD,
    FinAbGroup,
    GuardError,
    Hom,
    Subgroup,
    congruence_kernel,
    full_subgroup,
    mat_mul_int,
    product_with_maps,
    Character,
)
from .scalars import (
    Cyclotomic,
    _Packing,
    _conj_poly,
    _rational_bound,
    factorize,
    json_list,
    json_rational,
    root_of_unity,
    sqrt_terms,
)

PAIRING_GUARD = 10**6
DISCRIMINANT_GUARD = 10**5  # largest order of a tabulated form
_ENTRY_DENOMINATORS = "entry denominators must divide both factor pairs"


def _numerator(x, den: int, message: str) -> int:
    """den * x as an int; ``ValueError(message)`` unless x lies in (1/den)Z."""
    k = Fraction(x) * den
    if k.denominator != 1:
        raise ValueError(message)
    return k.numerator


def form_denominator(G: FinAbGroup) -> int:
    """The common denominator of every quadratic form on G (module docstring)."""
    e = G.exponent
    return e if e % 2 else 2 * e


class Pairing:
    """Bicharacter gamma(g, h) = e^(2 pi i g^T num h / den), den = gcd(exp left, exp right)."""

    __slots__ = ("left", "right", "den", "num")

    def __init__(self, left: FinAbGroup, right: FinAbGroup, matrix):
        """``matrix[i][j]`` is the rational exponent E_ij mod 1."""
        den = gcd(left.exponent, right.exponent)
        num = [[_numerator(x, den, _ENTRY_DENOMINATORS) for x in row] for row in matrix]
        self._setup(left, right, num)

    @classmethod
    def from_numerators(cls, left: FinAbGroup, right: FinAbGroup, num):
        """The pairing with exponent matrix num / den, num any integer matrix."""
        self = cls.__new__(cls)
        self._setup(left, right, num)
        return self

    def _setup(self, left, right, num):
        if len(num) != left.rank or any(len(row) != right.rank for row in num):
            raise ValueError("pairing matrix shape must be left rank x right rank")
        self.left = left
        self.right = right
        self.den = d = gcd(left.exponent, right.exponent)
        self.num = tuple(tuple(x % d for x in row) for row in num)
        for row, n in zip(self.num, left.factors):
            for x, m in zip(row, right.factors):
                if (n * x) % d or (x * m) % d:
                    raise ValueError(_ENTRY_DENOMINATORS)

    @property
    def is_square(self) -> bool:
        return self.left == self.right

    @property
    def matrix(self) -> tuple:
        """The exponent matrix as rationals in [0, 1)."""
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.num)

    def dot(self, g, h) -> int:
        """g^T num h mod den, the numerator of the phase at (g, h).  Coordinates
        need not be reduced: the constructor makes n_i num_ij and num_ij m_j
        multiples of den, so adding n_i to g_i or m_j to h_j changes nothing."""
        return sum(
            gi * sum(x * hj for x, hj in zip(row, h)) for gi, row in zip(g, self.num) if gi
        ) % self.den

    def phase(self, g, h) -> Fraction:
        return Fraction(self.dot(g, h), self.den)

    def eval(self, g, h) -> Cyclotomic:
        return root_of_unity(self.den, self.dot(g, h))

    def dot_table(self, den: int) -> dict:
        """{g: (dot(g, h) lifted to numerators over den, for h in right.elements())}
        for every g of left; den must be a multiple of ``self.den``."""
        d, lift = self.den, den // self.den
        right, rank = self.right.elements(), self.right.rank
        table = {}
        for g in self.left.elements():
            u = [sum(gi * row[j] for gi, row in zip(g, self.num)) for j in range(rank)]
            table[g] = tuple(sum(a * b for a, b in zip(u, h)) % d * lift for h in right)
        return table

    def is_symmetric(self) -> bool:
        return self.is_square and self.num == tuple(zip(*self.num))

    def is_alternating(self) -> bool:
        if not self.is_square:
            return False
        E, d = self.num, self.den
        t = len(E)
        return all(E[i][i] == 0 for i in range(t)) and all(
            (E[i][j] + E[j][i]) % d == 0 for i in range(t) for j in range(i + 1, t)
        )

    def transpose(self) -> "Pairing":
        num = [[row[j] for row in self.num] for j in range(self.right.rank)]
        return Pairing.from_numerators(self.right, self.left, num)

    def conj(self) -> "Pairing":
        return Pairing.from_numerators(
            self.left, self.right, [[-x for x in row] for row in self.num]
        )

    def row_character(self, g) -> Character:
        """gamma(g, .) as a character of the right group."""
        exps = [
            m * sum(gi * row[j] for gi, row in zip(g, self.num)) // self.den
            for j, m in enumerate(self.right.factors)
        ]
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
        d = self.den
        rows = [[x % d for x in row] for row in mat_mul_int(H.gens(), list(zip(*self.num)))]
        return congruence_kernel(self.left, rows, [d] * len(rows))

    def pull_back(self, JL: FinAbGroup, JR: FinAbGroup, embedL, embedR) -> "Pairing":
        """Pairing obtained by composing with coordinate maps into each side."""
        M = [
            [self.phase(embedL(ei), embedR(ej)) for ej in JR.basis()]
            for ei in JL.basis()
        ]
        return Pairing(JL, JR, M)

    def key(self):
        return (self.left.factors, self.right.factors, self.num)

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
        return Pairing(left, right, E)


class AlternatingPairing(Pairing):
    """Square pairing with gamma(g, h) = conj(gamma(h, g)) and gamma(g, g) = 1."""

    __slots__ = ()

    def __init__(self, group: FinAbGroup, matrix):
        super().__init__(group, group, matrix)

    def _setup(self, left, right, num):
        super()._setup(left, right, num)
        if not self.is_alternating():
            raise ValueError("pairing is not alternating")

    @property
    def group(self) -> FinAbGroup:
        return self.left


def standard_pairing(G: FinAbGroup) -> Pairing:
    e = G.exponent
    return Pairing.from_numerators(
        G, G, [[e // n if i == j else 0 for j in range(G.rank)] for i, n in enumerate(G.factors)]
    )


def zero_pairing(left: FinAbGroup, right: FinAbGroup | None = None) -> Pairing:
    right = left if right is None else right
    return Pairing.from_numerators(left, right, [[0] * right.rank for _ in range(left.rank)])


def _generator_pairing(G: FinAbGroup, values, polar) -> Pairing:
    """B = polar / exp G as a Pairing, once q(e_i) = values[i] / den and B make
    q(x) = sum_i x_i^2 q(e_i) - sum_(i<j) x_i x_j B_ij a form on G polarized
    by B: B a symmetric pairing, B_ii = -2 q(e_i) and n_i^2 q(e_i) = 0, so
    q(x + n_k e_k) - q(x) = n_k^2 q(e_k) - n_k sum_j x_j B_kj = 0.  Else
    ``ValueError`` names the first congruence that fails."""
    if len(values) != G.rank:
        raise ValueError("need one value and one pairing row per generator")
    P = Pairing.from_numerators(G, G, polar)
    if not P.is_symmetric():
        raise ValueError("polarization is not symmetric")
    d = form_denominator(G)
    for i, (v, n) in enumerate(zip(values, G.factors)):
        if (d // P.den * P.num[i][i] + 2 * v) % d:
            raise ValueError(f"B(e_{i}, e_{i}) is not -2 q(e_{i})")
        if n * n * v % d:
            raise ValueError(f"q({n} e_{i}) is not 0")
    return P


def _spell(G: FinAbGroup, values, polar) -> list[int]:
    """[q(g) for g in G.elements()] over den for the data of ``_generator_pairing``,
    one axis at a time: setting coordinate k to x on a prefix adds
    x (x q(e_k) + lin_k), where lin_k = -(den / exp G) sum_(i<k) B_ik x_i is
    carried along with each prefix."""
    d, t = form_denominator(G), G.rank
    r = d // G.exponent
    table, lins = [0], [[0] * t]
    for k, n in enumerate(G.factors):
        qk, Bk, steps = values[k], polar[k], range(n)
        table = [v + x * (x * qk + lin[k]) for v, lin in zip(table, lins) for x in steps]
        if k + 1 < t:
            lins = [[a - r * x * b for a, b in zip(lin, Bk)] for lin in lins for x in steps]
    return [v % d for v in table]


class QuadraticForm:
    """q(g) = e^(2 pi i num[g] / den) on G, with den = ``form_denominator(G)``."""

    # _square caches the square group that ``pointed`` builds once per form
    __slots__ = ("group", "den", "num", "_polar", "_normal", "_square")

    def __init__(self, group: FinAbGroup, table):
        """``table`` maps each element of the group to q's rational exponent mod 1.

        It must cover G with q(0) = 0 and q(-g) = q(g), B(e_i, e_j) = q(e_i) +
        q(e_j) - q(e_i + e_j) must be a pairing b (``polarization``), and the
        table must equal ``_spell`` of q(e_i) and b.  Every form polarized by b
        does, as q(g + e_i) = q(g) + q(e_i) - b(g, e_i).  A table that does
        meets ``_generator_pairing``'s congruences (B_ii = -2 q(e_i) by q(2 e_i)
        or, for n_i = 2, by b; then n_i^2 q(e_i) = 0 by q(-e_i)), so it is such
        a form: the O(|G|) check accepts what an all-pairs check does.
        """
        d = self.den = form_denominator(group)
        message = f"form values must lie in (1/{d})Z"
        num = self.num = {g: _numerator(v, d, message) % d for g, v in table.items()}
        self.group, self._normal, self._square = group, None, None
        elems = group.elements()
        vals = [num.get(g) for g in elems]
        if len(num) != len(elems) or None in vals:
            raise ValueError("table must cover the group exactly")
        if vals[0]:
            raise ValueError("q(0) must be 1")
        if any(num[group.neg(g)] != k for g, k in zip(elems, vals)):
            raise ValueError("q(-g) = q(g) fails")
        basis, r = group.basis(), d // group.exponent
        B = [[num[a] + num[b] - num[group.add(a, b)] for b in basis] for a in basis]
        if any(x % r for row in B for x in row):
            raise ValueError(_ENTRY_DENOMINATORS)
        self._polar = Pairing.from_numerators(group, group, [[x // r for x in row] for row in B])
        if _spell(group, *self.generators()) != vals:
            raise ValueError("polarization is not biadditive")

    @classmethod
    def from_generators(cls, group: FinAbGroup, values, polar) -> "QuadraticForm":
        """The form with q(e_i) = values[i] / den and polarization numerators
        polar (over exp G, as ``polarization().num``): the O(rank^2)
        congruences of ``_generator_pairing``, then the table by ``_spell``."""
        self = cls.__new__(cls)
        self.group, self.den = group, form_denominator(group)
        self._polar = _generator_pairing(group, values, polar)
        self._normal = self._square = None
        self.num = dict(zip(group.elements(), _spell(group, values, self._polar.num)))
        return self

    def generators(self):
        """(values, polar), the data ``from_generators`` takes: q(e_i) over den
        and the numerators of ``polarization()``."""
        return [self.num[e] for e in self.group.basis()], self.polarization().num

    def phase(self, g) -> Fraction:
        return Fraction(self.num[self.group.reduce(g)], self.den)

    def eval(self, g) -> Cyclotomic:
        return root_of_unity(self.den, self.num[self.group.reduce(g)])

    def polarization(self) -> Pairing:
        """The pairing B(g, h) = q(g) + q(h) - q(g + h), over exp G."""
        return self._polar

    def normal_form(self) -> "NormalForm":
        """The Jordan normal form (``normal_form``) of q on the basis, computed
        once per form; ``ValueError`` when q is degenerate."""
        if self._normal is None:
            self._normal = normal_form(self.group, *self.generators())
        return self._normal

    def signature(self) -> int:
        """Signature mod 8 of the Gauss sum, sigma with sum_g q(g) = zeta_8^sigma
        sqrt|G|, summed over the blocks of ``normal_form()`` in closed form
        (``_block_signature``): no table and no cyclotomic arithmetic.
        ``ValueError`` when q is degenerate, as ``gauss_sum`` raises."""
        return self.normal_form().signature

    def times_character(self, chi: Character) -> "QuadraticForm":
        """Pointwise product with a character of order at most 2: same polarization."""
        if chi.ambient != self.group:
            raise ValueError("character on the wrong group")
        G, (values, polar) = self.group, self.generators()
        values = [v + int(chi.phase(e) * self.den) for v, e in zip(values, G.basis())]
        return QuadraticForm.from_generators(G, values, polar)

    def power(self, k: int) -> "QuadraticForm":
        """g -> q(g)^k, with values k q(e_i) and polarization k B."""
        values, polar = self.generators()
        scaled = [[k * x for x in row] for row in polar]
        return QuadraticForm.from_generators(self.group, [k * v for v in values], scaled)

    def conj(self) -> "QuadraticForm":
        return self.power(-1)

    def direct_sum(self, other: "QuadraticForm") -> "QuadraticForm":
        """Orthogonal sum, renormalized to invariant-factor coordinates: each
        generator of the product splits as (a, b), with q(a) + q(b) and
        B1(a, a') + B2(b, b') as its generator data."""
        G, _, split = product_with_maps(self.group, other.group)
        d, e = form_denominator(G), G.exponent
        parts = [split(g) for g in G.basis()]
        P, Q = self.polarization(), other.polarization()
        values = [d // self.den * self.num[a] + d // other.den * other.num[b] for a, b in parts]
        polar = [
            [e // P.den * P.dot(a, x) + e // Q.den * Q.dot(b, y) for x, y in parts]
            for a, b in parts
        ]
        return QuadraticForm.from_generators(G, values, polar)

    def key(self):
        return (self.group.factors, tuple(sorted(self.num.items())))

    def __eq__(self, other):
        return isinstance(other, QuadraticForm) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        vals = ", ".join(f"{g}:{Fraction(k, self.den)}" for g, k in sorted(self.num.items()))
        return f"QuadraticForm({self.group}, {{{vals}}})"

    def to_json(self):
        return {
            "group": self.group.to_json(),
            "values": [str(Fraction(self.num[g], self.den)) for g in sorted(self.group.elements())],
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
    """All quadratic forms whose polarization is the given pairing: one base
    form, times each character g -> (-1)^(sum of g_i over a set of even n_i)."""
    if not gamma.is_square or not gamma.is_symmetric():
        raise ValueError("need a symmetric pairing on a single group")
    if not gamma.is_nondegenerate():
        raise ValueError("need a nondegenerate pairing")
    G, E = gamma.left, gamma.num
    d = form_denominator(G)
    r = d // gamma.den
    base = [E[i][i] * r * (n - 1) // 2 if n % 2 else -E[i][i] for i, n in enumerate(G.factors)]
    flips = itertools.product(*[(0, d // 2) if n % 2 == 0 else (0,) for n in G.factors])
    out = [QuadraticForm.from_generators(G, [v + f for v, f in zip(base, fs)], E) for fs in flips]
    out.sort(key=lambda q: q.key())
    return out


def gauss_sum(q: QuadraticForm):
    """(sum, normalized, signature mod 8) of sum_g q(g).

    Decided in the packed integer kernel (``scalars._Packing``), with no
    ``Cyclotomic`` product and no division.  Let h be the histogram of
    ``q.num`` (h_k = #{g : num[g] = k}), so the sum is h(zeta_N) with N =
    ``q.den``, and n = |G|.

    * Nondegeneracy: |sum|^2 = n, i.e. h(x) h(x^-1) = n modulo Phi_N, is one
      packed product h h-bar F at N decided by ``_Packing.rational``; the
      l1 norm of h h-bar is at most n^2.
    * Signature: s = ``sqrt_terms(n)`` is an integer polynomial with
      s^2 = n, and M = lcm(8, N, order of s).  Since s^2 = n, sum = zeta_8^j s
      exactly when sum s = n zeta_8^j.  So the packed product h s F at M is
      looked up among the eight rotations of n F by j M / 8 digits: a rotation
      by k digits multiplies by x^k = zeta_M^k.  Both sides have l1 norm at
      most n ||s||_1, under which ``_rational_bound`` makes two packed values
      equal exactly when the values are equal modulo Phi_M.

    ``normalized`` is then zeta_8^sigma.
    """
    n, N = q.group.order, q.den
    h = Counter(q.num.values())
    pk = _Packing(N, _rational_bound(N, n * n))
    if pk.rational(pk.pack(h) * pk.pack(_conj_poly(h, N)) * pk.PF) != n:
        raise ValueError("Gauss sum magnitude is not sqrt(|G|); form is degenerate")
    s_order, s = sqrt_terms(n)
    M = lcm(8, N, s_order)
    pk = _Packing(M, _rational_bound(M, n * sum(map(abs, s.values()))))
    hp = pk.pack({k * (M // N): c for k, c in h.items()})
    sp = pk.pack({k * (M // s_order): c for k, c in s.items()})
    u, v = hp * sp * pk.PF % pk.M, n * pk.PF % pk.M
    for sigma in range(8):
        if u == (v << pk.shift * (sigma * M // 8)) % pk.M:
            return Cyclotomic(N, h), root_of_unity(8, sigma), sigma
    raise ValueError("normalized Gauss sum is not an 8th root of unity")


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, 1} for an odd prime p."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


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


def _block_signature(p: int, k: int, sub) -> int:
    """sigma mod 8 of one indecomposable, whose x^3 is zeta_8^-sigma.

    ``sub`` is as ``_parse_descriptor`` gives it, except that a 2-adic cyclic
    block q(x) = u x^2 / 2^(k+1) may carry any odd u.  Odd p: 2 when p^k = 3
    mod 4, plus 4 when k is odd and q's unit is a non-residue.  p = 2: u, plus
    4 when k is odd and u = +-3 mod 8; 2^k2^k_i has 0 and 2^k2^k_ii 4k.
    """
    if sub == "i":
        return 0
    if sub == "ii":
        return 4 * k % 8
    if p == 2:
        return (sub + 4 * (k % 2 and sub % 8 in (3, 5))) % 8
    return (2 * (pow(p, k, 4) == 3) + 4 * (k % 2 and sub == -1)) % 8


def _block_generators(p: int, k: int, sub):
    """(G, values, polar) of one parsed indecomposable descriptor, as
    ``QuadraticForm.from_generators`` takes them.  With N = p^k: 2xy and
    2(x^2 + xy + y^2) over 2N on Z_N^2 for 2^k2^k_i and _ii, sub x^2 over 2N
    for 2^k_m, and m x^2 over N for p^k_s, m = 1 or the least non-residue."""
    N = p**k
    if sub in ("i", "ii"):
        a = 2 if sub == "ii" else 0
        return FinAbGroup((N, N)), [a, a], [[-a, -1], [-1, -a]]
    if p == 2:
        return FinAbGroup((N,)), [sub], [[-sub]]
    m = 1 if sub == 1 else next(a for a in range(2, p) if legendre(a, p) == -1)
    return FinAbGroup((N,)), [m], [[-2 * m]]


def indecomposable_form(descriptor: str):
    """(QuadraticForm, x_cubed) for one indecomposable descriptor.

    x_cubed is zeta_8^-sigma, sigma the signature: the sum of the parts'
    ``_block_signature``.  Grammar: "p^k_s" with p an odd prime and s one
    of +,-; "2^k_m" with m in {1,-1,3,-3}; "2^k2^k_i" and "2^k2^k_ii".
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
    q, *rest = [QuadraticForm.from_generators(*_block_generators(p, k, sub)) for p, k, sub, _ in parts]
    for q2 in rest:
        q = q.direct_sum(q2)
    return q, root_of_unity(8, -sum(_block_signature(p, k, sub) for p, k, sub, _ in parts))


# -- Jordan normal form --------------------------------------------------------


def _inverse_mod(P, m: int):
    """The inverse modulo m of a 1x1 or 2x2 matrix P whose determinant is a unit."""
    if len(P) == 1:
        return [[pow(P[0][0], -1, m)]]
    (a, b), (c, d) = P
    r = pow(a * d - b * c, -1, m)
    return [[d * r % m, -b * r % m], [-c * r % m, a * r % m]]


def _p_blocks(p: int, orders, B, Q):
    """Jordan blocks (k, sub) of a p-primary form, by unit pivots.

    Generator f_i has order p^orders[i]; with K the largest order,
    b(f_i, f_j) = B_ij / p^K, with b(x, x) = 2 q(x), and (p = 2)
    q(f_i) = Q_i / 2^(K+1).  A generator of the largest order k left, paired
    to a unit at its scale s = p^(K-k), gives the pivot: f_i itself when
    b(f_i, f_i) / s is a unit, else (odd p) f_i + f_j for an odd b(f_i, f_j)
    / s, else (p = 2) the 2x2 block {f_i, f_j}.  Every other generator f_t
    becomes f_t minus its projection onto the pivot, which keeps its order
    (b(f_t, pivot) has order at most that of f_t) and makes it orthogonal,
    so the pivot splits off.  None left means q is degenerate.
    """
    K = max(orders)
    M, MQ = p**K, 2 ** (K + 1)
    B = [[x % M for x in row] for row in B]
    Q = [x % MQ for x in Q]
    live, blocks = list(range(len(orders))), []
    while live:
        k = max(orders[i] for i in live)
        s, pk = p ** (K - k), p**k
        top = [i for i in live if orders[i] == k]
        units = [(i, j) for i in top for j in top if B[i][j] // s % p]
        diagonal = [i for i, j in units if i == j]
        if diagonal:
            pivots = diagonal[:1]
        elif not units:
            raise ValueError(f"form is degenerate: no unit pivot at scale {p}^{k}")
        elif p > 2:  # f_i + f_j has b(x, x) = 2 b(f_i, f_j) + (multiples of p s)
            i, j = units[0]
            row = [x + y for x, y in zip(B[i], B[j])]
            row[i] += row[j]
            B[i] = [x % M for x in row]
            for t, x in enumerate(B[i]):
                B[t][i] = x
            pivots = [i]
        else:
            pivots = list(units[0])
        if p > 2:
            blocks.append((k, legendre(B[pivots[0]][pivots[0]] // s * ((pk + 1) // 2), p)))
        elif len(pivots) == 1:
            blocks.append((k, (Q[pivots[0]] // s + 4) % 8 - 4))  # m in {1, 3, -1, -3}
        else:  # q = (a x^2 + odd xy + c y^2) / 2^k: 2^k2^k_ii iff a and c are odd
            a, c = (Q[x] // s // 2 % 2 for x in pivots)
            blocks.append((k, "ii" if a * c else "i"))
        live = [t for t in live if t not in pivots]
        inv = _inverse_mod([[B[x][y] // s for y in pivots] for x in pivots], pk)
        lam = {
            t: [sum(r * (B[t][y] // s) for r, y in zip(row, pivots)) % pk for row in inv]
            for t in live
        }
        for t in live if p == 2 else ():
            # q(f - z) = q(f) + q(z) - b(f, z) for z = sum_x lam_x f_x; b is over 2^K
            lt = lam[t]
            qz = sum(l * l * Q[x] for l, x in zip(lt, pivots))
            if len(pivots) == 2:
                qz += 2 * lt[0] * lt[1] * B[pivots[0]][pivots[1]]
            Q[t] = (Q[t] + qz - 2 * sum(l * B[t][x] for l, x in zip(lt, pivots))) % MQ
        for t in live:
            for u in live:
                B[t][u] = (B[t][u] - sum(l * B[t][x] for l, x in zip(lam[u], pivots))) % M
    return blocks


def _jordan_blocks(G: FinAbGroup, values, polar):
    """(p, k, sub) for every Jordan block of data that pass
    ``_generator_pairing`` (so every division by rest is exact)."""
    blocks, per_factor = [], [factorize(n) for n in G.factors]
    for p, K in per_factor[0].items() if per_factor else ():  # n_1 = exp G
        rest = G.exponent // p**K
        a = [f[p] for f in per_factor if p in f]
        c = [n // p**ai for n, ai in zip(G.factors, a)]
        # b(f_i, f_j) = -c_i c_j polar_ij / (p^K rest), of order dividing p^K
        B = [[-ci * cj * polar[i][j] for j, cj in enumerate(c)] for i, ci in enumerate(c)]
        Q = [ci * ci * values[i] for i, ci in enumerate(c)] if p == 2 else []  # over 2^(K+1) rest
        B = [[x // rest for x in row] for row in B]
        blocks += [(p, k, sub) for k, sub in _p_blocks(p, a, B, [x // rest for x in Q])]
    return blocks


def _two_adic_symbol(blocks):
    """The canonical 2-adic symbol of blocks (k, sub): one entry per train.

    Scale 2^k carries a Jordan component of rank n, odd when it has a cyclic
    block, of sign eps (the Jacobi symbol (2/det)) and oddity t (sum of the
    cyclic units mod 8).  These are read up to Conway and Sloane's two moves
    (SPLAG ch. 15, sections 7.5-7.6).  Oddity fusion: only the total oddity of
    a compartment, a run of consecutive odd scales, is invariant.  Sign
    walking: scales k - 1 and k are linked when one of them is odd (empty
    scales are even), a train is a maximal linked run, and flipping the signs
    at both ends of a link adds 4 to the oddity of the compartment of its odd
    end.  Walking every sign down to the first scale of its train leaves one
    sign per train.  Scale 2^0 stands for the unimodular part, invisible in a
    finite form: it is even, of any rank, so the train through it keeps no
    sign (0 in the symbol).
    """
    comps = {}  # k -> [n, odd, eps, t]
    for k, sub in blocks:
        c = comps.setdefault(k, [0, False, 1, 0])
        if sub in ("i", "ii"):
            c[0] += 2
            c[2] *= -1 if sub == "ii" else 1
        else:
            c[0] += 1
            c[1] = True
            c[2] *= 1 if sub % 8 in (1, 7) else -1
            c[3] += sub
    top = max(comps, default=0)
    odd = [k in comps and comps[k][1] for k in range(top + 1)]
    eps = [comps[k][2] if k in comps else 1 for k in range(top + 1)]
    start, oddity = {}, {}  # compartment start of each odd scale; start -> oddity
    for k in range(1, top + 1):
        if odd[k]:
            start[k] = start.get(k - 1, k)
            oddity[start[k]] = (oddity.get(start[k], 0) + comps[k][3]) % 8
    linked = [False] + [odd[k - 1] or odd[k] for k in range(1, top + 1)]
    for k in range(top, 0, -1):
        if linked[k] and eps[k] == -1:
            eps[k], eps[k - 1] = 1, -eps[k - 1]
            c = start[k] if odd[k] else start[k - 1]
            oddity[c] = (oddity[c] + 4) % 8
    symbol, train = [], []
    for k in range(top + 2):
        if k > top or not linked[k]:
            parts = tuple((j, *comps[j][:2]) for j in train if j in comps)
            if parts:
                sign = eps[train[0]] if train[0] else 0
                symbol.append((parts, sign, tuple((j, oddity[j]) for j in train if j in oddity)))
            train = []
        train.append(k)
    return tuple(symbol)


def _component_choices(k: int, n: int, odd: bool):
    """Descriptor parts for a rank-n component at scale 2^k, one per (sign,
    oddity) it can carry, each the first in the descriptors' order."""
    if not odd:
        return [("i",) * (n // 2), ("i",) * (n // 2 - 1) + ("ii",)]
    first = {}
    for subs in itertools.combinations_with_replacement((1, 3) if k == 1 else (1, 3, -1, -3), n):
        label = (prod(1 if m % 8 in (1, 7) else -1 for m in subs), sum(subs) % 8)
        first.setdefault(label, subs)
    return list(first.values())


def _train_descriptor(train) -> list[str]:
    """Descriptor parts for one train of a 2-adic symbol, scales descending:
    the first choice of parts, in the descriptors' order, with that train."""
    scales = [k for k, _, _ in reversed(train[0])]
    for choice in itertools.product(*(_component_choices(*c) for c in reversed(train[0]))):
        blocks = [(k, sub) for k, subs in zip(scales, choice) for sub in subs]
        if _two_adic_symbol(blocks) == (train,):
            return [f"2^{k}2^{k}_{s}" if s in ("i", "ii") else f"2^{k}_{s}" for k, s in blocks]
    raise RuntimeError(f"no descriptor has the 2-adic train {train}")


class NormalForm:
    """The Jordan normal form of a nondegenerate quadratic form: equal for two
    forms exactly when they are isometric.

    ``key`` holds, for each prime p in increasing order, (p, symbol).  For odd
    p the symbol lists (k, rank, sign) per scale p^k, k descending, with sign
    the Legendre symbol of the determinant of q's diagonal there (Jordan
    components of odd p are unique).  For p = 2 it is ``_two_adic_symbol``.
    ``signature`` sums ``_block_signature`` over any Jordan decomposition.
    """

    __slots__ = ("key", "signature")

    def __init__(self, blocks):
        """blocks: (p, k, sub) per Jordan block, sub as ``_block_signature`` takes it."""
        blocks = list(blocks)
        self.signature = sum(_block_signature(*b) for b in blocks) % 8
        key = []
        for p in sorted({p for p, _, _ in blocks}):
            mine = [(k, sub) for q, k, sub in blocks if q == p]
            if p == 2:
                key.append((2, _two_adic_symbol(mine)))
                continue
            scales = Counter(k for k, _ in mine)
            signs = {k: prod(sub for j, sub in mine if j == k) for k in scales}
            key.append((p, tuple((k, scales[k], signs[k]) for k in sorted(scales, reverse=True))))
        self.key = tuple(key)

    def descriptor(self) -> str:
        """A product of indecomposable descriptors with this normal form: primes
        increasing, scales decreasing; odd p gets p^k_+ copies and one p^k_- for
        a sign -1, p = 2 the first choice per train (``_train_descriptor``).
        "" for the trivial group."""
        parts = []
        for p, symbol in self.key:
            if p == 2:
                for train in reversed(symbol):
                    parts += _train_descriptor(train)
                continue
            for k, n, sign in symbol:
                parts += [f"{p}^{k}_+"] * (n - 1) + [f"{p}^{k}_{'+' if sign > 0 else '-'}"]
        return " x ".join(parts)

    def __eq__(self, other):
        return isinstance(other, NormalForm) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"NormalForm({self.key!r}, signature={self.signature})"


def normal_form(G: FinAbGroup, values, polar) -> NormalForm:
    """The Jordan normal form of the form on G given on its basis alone:
    values[i] = q(e_i) over ``form_denominator(G)`` and polar the numerators
    of ``polarization()`` (over exp G).  Linear algebra of size rank G: the
    p-primary parts split off, and each is decomposed by ``_p_blocks``.
    ``ValueError`` when the data fail ``_generator_pairing``'s congruences or
    the form is degenerate."""
    _generator_pairing(G, values, polar)
    return NormalForm(_jordan_blocks(G, values, polar))


def _cyclic_normal_form(p: int, k: int, b: int) -> NormalForm:
    """``normal_form`` of q(x) = b x^2 / 2p^k on Z_(p^k) for p not dividing b,
    in closed form.  The one Jordan block is read as ``_p_blocks`` reads it:
    the Legendre symbol of b / 2 modulo p for odd p (b must be even), the
    unit m = b modulo 2^(k+1), as -3..3, for p = 2.  For p = 2 the symbol is
    ``_two_adic_symbol``'s for one odd component at scale k: one train of the
    scales k - 1 and k whose sign, for m = +-3 mod 8, walks down to scale
    k - 1 and adds 4 to the oddity; the sign reads 0 when k - 1 = 0."""
    if p > 2:
        if b % 2:
            raise ValueError(f"b x^2 / 2p^k with odd b = {b} is no quadratic form on Z_({p}^{k})")
        sub = legendre(b // 2, p)
        key = (p, ((k, 1, sub),))
    else:
        sub = (b % 2 ** (k + 1) + 4) % 8 - 4
        walked = sub % 8 in (3, 5)
        sign = 0 if k == 1 else -1 if walked else 1
        key = (2, ((((k, 1, True),), sign, ((k, (sub + 4 * walked) % 8),)),))
    nf = NormalForm.__new__(NormalForm)
    nf.key, nf.signature = (key,), _block_signature(p, k, sub)
    return nf


def descriptor(q: QuadraticForm) -> str:
    """An indecomposable-descriptor product whose form is isometric to q, read
    off ``q.normal_form()`` (``NormalForm.descriptor``)."""
    return q.normal_form().descriptor()


def isometries(q1: QuadraticForm, q2: QuadraticForm):
    """Every isomorphism alpha: q1.group -> q2.group with q2(alpha(g)) = q1(g).

    Backtracks over the images of the generators e_i: the image of e_i has
    order dividing n_i and q2-value q1(e_i), and its b2-pairing with each
    earlier image is b1(e_i, e_j).  As q(g + h) = q(g) + q(h) - b(g, h), such
    a map preserves q everywhere; it is yielded if bijective (q1 may be degenerate).
    Groups of different exponents, hence different denominators, have none.
    """
    G, H = q1.group, q2.group
    if q1.den != q2.den:
        return iter(())
    b1, b2 = q1.polarization(), q2.polarization()
    basis = G.basis()
    candidates = [
        [h for h in H.elements() if q2.num[h] == q1.num[e] and n % H.element_order(h) == 0]
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
            if all(b2.dot(h, prev) == b1.num[i][j] for j, prev in enumerate(images)):
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
        E = [[0] * t for _ in range(t)]
        for (i, j), c in zip(pairs, choice):
            E[i][j] = c * (G.exponent // n[j])
            E[j][i] = -E[i][j]
        out.append(AlternatingPairing.from_numerators(G, G, E))
    return out


def pairing_image_data(eps: Pairing):
    """(J0, kernel) with: phi in image of eps iff J0 is in ker(phi).

    J0 is the right radical (common kernel of all eps(g)); kernel is the left
    radical.
    """
    return eps.right_radical(), eps.radical()
