"""Finite abelian groups in invariant-factor form.

Groups are tuples of invariant factors (n_1, ..., n_t) with
n_t | n_{t-1} | ... | n_1 and every n_i >= 2; the trivial group is the empty
tuple.  Elements are coordinate tuples reduced mod n_i.  Subgroups are stored
by the row Hermite normal form of their coordinate lattice, which makes
set-equality a syntactic check.

Every group read off a presentation matrix comes from one Smith kernel,
``smith_with_inverses``: a nonsingular square matrix reduced modulo a known
multiple of its determinant, so no entry grows past that modulus.  Each
caller knows one before it starts: ``invariant_factor_group`` (quotients,
subgroups as groups, lattice quotients M/L) works modulo the determinant and
keeps both transforms; ``dual_quotient`` (a lattice's discriminant group
L*/L) works modulo det² and keeps the column transform only.  Kernels of
congruences are lattices, read off one ``hermite_rows``.  Every product of
two integer matrices in the package is one ``mat_mul_int``.  ``GuardError``
is defined in ``scalars`` and re-exported here.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from operator import add, mod, mul, neg, sub

from .scalars import Cyclotomic, GuardError, as_integer, rational_phase

SUBGROUP_GUARD = 1024
HOM_GUARD = 10**7


# -- integer matrix utilities -------------------------------------------------


def _integer_rows(rows, width: int, what: str) -> list[tuple[int, ...]]:
    """rows as tuples of ints of length width; ``ValueError`` naming what else."""
    message = f"{what} must be integers"
    try:
        out = [tuple(row) for row in rows]
        # plain ints, the common case, skip the per-entry conversion
        if not {int}.issuperset(map(type, itertools.chain.from_iterable(out))):
            out = [tuple(as_integer(x, message) for x in row) for row in out]
    except TypeError:
        raise ValueError(message) from None
    if any(len(row) != width for row in out):
        raise ValueError(f"{what} must come in rows of {width}")
    return out


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul_int(A, B):
    """A·B for integer matrices given by their rows, each entry one
    ``sum(map(mul, ...))`` of a row of A and a column of B.  A B with no rows
    has no columns to read, so the product's rows are empty."""
    cols = list(zip(*B))
    return [[sum(map(mul, row, col)) for col in cols] for row in A]


def smith_with_inverses(M, m: int, inverse: bool = False):
    """The Smith form of a square integer M modulo m, a multiple of |det M|.

    Row and column Euclid steps on entries reduced into [-m/2, m/2) (Cohen,
    GTM 138, section 2.4.3; Domich, Kannan and Trotter, Math. Oper. Res. 12,
    1987) until U·M·V = diag(w) (mod m), U and V unimodular.  Only V is
    tracked, mod m.  As m·Z^n lies in the column span of M, the row map
    x -> U·x carries Z^n / M Z^n onto the sum of the Z / d_t, d_t = gcd(w_t, m),
    and d_t divides d_(t+1): the pivot of each step divides its trailing block.

    Returns (pivots, Vt, Vi): the d_t, V's columns (as rows), and V⁻¹'s rows
    when ``inverse`` is set (else None), the last two modulo m.
    """
    n = len(M)
    W = _integer_rows(M, n, "matrix entries")
    if m < 1:
        raise ValueError("the modulus must be a positive multiple of |det M|, so M nonsingular")
    h = m // 2
    W = [[(x + h) % m - h for x in row] for row in W]
    Vt = _identity(n)
    Vi = _identity(n) if inverse else None
    pivots = []
    for t in range(n):
        # the pivot: an entry of least absolute value in the trailing block,
        # whose rows are zero left of column t
        p = min(map(abs, filter(None, itertools.chain.from_iterable(W[t:]))), default=0)
        i = next((i for i in range(t, n) if p in W[i] or -p in W[i]), t) if p else t
        j = W[i].index(p if p in W[i] else -p) if p else t
        W[t], W[i] = W[i], W[t]
        for row in W:
            row[t], row[j] = row[j], row[t]
        Vt[t], Vt[j] = Vt[j], Vt[t]
        if inverse:
            Vi[t], Vi[j] = Vi[j], Vi[t]
        while p:
            done = True
            for i in range(t + 1, n):
                if W[i][t]:
                    c = W[i][t] // W[t][t]
                    W[i] = [(a - c * b + h) % m - h for a, b in zip(W[i], W[t])]
                    if W[i][t]:  # a smaller remainder: the new pivot
                        W[t], W[i] = W[i], W[t]
                        done = False
            for j in range(t + 1, n):
                if W[t][j]:
                    c = W[t][j] // W[t][t]
                    for row in W:
                        row[j] = (row[j] - c * row[t] + h) % m - h
                    Vt[j] = [(a - c * b) % m for a, b in zip(Vt[j], Vt[t])]
                    if inverse:  # V⁻¹ gains c times row j in row t
                        Vi[t] = [(a + c * b) % m for a, b in zip(Vi[t], Vi[j])]
                    if W[t][j]:
                        for row in W:
                            row[t], row[j] = row[j], row[t]
                        Vt[t], Vt[j] = Vt[j], Vt[t]
                        if inverse:
                            Vi[t], Vi[j] = Vi[j], Vi[t]
                        done = False
            if done:
                # the pivot must divide the trailing block; else fold a row in
                p = W[t][t]
                rest = range(t + 1, n) if abs(p) > 1 else ()
                bad = next((i for i in rest if any(x % p for x in W[i][t + 1 :])), None)
                if bad is None:
                    break
                W[t] = [(a + b + h) % m - h for a, b in zip(W[t], W[bad])]
        pivots.append(gcd(W[t][t], m))
    return pivots, Vt, Vi


def _factor_group(pivots, det: int):
    """G from the pivots, and the pivot indices of its factors (decreasing)."""
    if prod(pivots) != det:
        raise ValueError(f"{det} is not the absolute determinant")
    keep = [t for t in reversed(range(len(pivots))) if pivots[t] > 1]
    return FinAbGroup(tuple(pivots[t] for t in keep)), keep


def invariant_factor_group(R, det: int):
    """The group Z^n / (row span of R) in invariant-factor form, for a square
    R with |det R| = det > 0.

    One ``smith_with_inverses`` of R modulo det: U·R·V = diag(w) (mod det)
    makes x -> Vᵀ·x the map onto the factors.  Returns (G, to, frm): the
    kept columns of V, as rows, which map Z^n onto G's coordinates, and the
    kept rows of V⁻¹, as a matrix with one column per factor of G.
    """
    pivots, Vt, Vi = smith_with_inverses(R, det, inverse=True)
    G, keep = _factor_group(pivots, det)
    return G, [Vt[t] for t in keep], [[Vi[t][r] for t in keep] for r in range(len(R))]


def dual_quotient(M, det: int):
    """The group Z^n / (column span of M) and dual generators, for a square M
    with |det M| = det > 0.

    ``smith_with_inverses`` modulo m = det², whose entries stay below m on any
    basis; only V's columns are kept.  Returns (G, cols) with G in
    invariant-factor form and cols one integer column v_j per factor d_j,
    reduced into [0, d_j): M·v_j = 0 (mod d_j), and g maps to the class of
    sum_j g_j M·v_j / d_j isomorphically onto Z^n / M Z^n.  For M v_j =
    w_j U⁻¹e_j + m z, where m / d_j is a multiple of det, so of the exponent,
    and w_j / d_j is a unit mod d_j: the class of M v_j / d_j is a unit times
    that of U⁻¹e_j, the j-th generator.
    """
    if det < 1:
        raise ValueError("det must be positive")
    pivots, Vt, _ = smith_with_inverses(M, det * det)
    G, keep = _factor_group(pivots, det)
    return G, [[Vt[t][r] % pivots[t] for t in keep] for r in range(len(M))]


def _kernel_rows(A, moduli, width: int) -> list[tuple[int, ...]]:
    """The row HNF of {x in Z^width : A·x = 0 (mod moduli)}, one modulus per
    row of A.

    One ``hermite_rows`` of [Aᵀ | I] stacked on the rows moduli[a]·e_a, in
    Z^(s + width), s = len(A): a row (0, x) lies in that lattice exactly when
    x is in the kernel, so the rows with their pivot past column s, cut to
    their last width entries, are the kernel's HNF.
    """
    s = len(A)
    rows = [[A[a][i] for a in range(s)] + [int(i == j) for j in range(width)] for i in range(width)]
    rows += [[moduli[a] if b == a else 0 for b in range(s + width)] for a in range(s)]
    return [row[s:] for row in hermite_rows(rows, s + width)[s:]]


def hermite_rows(rows: list[list[int]], width: int) -> tuple[tuple[int, ...], ...]:
    """Row HNF of the lattice spanned by ``rows`` inside Z^width.

    Requires the lattice to have full rank (always true here because group
    relations are appended); result is upper triangular with positive pivots
    and entries above each pivot reduced into [0, pivot).
    """
    work = [list(map(int, r)) for r in rows if any(r)]
    out: list[list[int]] = []
    for j in range(width):
        pool = [r for r in work if r[j]]
        work = [r for r in work if not r[j]]
        if not pool:
            raise ValueError("lattice not of full rank")
        piv = pool.pop()
        for r in pool:
            # gcd combination in column j
            while r[j]:
                if abs(r[j]) < abs(piv[j]):
                    piv, r = r, piv
                q = r[j] // piv[j]
                for k in range(width):
                    r[k] -= q * piv[k]
            if any(r):
                work.append(r)
        if piv[j] < 0:
            piv = [-c for c in piv]
        out.append(piv)
    # reduce entries above pivots, leftmost pivot first: subtracting a pivot
    # row touches columns to its right, which later passes then normalize
    for i in range(width):
        p = out[i][i]
        for r in out[:i]:
            q = r[i] // p
            if q:
                for k in range(width):
                    r[k] -= q * out[i][k]
    return tuple(tuple(r) for r in out)


# -- groups -------------------------------------------------------------------


class FinAbGroup:
    """Product of cyclic groups Z_{n_1} x ... x Z_{n_t}, n_t | ... | n_1."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        message = "invariant factors must be integers"
        try:
            factors = tuple(as_integer(n, message) for n in factors)
        except TypeError:
            raise ValueError(message) from None
        for n in factors:
            if n < 2:
                raise ValueError("invariant factors must be >= 2")
        for a, b in zip(factors, factors[1:]):
            if a % b != 0:
                raise ValueError(f"divisibility chain violated: {b} does not divide {a}")
        self.factors = factors

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def order(self) -> int:
        return prod(self.factors)

    @property
    def exponent(self) -> int:
        return self.factors[0] if self.factors else 1

    def zero(self) -> tuple[int, ...]:
        return tuple(0 for _ in self.factors)

    def reduce(self, g) -> tuple[int, ...]:
        return tuple(map(mod, map(int, g), self.factors))

    def add(self, a, b) -> tuple[int, ...]:
        return tuple(map(mod, map(add, a, b), self.factors))

    def neg(self, a) -> tuple[int, ...]:
        return tuple(map(mod, map(neg, a), self.factors))

    def sub(self, a, b) -> tuple[int, ...]:
        return tuple(map(mod, map(sub, a, b), self.factors))

    def scale(self, k: int, a) -> tuple[int, ...]:
        return tuple(map(mod, map(mul, itertools.repeat(k), a), self.factors))

    def element_order(self, a) -> int:
        return lcm(1, *(n // gcd(n, x) for x, n in zip(a, self.factors)))

    def elements(self) -> list[tuple[int, ...]]:
        return list(itertools.product(*[range(n) for n in self.factors]))

    def basis(self) -> list[tuple[int, ...]]:
        """The standard generators e_1, ..., e_t."""
        t = self.rank
        return [tuple(int(i == j) for j in range(t)) for i in range(t)]

    def times(self, other: "FinAbGroup") -> "FinAbGroup":
        """Direct product, renormalized to invariant-factor form."""
        g, _, _ = canonical_presentation(self.factors + other.factors)
        return g

    def __eq__(self, other):
        return isinstance(other, FinAbGroup) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        if not self.factors:
            return "Z1"
        return "x".join(f"Z{n}" for n in self.factors)

    def to_json(self):
        return {"factors": list(self.factors)}


@lru_cache(maxsize=None)
def _canonical_presentation_cached(factors: tuple[int, ...]):
    t = len(factors)
    diagonal = [[factors[i] if i == j else 0 for j in range(t)] for i in range(t)]
    return invariant_factor_group(diagonal, abs(prod(factors)))


def canonical_presentation(factors):
    """Invariant-factor group for Z_{f_1} x ... x Z_{f_k} plus coordinate maps.

    Returns (G, to_canon, from_canon): to_canon maps raw coordinates to G's
    coordinates, from_canon maps back (both plain integer matrices, applied
    mod the target's factors).
    """
    return _canonical_presentation_cached(tuple(int(f) for f in factors))


# -- subgroups ----------------------------------------------------------------


class Subgroup:
    """Subgroup of a FinAbGroup, canonicalized by its coordinate-lattice HNF."""

    __slots__ = ("ambient", "lattice", "_elems", "_gens")

    def __init__(self, ambient: FinAbGroup, gens):
        self.ambient = ambient
        t = ambient.rank
        rows = [
            [x % n for x, n in zip(g, ambient.factors)]
            for g in _integer_rows(gens, t, "generator coordinates")
        ]
        rows += [[ambient.factors[i] if i == j else 0 for j in range(t)] for i in range(t)]
        self.lattice = hermite_rows(rows, t) if t else ()
        self._elems = None
        self._gens = None

    @property
    def order(self) -> int:
        idx = prod(self.lattice[i][i] for i in range(len(self.lattice)))
        return self.ambient.order // idx

    def gens(self) -> list[tuple[int, ...]]:
        """The nonzero lattice rows, reduced; computed once, a fresh list each call."""
        if self._gens is None:
            self._gens = tuple(filter(any, map(self.ambient.reduce, self.lattice)))
        return list(self._gens)

    def coefficients(self, g) -> list[int] | None:
        """Integers c with sum_i c_i lattice[i] = g, or None if g is outside.

        Ascending back-substitution through the triangular lattice.
        """
        g = self.ambient.reduce(g)
        coeff: list[int] = []
        for j in range(len(g)):
            rem = g[j] - sum(coeff[i] * self.lattice[i][j] for i in range(j))
            if rem % self.lattice[j][j]:
                return None
            coeff.append(rem // self.lattice[j][j])
        return coeff

    def contains(self, g) -> bool:
        return self.coefficients(g) is not None

    def coset_representatives(self) -> list[tuple[int, ...]]:
        """One element of each coset other than the subgroup itself.

        The lattice is upper triangular with pivots d_j dividing n_j, so the
        box 0 <= x_j < d_j meets each coset exactly once; zero is skipped.
        """
        box = itertools.product(*[range(row[j]) for j, row in enumerate(self.lattice)])
        next(box)
        return list(box)

    def elements(self) -> tuple[tuple[int, ...], ...]:
        """The members in sorted order, closed once and kept."""
        if self._elems is None:
            if self.order > SUBGROUP_GUARD:
                raise GuardError(f"subgroup order {self.order} exceeds guard")
            G = self.ambient
            seen = {G.zero()}
            frontier = [G.zero()]
            gens = self.gens()
            while frontier:
                nxt = []
                for x in frontier:
                    for g in gens:
                        y = G.add(x, g)
                        if y not in seen:
                            seen.add(y)
                            nxt.append(y)
                frontier = nxt
            self._elems = tuple(sorted(seen))
        return self._elems

    def key(self):
        return (self.ambient.factors, self.lattice)

    def __eq__(self, other):
        return isinstance(other, Subgroup) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Subgroup({self.ambient}, order={self.order})"

    def to_json(self):
        return {"ambient": self.ambient.to_json(), "gens": [list(g) for g in self.gens()]}


def trivial_subgroup(G: FinAbGroup) -> Subgroup:
    return Subgroup(G, [])


def full_subgroup(G: FinAbGroup) -> Subgroup:
    return Subgroup(G, G.basis())


def all_subgroups(G: FinAbGroup, admissible=None) -> list[Subgroup]:
    """Subgroups by closure search, sorted by (order, lattice); duplicate-free.

    The search starts at the trivial subgroup and extends each subgroup H it
    reaches to H + <g>, for one g from each coset g + H other than H itself
    (H + <g> = H + <g + h>), namely the coset's representative
    ``H.coset_representatives()`` lists.  With ``admissible`` given, H is
    extended only by the g with ``admissible(H.gens(), g)``.

    Each candidate K = H + <g> is first closed as a list of elements: the
    cosets H + kg for k = 0, 1, ... up to the first k with kg in H, which
    are distinct and exhaust K.  Two candidates are the same subgroup exactly
    when their sorted element tuples agree, so the search deduplicates on that
    tuple and builds a ``Subgroup`` (one ``hermite_rows``) only for a tuple
    not seen before.  The same tuple, rebuilt from G's own element tuples,
    is the new subgroup's ``elements()``: each subgroup kept holds one
    container of shared elements.

    A representative g' in a coset H + kg of an earlier candidate's closure,
    with k prime to that closure's order m = |K : H|, is skipped: K/H is
    cyclic of order m, so H + <g'> = H + <kg> = K, already found.  On a
    cyclic group this keeps the closures from H to one per subgroup above
    it rather than one per coset.

    Contract: a wanted subgroup K is returned if, for every reached H < K,
    every g in K \\ H is admissible (K \\ H is a union of cosets of H, so one
    representative lies in it, and H + <g> is a reached subgroup of K larger
    than H; induction on |K : H|).  Without ``admissible`` every subgroup is
    returned.  The isotropy predicates meet it: they ask q(g) = 0 (or
    b(g, g) = 0) and b(g, h) = 0 for the generators h of H, and every g of an
    isotropic (or self-orthogonal) K >= H has both.  They also reach nothing
    else, since q(ng + h) = n²q(g) + q(h) + n·b(g, h) and, b symmetric,
    b(ng + h, n'g + h') = nn'·b(g, g) + n·b(g, h') + n'·b(g, h) + b(h, h').
    """
    if G.order > SUBGROUP_GUARD:
        raise GuardError(f"group order {G.order} exceeds guard {SUBGROUP_GUARD}")
    add = G.add
    triv = trivial_subgroup(G)
    shared = {x: x for x in G.elements()}
    triv._elems = (shared[G.zero()],)
    found = {triv._elems: triv}
    frontier = [triv]
    while frontier:
        nxt = []
        for H in frontier:
            gens, elems = H.gens(), H._elems
            members, size = set(elems), len(elems)
            generating: set = set()
            for g in H.coset_representatives():
                if g in generating or (admissible is not None and not admissible(gens, g)):
                    continue
                closure = list(elems)
                x = g
                while x not in members:
                    closure += [add(h, x) for h in elems]
                    x = add(x, g)
                m = len(closure) // size
                for k in range(2, m):
                    if gcd(k, m) == 1:
                        generating.update(closure[k * size:(k + 1) * size])
                closure.sort()
                closure = tuple(closure)
                if closure not in found:
                    closure = tuple(map(shared.__getitem__, closure))
                    K = found[closure] = Subgroup(G, gens + [g])
                    K._elems = closure
                    nxt.append(K)
        frontier = nxt
    return sorted(found.values(), key=lambda s: (s.order, s.lattice))


def quotient(G: FinAbGroup, H: Subgroup):
    """(Q, projection Hom, coset representatives) for G/H."""
    if H.ambient != G:
        raise ValueError("subgroup of a different group")
    # rows of H.lattice span the coset lattice, of index |G| / |H|
    Qgrp, to, _ = invariant_factor_group(H.lattice, G.order // H.order)
    proj = Hom(G, Qgrp, to, check=False)
    reps: dict[tuple, tuple] = {}
    for g in sorted(G.elements()):
        v = proj.apply(g)
        if v not in reps:
            reps[v] = g
    return Qgrp, proj, [reps[v] for v in sorted(reps)]


# -- homomorphisms ------------------------------------------------------------


class Hom:
    """Homomorphism given by an integer matrix acting on coordinates.

    apply(g)_j = sum_i matrix[j][i] * g_i  (mod codomain factor j).
    """

    __slots__ = ("domain", "codomain", "matrix")

    def __init__(self, domain: FinAbGroup, codomain: FinAbGroup, matrix, check=True):
        self.domain = domain
        self.codomain = codomain
        rows = _integer_rows(matrix, domain.rank, "hom matrix entries")
        if len(rows) != codomain.rank:
            raise ValueError(f"hom matrix must have {codomain.rank} rows")
        self.matrix = tuple(
            tuple(x % m for x in row) for row, m in zip(rows, codomain.factors)
        )
        if check and not self.is_well_defined():
            raise ValueError("matrix does not respect the domain relations")

    def is_well_defined(self) -> bool:
        for i, n in enumerate(self.domain.factors):
            for j, m in enumerate(self.codomain.factors):
                if (n * self.matrix[j][i]) % m:
                    return False
        return True

    def apply(self, g) -> tuple[int, ...]:
        g = self.domain.reduce(g)
        return tuple(map(mod, [sum(map(mul, row, g)) for row in self.matrix], self.codomain.factors))

    def compose(self, first: "Hom") -> "Hom":
        """self after first."""
        if first.codomain != self.domain:
            raise ValueError("composition mismatch")
        # column i is the image of the i-th domain generator: read so, the
        # matrix keeps its shape when the middle group is trivial
        images = [self.apply(first.apply(e)) for e in first.domain.basis()]
        M = [[image[j] for image in images] for j in range(self.codomain.rank)]
        return Hom(first.domain, self.codomain, M, check=False)

    @staticmethod
    def identity(G: FinAbGroup) -> "Hom":
        t = G.rank
        return Hom(G, G, _identity(t), check=False)

    def is_bijective(self) -> bool:
        """Between groups of one order, bijective iff the basis images span
        the codomain: one Hermite form of the matrix's columns."""
        if self.domain.order != self.codomain.order:
            return False
        images = list(zip(*self.matrix))
        return Subgroup(self.codomain, images).order == self.codomain.order

    def __eq__(self, other):
        return (
            isinstance(other, Hom)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((self.domain.factors, self.codomain.factors, self.matrix))

    def __repr__(self):
        return f"Hom({self.domain} -> {self.codomain}, {self.matrix})"


def congruence_kernel(G: FinAbGroup, rows, moduli) -> Subgroup:
    """{g in G : sum_i rows[a][i] g_i = 0 (mod moduli[a]) for all a}."""
    t = G.rank
    rows = _integer_rows(rows, t, "congruence coefficients")
    moduli = [as_integer(e, "moduli must be integers") for e in moduli]
    if len(moduli) != len(rows) or any(e < 1 for e in moduli):
        raise ValueError("each row needs one modulus >= 1")
    if not rows or t == 0:
        return full_subgroup(G)
    for row, e in zip(rows, moduli):
        if any(n * x % e for n, x in zip(G.factors, row)):
            raise ValueError("condition not constant on cosets of the relations")
    return Subgroup(G, _kernel_rows(rows, moduli, t))


def hom_kernel_image(f: Hom) -> tuple[Subgroup, Subgroup]:
    ker = congruence_kernel(f.domain, f.matrix, f.codomain.factors)
    img = Subgroup(f.codomain, [f.apply(e) for e in f.domain.basis()])
    return ker, img


def homs(dom: FinAbGroup, cod: FinAbGroup) -> list[Hom]:
    """All homomorphisms dom -> cod by direct enumeration."""
    s, t = dom.rank, cod.rank
    if s == 0 or t == 0:
        return [Hom(dom, cod, [[0] * s for _ in range(t)], check=False)]
    n, m = dom.factors, cod.factors
    choices = []
    for j in range(t):
        for i in range(s):
            step = m[j] // gcd(m[j], n[i])
            choices.append(range(0, m[j], step))
    total = prod(len(c) for c in choices)
    if total > HOM_GUARD:
        raise GuardError(f"homomorphism count {total} exceeds guard {HOM_GUARD}")
    out = []
    for flat in itertools.product(*choices):
        M = [list(flat[j * s : (j + 1) * s]) for j in range(t)]
        out.append(Hom(dom, cod, M, check=False))
    return out


def automorphisms(G: FinAbGroup) -> list[Hom]:
    """All automorphisms of G by brute force: the reference for ``forms.isometries``."""
    return [f for f in homs(G, G) if f.is_bijective()]


def product_with_maps(A: FinAbGroup, B: FinAbGroup):
    """Direct product in invariant-factor form with pairing and splitting maps."""
    raw_factors = A.factors + B.factors
    P, to_canon, from_canon = canonical_presentation(raw_factors)
    ra = A.rank

    def pair(a, b):
        raw = tuple(a) + tuple(b)
        return P.reduce([sum(map(mul, row, raw)) for row in to_canon])

    def split(p):
        raw = [sum(map(mul, row, p)) for row in from_canon]
        return A.reduce(raw[:ra]), B.reduce(raw[ra:])

    return P, pair, split


# -- characters ---------------------------------------------------------------


class Character:
    """chi(g) = e^(2 pi i sum_i a_i g_i / n_i), stored by exponent tuple a."""

    __slots__ = ("ambient", "exponents")

    def __init__(self, ambient: FinAbGroup, exponents):
        self.ambient = ambient
        (exps,) = _integer_rows([exponents], ambient.rank, "character exponents")
        self.exponents = tuple(a % n for a, n in zip(exps, ambient.factors))

    def phase(self, g) -> Fraction:
        """Exponent of chi(g) mod 1, as sum_i a_i g_i (e / n_i) mod e over e = exp."""
        e = self.ambient.exponent
        k = sum(a * x * (e // n) for a, x, n in zip(self.exponents, g, self.ambient.factors))
        return Fraction(k % e, e)

    def eval(self, g) -> Cyclotomic:
        return rational_phase(self.phase(g))

    def mul(self, other: "Character") -> "Character":
        return Character(
            self.ambient,
            [a + b for a, b in zip(self.exponents, other.exponents)],
        )

    def inverse(self) -> "Character":
        return Character(self.ambient, [-a for a in self.exponents])

    def order(self) -> int:
        return self.ambient.element_order(self.exponents)

    def kernel(self) -> Subgroup:
        n = self.ambient.factors
        e = self.ambient.exponent
        row = [self.exponents[i] * (e // n[i]) for i in range(len(n))]
        return congruence_kernel(self.ambient, [row], [e])

    def __eq__(self, other):
        return (
            isinstance(other, Character)
            and self.ambient == other.ambient
            and self.exponents == other.exponents
        )

    def __hash__(self):
        return hash((self.ambient.factors, self.exponents))

    def __repr__(self):
        return f"Character({self.ambient}, {self.exponents})"


def dual_characters(G: FinAbGroup) -> list[Character]:
    return [Character(G, e) for e in G.elements()]


def abelian_structure(elements, op, identity):
    """Invariant factors of a finite abelian group given by a multiplication op.

    Returns (G, coords) with coords mapping each element to G-coordinates;
    the map is an isomorphism onto G.
    """
    elems = list(elements)
    reps: dict = {identity: ()}
    gens = []
    relations = []  # triangular relation rows over the generator exponents
    for x in elems:
        if x in reps:
            continue
        i = len(gens)
        gens.append(x)
        old = list(reps.items())
        reps = {e: c + (0,) for e, c in old}
        # minimal m with x^m landing in the previous subgroup
        y = x
        m = 1
        while y not in reps:
            y = op(y, x)
            m += 1
        rel = [0] * i + [m]
        prev = reps[y]
        relations = [r + [0] for r in relations]
        relations.append([rel[a] - (prev[a] if a < i else 0) for a in range(i + 1)])
        power = identity
        new = {}
        for k in range(1, m):
            power = op(power, x)
            for e, c in reps.items():
                v = op(e, power)
                if v not in reps:
                    new[v] = c[:i] + (c[i] + k,)
        reps.update(new)
    k = len(gens)
    G, to, _ = invariant_factor_group(relations, prod(relations[a][a] for a in range(k)))
    coords = {}
    for e, c in reps.items():
        coords[e] = tuple(
            sum(row[a] * c[a] for a in range(k)) % n for row, n in zip(to, G.factors)
        )
    return G, coords


def subgroup_group(H: Subgroup):
    """Present a subgroup as a standalone group.

    Returns (J, embed, section): J in invariant-factor form, embed mapping
    J-coordinates to ambient elements, section inverting it on H's elements.
    """
    G = H.ambient
    t = G.rank
    gens = H.gens()
    k = len(gens)
    # the relation lattice {c in Z^k : sum_a c_a gens[a] = 0 in G}, by its HNF
    A = [[gens[a][i] for a in range(k)] for i in range(t)]
    rel = _kernel_rows(A, G.factors, k)
    J, sect_rows, frm = invariant_factor_group(rel, prod(rel[a][a] for a in range(k)))

    def embed(y):
        c = [sum(row[j] * y[j] for j in range(J.rank)) for row in frm]
        out = G.zero()
        for a in range(k):
            out = G.add(out, G.scale(c[a], gens[a]))
        return out

    def section(g):
        coeff = H.coefficients(g)
        if coeff is None:
            raise ValueError("element outside the subgroup")
        c = [coeff[i] for i in range(t) if any(G.reduce(H.lattice[i]))]
        return tuple(
            sum(row[a] * c[a] for a in range(k)) % n
            for row, n in zip(sect_rows, J.factors)
        )

    return J, embed, section
