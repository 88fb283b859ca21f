"""Even positive-definite lattices and their finite quadratic invariants.

A lattice is stored as its integer Gram matrix.  The dual quotient carries a
quadratic form (half the norm of a coset representative, mod 1), and the
module provides the constructions that move between lattices and forms:
discriminant extraction, dual-coset gluing, a table of standard root and
scaled-cubic lattices, realization of an arbitrary nondegenerate form, and
the subgroup correspondence for intermediate lattices.

Every Gram product goes through ``_congruent(A, gram)``, the integer matrix
A·gram·Aᵀ: rational vectors are scaled to integer numerators first and the
result is divided by the common denominator once.

``realize`` builds one lattice per indecomposable and sums them.  By Nikulin
(Math. USSR Izv. 14, 1980, Cor. 1.10.2) an even lattice with form q exists in
every rank r > l(q) with r = sigma(q) mod 8, and by Milgram in no rank of
another residue.  So a cyclic part (p^k_s, 2^k_m) is searched at rank
r = sigma mod 8 (8 when sigma = 0), then r + 8, with sigma read off
``forms._tabulate``'s closed-form x^3.  At each rank the candidates are, in
order, the named root lattices A_r, D_r, E_r, then weighted trees with at most
three arms (norm 2w on the diagonal, -1 on each edge; Conway-Sloane, SPLAG
ch. 15) by increasing excess sum(w - 1) of their fixed weights, fewest
non-unit weights first, at most TREE_SEARCH_BOUND of them.  The determinant
is linear in one free weight, which is solved for.  A candidate is kept when
its determinant is |G|, its Smith factors are G's, its form at a generator is
a value of q at a generator, and its discriminant form is equivalent to q.  The pair types 2^k2^k_i/ii glue scaled copies of Z to
the lattice found for 2^k_-1 or 2^k_-3, within rank 16.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, count
from math import gcd, lcm, prod

from .abelian import (
    GuardError,
    Subgroup,
    hermite_rows,
    invariant_factor_group,
)
from .forms import (
    DISCRIMINANT_GUARD,
    Pairing,
    QuadraticForm,
    _parse_descriptor,
    _tabulate,
    form_denominator,
    forms_equivalent,
    indecomposable_form,
)
from .scalars import as_integer, factorize, json_list, root_of_unity

TREE_SEARCH_BOUND = 20_000  # weighted trees tried per rank
LATTICE_RANK_GUARD = 256  # largest rank of a named A or D lattice
FORM_ORDER_GUARD = 512
FORM_RANK_GUARD = 4


def _times(A, gram) -> list[list[int]]:
    """A·gram for integer rows A and a symmetric integer gram."""
    return [[sum(a * g for a, g in zip(row, col)) for col in gram] for row in A]


def _congruent(A, gram) -> list[list[int]]:
    """A·gram·Aᵀ: the Gram matrix of the integer vectors A's rows spell."""
    return [[sum(x * y for x, y in zip(r, s)) for s in A] for r in _times(A, gram)]


def _numerators(vectors) -> tuple[list[list[int]], int]:
    """(W, den) with den the least common denominator and W = den·vectors."""
    den = lcm(1, *(Fraction(c).denominator for v in vectors for c in v))
    return [[int(c * den) for c in v] for v in vectors], den


def _leading_minors(rows) -> list[int]:
    """Leading principal minors by fraction-free (Bareiss) elimination, up to
    the first that is not positive; all n positive iff definite (Sylvester)."""
    n = len(rows)
    work = [list(row) for row in rows]
    minors, prev = [], 1
    for i in range(n):
        piv = work[i][i]
        if piv <= 0:
            return minors
        minors.append(piv)
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                work[r][c] = (piv * work[r][c] - work[r][i] * work[i][c]) // prev
        prev = piv
    return minors


class Lattice:
    """Integer Gram matrix, symmetric, even on the diagonal, positive definite."""

    __slots__ = ("gram", "det")

    def __init__(self, gram):
        message = "gram entries must be integers"
        rows = tuple(tuple(as_integer(x, message) for x in row) for row in gram)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("gram matrix must be square")
        for i in range(n):
            if rows[i][i] % 2:
                raise ValueError("diagonal entries must be even")
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("gram matrix must be symmetric")
        minors = _leading_minors(rows)
        if len(minors) < n:
            raise ValueError("gram matrix must be positive definite")
        self.gram = rows
        self.det = minors[-1] if n else 1

    @property
    def rank(self) -> int:
        return len(self.gram)

    def direct_sum(self, other: "Lattice") -> "Lattice":
        n, m = self.rank, other.rank
        out = [[0] * (n + m) for _ in range(n + m)]
        for i in range(n):
            for j in range(n):
                out[i][j] = self.gram[i][j]
        for i in range(m):
            for j in range(m):
                out[n + i][n + j] = other.gram[i][j]
        return Lattice(out)

    def key(self):
        return self.gram

    def __eq__(self, other):
        return isinstance(other, Lattice) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    def __repr__(self):
        return f"Lattice(rank={self.rank}, det={self.det})"

    def to_json(self):
        return {"gram": [list(r) for r in self.gram]}

    @staticmethod
    def from_json(obj) -> "Lattice":
        try:
            message = "gram entries must be integers"
            gram = [
                [as_integer(x, message) for x in json_list(row, "a Gram row")]
                for row in json_list(obj["gram"], "'gram'")
            ]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed lattice JSON: {exc!r}") from exc
        return Lattice(gram)


class DualVector:
    """Rational coordinates with respect to the lattice basis."""

    __slots__ = ("lattice", "coords")

    def __init__(self, lattice: Lattice, coords):
        cs = tuple(Fraction(c) for c in coords)
        if len(cs) != lattice.rank:
            raise ValueError("coordinate length must match the lattice rank")
        self.lattice = lattice
        self.coords = cs

    def dot(self, other: "DualVector") -> Fraction:
        if other.lattice.gram != self.lattice.gram:
            raise ValueError("vectors live in different lattices")
        W, den = _numerators((self.coords, other.coords))
        return Fraction(_congruent(W, self.lattice.gram)[0][1], den * den)

    def norm(self) -> Fraction:
        return self.dot(self)

    def in_dual(self) -> bool:
        """Pairing with every lattice vector is an integer."""
        W, den = _numerators([self.coords])
        return all(x % den == 0 for x in _times(W, self.lattice.gram)[0])

    def is_lattice_vector(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)

    def scale(self, k: int) -> "DualVector":
        return DualVector(self.lattice, tuple(k * c for c in self.coords))

    def __repr__(self):
        return f"DualVector({self.coords})"


# -- discriminant data ---------------------------------------------------------


def discriminant(L: Lattice):
    """(dual quotient group, its quadratic form, coset representatives).

    The group is Z^n modulo the Gram column span; the form is half the norm
    of any representative, mod 1.  Representative i spans the i-th invariant
    factor.  With e the exponent, row j of the integer matrix N is e times
    representative j, so q(g) = gᵀRg / 2e² mod 1 for R = N·gram·Nᵀ.  Over den =
    ``form_denominator(G)``, the numerator gᵀRg·den / 2e² must be an integer.
    """
    n = L.rank
    if L.det > DISCRIMINANT_GUARD:
        raise GuardError(f"discriminant order {L.det} exceeds guard")
    G, _, _, cols = invariant_factor_group([list(r) for r in L.gram])
    reps = tuple(
        DualVector(L, tuple(Fraction(cols[r][j], d) for r in range(n)))
        for j, d in enumerate(G.factors)
    )
    e = G.exponent
    N = [[e // d * cols[r][j] for r in range(n)] for j, d in enumerate(G.factors)]
    R = _congruent(N, L.gram)
    den = form_denominator(G)
    scale = 2 * e * e // den  # den is e or 2e
    num = {}
    for g in G.elements():
        x = sum(gi * gj * r for gi, row in zip(g, R) for gj, r in zip(g, row))
        if x % scale:
            raise ValueError(f"form values must lie in (1/{den})Z")
        num[g] = x // scale
    return G, QuadraticForm.from_numerators(G, num), reps


# -- gluing ----------------------------------------------------------------------


def glue(L: Lattice, cosets) -> Lattice:
    """Enlarge by dual cosets with even norms and integral mutual products."""
    vecs = []
    for c in cosets:
        v = c if isinstance(c, DualVector) else DualVector(L, c)
        if v.lattice.gram != L.gram:
            raise ValueError("coset belongs to a different lattice")
        vecs.append(v.coords)
    if not vecs:
        return L
    n = L.rank
    W, den = _numerators(vecs)
    WGW = _congruent(W, L.gram)
    for i, row in enumerate(_times(W, L.gram)):
        if any(x % den for x in row):
            raise ValueError("coset representative is not in the dual")
        if WGW[i][i] % (2 * den * den):
            raise ValueError("coset norm must be an even integer")
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            if WGW[i][j] % (den * den):
                raise ValueError("coset products must be integers")
    rows = [[den if i == j else 0 for j in range(n)] for i in range(n)] + W
    H = hermite_rows(rows, n)
    index = den**n // prod(H[i][i] for i in range(n))
    new = _congruent(H, L.gram)
    if any(x % (den * den) for row in new for x in row):
        raise ValueError("glued Gram matrix is not integral")
    out = Lattice([[x // (den * den) for x in row] for row in new])
    if out.det * index * index != L.det:
        raise RuntimeError("glue determinant law violated")
    return out


# -- named lattices -------------------------------------------------------------


def _gram_from_roots(roots) -> Lattice:
    return Lattice(
        [[sum(a * b for a, b in zip(r, s)) for s in roots] for r in roots]
    )


_E_EDGES = {
    6: ((1, 3), (3, 4), (4, 5), (5, 6), (2, 4)),
    7: ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4)),
    8: ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)),
}


def named(name: str) -> Lattice:
    """Standard lattices: A<n>, D<n>, E6, E7, E8, sqrt2n:<n>.

    The rank n of A<n> and D<n> is checked against LATTICE_RANK_GUARD before
    any row is built.
    """
    s = str(name).strip().replace("_", "")
    if s in ("E6", "E7", "E8"):
        n = int(s[1])
        gram = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for a, b in _E_EDGES[n]:
            gram[a - 1][b - 1] = gram[b - 1][a - 1] = -1
        return Lattice(gram)
    if s[:1] in ("A", "D") and s[1:].isdigit() and int(s[1:]) > LATTICE_RANK_GUARD:
        raise GuardError(f"lattice rank {s[1:]} exceeds guard {LATTICE_RANK_GUARD}")
    if s.startswith("A") and s[1:].isdigit():
        n = int(s[1:])
        if n < 1:
            raise ValueError("A-series needs n >= 1")
        gram = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n - 1):
            gram[i][i + 1] = gram[i + 1][i] = -1
        return Lattice(gram)
    if s.startswith("D") and s[1:].isdigit():
        n = int(s[1:])
        if n < 2:
            raise ValueError("D-series needs n >= 2")
        roots = [
            [1 if c == i else -1 if c == i + 1 else 0 for c in range(n)]
            for i in range(n - 1)
        ]
        roots.append([1 if c >= n - 2 else 0 for c in range(n)])
        return _gram_from_roots(roots)
    low = s.lower()
    for prefix in ("sqrt2n:", "sqrt2n(", "sqrt2n"):
        if low.startswith(prefix) and low[len(prefix) :].rstrip(")").isdigit():
            n = int(low[len(prefix) :].rstrip(")"))
            if n < 1:
                raise ValueError("sqrt2n needs n >= 1")
            return Lattice([[2 * n]])
    raise ValueError(f"unknown lattice name {name!r}")


# -- realization of quadratic forms ----------------------------------------------


def _class_with_norm(L: Lattice, target: Fraction) -> DualVector:
    """A dual class whose norm is the target mod 2."""
    _, q, reps = discriminant(L)
    want = target / 2 * q.den % q.den  # not an integer when no class can match
    g = next((g for g, k in q.num.items() if k == want), None)
    if g is None:
        raise RuntimeError("no dual class with the requested norm")
    return DualVector(L, [sum(gj * r.coords[i] for gj, r in zip(g, reps)) for i in range(L.rank)])


def _verify_realization(L: Lattice, q: QuadraticForm) -> bool:
    """The discriminant form of L is equivalent to q."""
    _, qL, _ = discriminant(L)
    return forms_equivalent(qL, q) is not None


def _trees(r: int) -> list[list[list[int]]]:
    """Adjacency lists of the trees on r vertices with at most three arms: the
    path, then T(a, b, c) with arms a >= b >= c >= 1 joined at vertex 0."""
    shapes = [(r - 1,)] + [
        (r - 1 - b - c, b, c) for c in range(1, r) for b in range(c, (r - c + 1) // 2)
    ]
    trees = []
    for arms in shapes:
        adj = [[]]
        for length in arms:
            prev = 0
            for _ in range(length):
                adj.append([prev])
                adj[prev].append(len(adj) - 1)
                prev = len(adj) - 1
        trees.append(adj)
    return trees


def _tree_weights(r: int, v: int, e: int, j: int):
    """Weights of a tree's r vertices with j non-unit weights off v, of total
    excess sum(w - 1) = e; the weight at v is set by ``_free_weight``."""
    others = [u for u in range(r) if u != v]
    for chosen in combinations(others, j):
        for cuts in combinations(range(1, e), j - 1) if j else [()]:
            weights = [1] * r
            for u, a, b in zip(chosen, (0,) + cuts, cuts + (e,)):
                weights[u] += b - a
            yield weights


def _free_weight(adj, weights, v: int, N: int):
    """The weight at v that gives the tree's Gram determinant N, or None.

    Rooted at v, a subtree's determinant A(u) and that of the subtree less u,
    B(u) = prod A(c) over u's children c, follow by expanding along u's row:
    A(u) = 2 w_u B(u) - S(u), with S(u) = sum_c B(c) prod_{c' != c} A(c').  The
    A(u) are the products of the pivots of leaf-to-root elimination, so T - v
    is positive definite iff every A(u) > 0.  Then det T = D0 + 2 (w - 1)
    det(T - v), with D0 its value at w = 1, is linear in w, and T is positive
    definite iff det T = N > 0.
    """
    parent = {v: None}
    order = [v]
    for u in order:
        for c in adj[u]:
            if c != parent[u]:
                parent[c] = u
                order.append(c)
    A, B = {}, {}
    for u in reversed(order):
        kids = [c for c in adj[u] if c != parent[u]]
        b = prod(A[c] for c in kids)
        s = sum(B[c] * (b // A[c]) for c in kids)
        if u == v:
            w, rem = divmod(N + s, 2 * b)
            return None if rem else w
        A[u] = 2 * weights[u] * b - s
        if A[u] <= 0:
            return None
        B[u] = b


def _candidates(r: int, N: int):
    """The rank-r lattices tried for determinant N, in search order: the named
    root lattices, then up to TREE_SEARCH_BOUND weighted trees by increasing
    excess of their fixed weights, fewest non-unit weights first."""
    yield named(f"A{r}")
    if r >= 2:
        yield named(f"D{r}")
    if r in (6, 7, 8):
        yield named(f"E{r}")
    trees = _trees(r)
    tried = 0
    for e in count():
        before = tried
        for j in range(1 if e else 0, min(e, r - 1) + 1):
            for adj in trees:
                for v in range(r):
                    for weights in _tree_weights(r, v, e, j):
                        tried += 1
                        if tried > TREE_SEARCH_BOUND:
                            return
                        w = _free_weight(adj, weights, v, N)
                        if w is None:
                            continue
                        weights[v] = w
                        gram = [[0] * r for _ in range(r)]
                        for u in range(r):
                            gram[u][u] = 2 * weights[u]
                            for c in adj[u]:
                                gram[u][c] = -1
                        yield Lattice(gram)
        if tried == before:  # rank 1: the single vertex is the free one
            return


def _realize_factor(p: int, k: int, sub) -> Lattice:
    """A lattice for one descriptor part, as parsed by ``_parse_descriptor``."""
    q_target, x3 = _tabulate(p, k, sub)
    if sub in ("i", "ii"):
        N = 2**k
        m, scalars, copies = (-1, 2, 2) if sub == "i" else (-3, 3, 1)
        ingredient = _realize_factor(2, k, m)
        gamma = _class_with_norm(ingredient, Fraction(m, N)).coords
        base = Lattice(())
        for piece in [Lattice([[N]])] * scalars + [ingredient] * copies:
            base = base.direct_sum(piece)
        # The glue vector v has first coordinate 1/N and N v lies in the base,
        # so v, e_1, ..., e_(n-1) are a basis of base + Zv.  ``glue``'s Hermite
        # basis of the same lattice stalls the Smith form in ``discriminant``
        # at 2^62^6_i.
        n = base.rank
        W, den = _numerators(
            [(Fraction(1, N),) * scalars + gamma * copies]
            + [[int(i == j) for j in range(n)] for i in range(1, n)]
        )
        L = Lattice([[x // (den * den) for x in row] for row in _congruent(W, base.gram)])
        if not _verify_realization(L, q_target):
            raise RuntimeError("realized lattice fails its discriminant check")
        return L
    G, N, den = q_target.group, q_target.group.order, q_target.den
    # a cyclic form is fixed by its value at a generator, up to unit squares
    at_generators = {value for (g,), value in q_target.num.items() if gcd(g, N) == 1}
    sigma = next(s for s in range(8) if x3 == root_of_unity(8, -s))
    low = sigma or 8
    for r in (low, low + 8):
        for L in _candidates(r, N):
            if L.det != N:
                continue
            H, _, _, cols = invariant_factor_group(L.gram)
            if H != G:
                continue
            # q at the generator cols[:, 0] / N of the dual quotient is x / 2N^2
            x = _congruent([[row[0] for row in cols]], L.gram)[0][0]
            if x * den // (2 * N * N) % den in at_generators and _verify_realization(L, q_target):
                return L
    name = f"{p}^{k}_{sub if p == 2 else '+-'[sub < 0]}"
    raise GuardError(
        f"no lattice of rank {low} or {low + 8} realizes {name} "
        f"within TREE_SEARCH_BOUND {TREE_SEARCH_BOUND} trees per rank"
    )


def _two_group_splittings(ks):
    """Ways to write a multiset of 2-power exponents as singles and equal pairs."""
    if not ks:
        yield ()
        return
    rest = list(ks[1:])
    for tail in _two_group_splittings(rest):
        yield (("single", ks[0]),) + tail
    for i, other in enumerate(rest):
        if other == ks[0]:
            remaining = rest[:i] + rest[i + 1 :]
            for tail in _two_group_splittings(remaining):
                yield (("pair", ks[0]),) + tail
            break


def _matching_descriptor(q: QuadraticForm) -> str:
    """A product of indecomposable descriptors equivalent to the form."""
    G = q.group
    if G.order > FORM_ORDER_GUARD:
        raise GuardError(f"form order {G.order} exceeds guard")
    if G.rank > FORM_RANK_GUARD:
        raise GuardError(f"form rank {G.rank} exceeds guard")
    if not q.polarization().is_nondegenerate():
        raise ValueError("only nondegenerate forms decompose into indecomposables")
    per_prime = []
    for p in factorize(G.order):
        ks = [factorize(f)[p] for f in G.factors if f % p == 0]
        options = []
        if p == 2:
            for split in set(_two_group_splittings(tuple(ks))):
                pools = []
                for kind, k in split:
                    if kind == "single":
                        pools.append(
                            [f"2^{k}_{m}" for m in ((1, 3) if k == 1 else (1, 3, -1, -3))]
                        )
                    else:
                        pools.append([f"2^{k}2^{k}_i", f"2^{k}2^{k}_ii"])
                options.extend(_products(pools))
        else:
            pools = [[f"{p}^{k}_+", f"{p}^{k}_-"] for k in ks]
            options.extend(_products(pools))
        per_prime.append(options)
    for combo in _products(per_prime):
        desc = " x ".join(part for group_part in combo for part in group_part)
        cand, _ = indecomposable_form(desc)
        if forms_equivalent(cand, q) is not None:
            return desc
    raise ValueError("no indecomposable product matches the form")


def _products(pools):
    out = [()]
    for pool in pools:
        out = [prefix + (choice,) for prefix in out for choice in pool]
    return out


def realize(target) -> Lattice:
    """An even positive-definite lattice whose discriminant form is the target.

    Accepts an indecomposable-descriptor product or a QuadraticForm (small
    orders only), and returns the direct sum of one lattice per part.  A
    cyclic part of signature sigma gets rank sigma mod 8 (8 when sigma = 0), or
    8 more when that rank has none; a pair type gets rank at most 16.  Each
    part is the first candidate, named root lattices before weighted trees
    (module docstring), whose determinant, Smith factors and discriminant form
    match the part's.  Raises GuardError, naming the part, when the search
    runs out of candidates.
    """
    if isinstance(target, QuadraticForm):
        if target.group.order == 1:
            return Lattice(())
        return realize(_matching_descriptor(target))
    desc = str(target).strip().replace("*", " x ")
    # every part is legal and within the guard before any is built
    parts = [_parse_descriptor(part) for part in desc.split(" x ")]
    lat = None
    for p, k, sub, _ in parts:
        piece = _realize_factor(p, k, sub)
        lat = piece if lat is None else lat.direct_sum(piece)
    if len(parts) > 1 and lat.det <= FORM_ORDER_GUARD:
        q, _ = indecomposable_form(desc)
        if q.group.rank <= FORM_RANK_GUARD and not _verify_realization(lat, q):
            raise RuntimeError("realized lattice fails its discriminant check")
    return lat


# -- intermediate lattices --------------------------------------------------------


def _check_embedding(L: Lattice, M: Lattice, embed) -> list[list[int]]:
    message = "embedding must be a square integer matrix"
    B = [[as_integer(x, message) for x in row] for row in embed]
    n = M.rank
    if len(B) != n or any(len(r) != n for r in B):
        raise ValueError(message)
    if _congruent(B, M.gram) != [list(r) for r in L.gram]:
        raise ValueError("embedding rows do not reproduce the sublattice Gram")
    return B


def lattice_quotient(L: Lattice, M: Lattice, embed):
    """(M/L, project, section) for a finite-index sublattice.

    ``embed`` rows are L's basis in M's coordinates.  ``project`` maps integer
    M-coordinates to quotient coordinates, ``section`` lifts them back.
    """
    B = _check_embedding(L, M, embed)
    n = M.rank
    Bt = [[B[r][c] for r in range(n)] for c in range(n)]
    G, to, frm, _ = invariant_factor_group(Bt)

    def project(v):
        return tuple(
            sum(row[r] * int(v[r]) for r in range(n)) % d for row, d in zip(to, G.factors)
        )

    def section(g):
        return tuple(sum(row[j] * int(g[j]) for j in range(G.rank)) for row in frm)

    return G, project, section


def intermediate(L: Lattice, M: Lattice, H: Subgroup, embed, pairing: Pairing):
    """(M_H, M^H): the sublattices of M matching H and its perp in M/L."""
    G, project, section = lattice_quotient(L, M, embed)
    if H.ambient != G:
        raise ValueError("subgroup must live in the quotient of M by L")
    if not (pairing.is_square and pairing.left == G):
        raise ValueError("pairing must be defined on the quotient group")
    if not pairing.is_nondegenerate():
        raise ValueError("pairing must be nondegenerate")
    n = M.rank

    def matching(sub: Subgroup) -> Lattice:
        rows = [[int(x) for x in r] for r in embed] + [list(section(h)) for h in sub.gens()]
        Bh = hermite_rows(rows, n)
        gens = [project(row) for row in Bh]
        if Subgroup(G, gens) != sub:
            raise RuntimeError("intermediate lattice misses its subgroup")
        out = Lattice(_congruent(Bh, M.gram))
        index = G.order // sub.order
        if out.det != M.det * index * index:
            raise RuntimeError("intermediate lattice index mismatch")
        return out

    return matching(H), matching(pairing.perp(H))
