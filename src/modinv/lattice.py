"""Even positive-definite lattices and their finite quadratic invariants.

A lattice is stored as its integer Gram matrix.  The dual quotient carries a
quadratic form (half the norm of a coset representative, mod 1), and the
module provides the constructions that move between lattices and forms:
discriminant extraction, dual-coset gluing, a table of standard root and
scaled-cubic lattices, realization of an arbitrary nondegenerate form, and
the subgroup correspondence for intermediate lattices.

Every Gram product goes through ``_congruent(A, gram)``, the integer matrix
A·gram·Aᵀ, built on ``abelian.mat_mul_int``: rational vectors are scaled to
integer numerators first and the result is divided by the common
denominator once.

``realize`` builds one lattice per indecomposable and sums them; a form
target is first named by ``forms.descriptor``, read off its Jordan normal
form.  By Nikulin (Math. USSR Izv. 14, 1980, Cor. 1.10.2) an even lattice
with form q exists in every rank r > l(q) with r = sigma(q) mod 8, and by
Milgram in no rank of another residue.  So a cyclic part (p^k_s, 2^k_m) is
searched at rank r = sigma mod 8 (8 when sigma = 0), then r + 8, with sigma
read off the part's normal form in closed form.  At each rank the candidates,
all of determinant |G|, are in order the named root lattices A_r, D_r, E_r of
that determinant, then weighted trees with at most three arms (norm 2w on the
diagonal, -1 on each edge; Conway-Sloane, SPLAG ch. 15) by increasing excess
sum(w - 1) of their fixed weights, fewest non-unit weights first, at most
TREE_SEARCH_BOUND of them.  The determinant is linear in one free weight,
which is solved for.  A candidate is kept when its dual quotient is G and its
discriminant normal form is the part's.  A tree whose cofactor b = det(T - v)
at the free vertex v is prime to p is screened first, with no lattice built:
x = A⁻¹e_v then generates L*/L = Z_N with b(x, x) = b / N, so the normal form
is that of the 1×1 dual Gram [[N·b]], read in closed form
(``forms._cyclic_normal_form``).  The screen only rejects; every other
candidate is built and checked in full.  The pair types 2^k2^k_i/ii glue
scaled copies of Z to the lattice found for 2^k_-1 or 2^k_-3, within rank 16.
Every check compares normal forms computed from R = N·gram·Nᵀ, the Gram of
the dual quotient's generators (``_dual_gram``), so ``realize`` builds no
table of size |G|.  ``discriminant`` passes the same generator data, q(x_j)
and the polarization read off R (``_gram_generators``), to
``forms.QuadraticForm.from_generators``, which spells the table.

The dual quotient L*/L of a Gram matrix comes from ``abelian.dual_quotient``,
the one Smith kernel of ``abelian`` run modulo det², and a lattice quotient
M/L from ``abelian.invariant_factor_group``, the same kernel modulo the index
[M : L] = sqrt(det L / det M).  Each ``Lattice`` computes its dual quotient at
most once (``_dual_quotient``): the check that accepts a realized lattice and
a later ``discriminant`` of it share one pass.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, count, product
from math import isqrt, lcm, prod

from .abelian import (
    FinAbGroup,
    GuardError,
    Subgroup,
    dual_quotient,
    hermite_rows,
    invariant_factor_group,
    mat_mul_int,
)
from .forms import (
    DISCRIMINANT_GUARD,
    NormalForm,
    Pairing,
    QuadraticForm,
    _cyclic_normal_form,
    _parse_descriptor,
    descriptor,
    form_denominator,
    normal_form,
)
from .scalars import as_integer, json_list

TREE_SEARCH_BOUND = 20_000  # weighted trees tried per rank
LATTICE_RANK_GUARD = 256  # largest rank of a named A or D lattice


def _congruent(A, gram) -> list[list[int]]:
    """A·gram·Aᵀ: the Gram matrix of the integer vectors A's rows spell (all
    zero over a rank-0 gram, where Aᵀ has no row to give the shape)."""
    if not gram:
        return [[0] * len(A) for _ in A]
    return mat_mul_int(mat_mul_int(A, gram), list(zip(*A)))


def _numerators(vectors) -> tuple[list[list[int]], int]:
    """(W, den) with den the least common denominator and W = den·vectors."""
    den = lcm(1, *(Fraction(c).denominator for v in vectors for c in v))
    return [[int(c * den) for c in v] for v in vectors], den


def _block_diagonal(grams) -> list[list[int]]:
    """The block-diagonal matrix of the square matrices in grams, in order."""
    n = sum(map(len, grams))
    out = [[0] * n for _ in range(n)]
    at = 0
    for gram in grams:
        for i, row in enumerate(gram):
            out[at + i][at : at + len(row)] = row
        at += len(gram)
    return out


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
    """Integer Gram matrix, symmetric, even on the diagonal, positive definite.

    ``_dual`` holds the dual quotient once ``_dual_quotient`` has computed it."""

    __slots__ = ("gram", "det", "_dual")

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
        self._dual = None

    @property
    def rank(self) -> int:
        return len(self.gram)

    def direct_sum(self, *others: "Lattice") -> "Lattice":
        """The orthogonal sum of self and others: one block-diagonal Gram."""
        return Lattice(_block_diagonal([self.gram] + [o.gram for o in others]))

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
        return all(x % den == 0 for x in mat_mul_int(W, self.lattice.gram)[0])

    def is_lattice_vector(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)

    def scale(self, k: int) -> "DualVector":
        return DualVector(self.lattice, tuple(k * c for c in self.coords))

    def __repr__(self):
        return f"DualVector({self.coords})"


# -- discriminant data ---------------------------------------------------------


def _dual_quotient(L: Lattice):
    """``abelian.dual_quotient(L.gram, L.det)``, one Smith pass per lattice:
    the Gram is immutable, so (G, cols) is kept on L."""
    if L._dual is None:
        L._dual = dual_quotient(L.gram, L.det)
    return L._dual


def discriminant(L: Lattice):
    """(dual quotient group, its quadratic form, coset representatives).

    The group is Z^n modulo the Gram column span, read off by
    ``abelian.dual_quotient``; the form is half the norm of any
    representative, mod 1.  Representative j is that function's column v_j
    over the j-th invariant factor d_j, so its coordinates lie in [0, 1), and
    it spans the j-th factor: g maps to the class of sum_j g_j v_j / d_j.
    """
    G, cols = _dual_quotient(L)
    q = _dual_form(L, G, cols)
    reps = tuple(
        DualVector(L, tuple(Fraction(row[j], d) for row in cols))
        for j, d in enumerate(G.factors)
    )
    return G, q, reps


def _dual_gram(L: Lattice, G, cols) -> list[list[int]]:
    """R = N·gram·Nᵀ, where row j of the integer matrix N is e / d_j times
    ``dual_quotient``'s column j (e the exponent): the discriminant form is
    q(g) = gᵀRg / 2e² mod 1 and its bilinear form gᵀRh / e² mod 1."""
    e = G.exponent
    N = [[e // d * row[j] for row in cols] for j, d in enumerate(G.factors)]
    return _congruent(N, L.gram)


def _dual_form(L: Lattice, G, cols) -> QuadraticForm:
    """The discriminant form on G in the coordinates of ``dual_quotient``'s
    cols, from the generator data of ``_dual_gram``."""
    if G.order > DISCRIMINANT_GUARD:
        raise GuardError(f"discriminant order {G.order} exceeds guard")
    return QuadraticForm.from_generators(G, *_gram_generators(G, _dual_gram(L, G, cols)))


def _dual_normal_form(L: Lattice, G, cols) -> NormalForm:
    """The discriminant form's ``forms.normal_form``: ``_gram_normal_form`` of
    ``_dual_gram``."""
    return _gram_normal_form(G, _dual_gram(L, G, cols))


def _gram_normal_form(G, R) -> NormalForm:
    """``forms.normal_form`` of q(g) = gᵀRg / 2e² mod 1 on G: no table of the group."""
    return normal_form(G, *_gram_generators(G, R))


def _gram_generators(G, R):
    """(values, polar) of q(g) = gᵀRg / 2e² mod 1 on G (e = exp G), as
    ``QuadraticForm.from_generators`` and ``forms.normal_form`` take them: q at
    the generators from the diagonal of R, and the polarization from its
    entries over e (whose sign convention is -b)."""
    e = G.exponent
    scale = 2 * e * e // form_denominator(G)
    if any(R[i][i] % scale for i in range(G.rank)) or any(x % e for row in R for x in row):
        raise ValueError("the dual Gram does not give a form on the dual quotient")
    return [R[i][i] // scale for i in range(G.rank)], [[-x // e for x in row] for row in R]


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
    for i, row in enumerate(mat_mul_int(W, L.gram)):
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
    return Lattice(_named_gram(name))


def _named_gram(name: str) -> list[list[int]]:
    """The Gram matrix of ``named(name)``, before ``Lattice`` checks it."""
    s = str(name).strip().replace("_", "")
    if s in ("E6", "E7", "E8"):
        n = int(s[1])
        gram = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for a, b in _E_EDGES[n]:
            gram[a - 1][b - 1] = gram[b - 1][a - 1] = -1
        return gram
    if s[:1] in ("A", "D") and s[1:].isdigit() and int(s[1:]) > LATTICE_RANK_GUARD:
        raise GuardError(f"lattice rank {s[1:]} exceeds guard {LATTICE_RANK_GUARD}")
    if s.startswith("A") and s[1:].isdigit():
        n = int(s[1:])
        if n < 1:
            raise ValueError("A-series needs n >= 1")
        gram = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n - 1):
            gram[i][i + 1] = gram[i + 1][i] = -1
        return gram
    if s.startswith("D") and s[1:].isdigit():
        n = int(s[1:])
        if n < 2:
            raise ValueError("D-series needs n >= 2")
        roots = [
            [1 if c == i else -1 if c == i + 1 else 0 for c in range(n)]
            for i in range(n - 1)
        ]
        roots.append([1 if c >= n - 2 else 0 for c in range(n)])
        return [[sum(a * b for a, b in zip(r, t)) for t in roots] for r in roots]
    low = s.lower()
    for prefix in ("sqrt2n:", "sqrt2n(", "sqrt2n"):
        if low.startswith(prefix) and low[len(prefix) :].rstrip(")").isdigit():
            n = int(low[len(prefix) :].rstrip(")"))
            if n < 1:
                raise ValueError("sqrt2n needs n >= 1")
            return [[2 * n]]
    raise ValueError(f"unknown lattice name {name!r}")


# -- realization of quadratic forms ----------------------------------------------


def _class_with_norm(L: Lattice, target: Fraction) -> DualVector:
    """The first dual class, in ``G.elements()`` order, whose norm gᵀRg / e²
    (``_dual_gram``) is the target mod 2; the classes are visited lazily."""
    G, cols = _dual_quotient(L)
    R, e2 = _dual_gram(L, G, cols), G.exponent**2
    want = target * e2  # not an integer when no class can match
    g = None
    if want.denominator == 1:
        g = next(
            (
                g
                for g in product(*map(range, G.factors))
                if (_congruent([g], R)[0][0] - want) % (2 * e2) == 0
            ),
            None,
        )
    if g is None:
        raise RuntimeError("no dual class with the requested norm")
    return DualVector(L, [sum(Fraction(gj * c, d) for gj, c, d in zip(g, row, G.factors)) for row in cols])


def _verify_realization(L: Lattice, target: NormalForm) -> bool:
    """The discriminant form of L, read off its ``_dual_quotient``, has the
    target normal form (which fixes the group too)."""
    return _dual_normal_form(L, *_dual_quotient(L)) == target


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
    """(w, b): the weight w at v that gives the tree's Gram determinant N and
    the cofactor b = det(T - v), or None when no weight does.

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
            return None if rem else (w, b)
        A[u] = 2 * weights[u] * b - s
        if A[u] <= 0:
            return None
        B[u] = b


def _candidates(r: int, N: int):
    """(gram, b) for the rank-r Gram matrices of determinant N tried, in search
    order: the named root lattices whose closed-form determinant (r + 1 for
    A_r, 4 for D_r, 9 - r for E_r) is N, with b None, then up to
    TREE_SEARCH_BOUND weighted trees by increasing excess of their fixed
    weights, fewest non-unit weights first, with b the cofactor det(T - v) at
    the free vertex v (``_free_weight``).  No ``Lattice`` is built here."""
    if r + 1 == N:
        yield _named_gram(f"A{r}"), None
    if r >= 2 and N == 4:
        yield _named_gram(f"D{r}"), None
    if r in (6, 7, 8) and r + N == 9:
        yield _named_gram(f"E{r}"), None
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
                        found = _free_weight(adj, weights, v, N)
                        if found is None:
                            continue
                        weights[v], b = found
                        gram = [[0] * r for _ in range(r)]
                        for u in range(r):
                            gram[u][u] = 2 * weights[u]
                            for c in adj[u]:
                                gram[u][c] = -1
                        yield gram, b
        if tried == before:  # rank 1: the single vertex is the free one
            return


def _realize_factor(p: int, k: int, sub) -> Lattice:
    """A lattice for one descriptor part, as parsed by ``_parse_descriptor``."""
    target = NormalForm([(p, k, sub)])
    if sub in ("i", "ii"):
        N = 2**k
        m, scalars, copies = (-1, 2, 2) if sub == "i" else (-3, 3, 1)
        ingredient = _realize_factor(2, k, m)
        gamma = _class_with_norm(ingredient, Fraction(m, N)).coords
        base = _block_diagonal([[[N]]] * scalars + [ingredient.gram] * copies)
        # The glue vector v has first coordinate 1/N and N v lies in the base,
        # so v, e_1, ..., e_(n-1) are a basis of base + Zv: its Gram is the
        # base's with row and column 0 replaced by the products with v.
        (w,), den = _numerators([(Fraction(1, N),) * scalars + gamma * copies])
        (gw,) = mat_mul_int([w], base)  # den times the products of v with each e_i
        vv = sum(a * b for a, b in zip(gw, w))
        gram = [[vv // (den * den)] + [x // den for x in gw[1:]]]
        gram += [[x // den] + list(row[1:]) for x, row in zip(gw[1:], base[1:])]
        L = Lattice(gram)
        if not _verify_realization(L, target):
            raise RuntimeError("realized lattice fails its discriminant check")
        return L
    N = p**k
    low = target.signature or 8
    for r in (low, low + 8):
        for gram, b in _candidates(r, N):
            # p ∤ b: the discriminant is Z_N with q(A⁻¹e_v) = b / 2N (module docstring)
            if b is not None and b % p and _cyclic_normal_form(p, k, b) != target:
                continue
            L = Lattice(gram)
            if _verify_realization(L, target):
                return L
    name = f"{p}^{k}_{sub if p == 2 else '+-'[sub < 0]}"
    raise GuardError(
        f"no lattice of rank {low} or {low + 8} realizes {name} "
        f"within TREE_SEARCH_BOUND {TREE_SEARCH_BOUND} trees per rank"
    )


def realize(target) -> Lattice:
    """An even positive-definite lattice whose discriminant form is the target.

    Accepts an indecomposable-descriptor product or a nondegenerate
    QuadraticForm of any order, read as ``forms.descriptor(target)``, and
    returns the direct sum of one lattice per part.  A cyclic part of
    signature sigma gets rank sigma mod 8 (8 when sigma = 0), or 8 more when
    that rank has none; a pair type gets rank at most 16.  Each part is the
    first candidate, named root lattices before weighted trees (module
    docstring), whose discriminant normal form is the part's.  Raises
    GuardError, naming the part, when the search runs out of candidates.  The
    rank of the sum is checked against LATTICE_RANK_GUARD (else GuardError).
    One part is returned as found.  Several are summed once, as one
    block-diagonal Gram, whose discriminant normal form is then checked
    against the product's, from one Smith pass, at any order.  Either way the
    returned lattice keeps the dual quotient its check computed, so
    ``discriminant`` of it runs no second Smith pass.
    """
    if isinstance(target, QuadraticForm):
        if target.group.order == 1:
            return Lattice(())
        return realize(descriptor(target))
    desc = str(target).strip().replace("*", " x ")
    # every part is legal and within the guard before any is built
    parts = [_parse_descriptor(part) for part in desc.split(" x ")]
    pieces = [_realize_factor(p, k, sub) for p, k, sub, _ in parts]
    rank = sum(piece.rank for piece in pieces)
    if rank > LATTICE_RANK_GUARD:
        raise GuardError(f"lattice rank {rank} exceeds guard {LATTICE_RANK_GUARD}")
    if len(pieces) == 1:
        return pieces[0]
    lat = pieces[0].direct_sum(*pieces[1:])
    if not _verify_realization(lat, NormalForm(part[:3] for part in parts)):
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
    G, to, frm = invariant_factor_group(B, isqrt(L.det // M.det))

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
