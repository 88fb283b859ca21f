"""Modular data containers, Verlinde fusion, simple currents, invariants.

All arithmetic is exact over cyclotomic numbers.  Matrix work (``mat_mul``,
``verlinde``, ``validate_modular``, the charge conjugation, the
S-commutation check and the simple-current tables) goes through one integer
kernel instead of per-entry ``Cyclotomic`` arithmetic.  The kernel itself,
``_Packing`` and ``_rational_bound``, lives in ``scalars`` (``forms.gauss_sum``
uses it too); this module writes its matrices into it:

* The matrices of one computation are written over one conductor N (the lcm
  of their entry orders), each over one common denominator, so every entry
  becomes an integer polynomial in zeta_N.  A datum's S is written so once
  per order and cached on it.
* Kronecker substitution: a polynomial Sum c_k x^k is packed as the integer
  Sum c_k 2^(B k), taken modulo 2^(B N) - 1.  Since x^N - 1 maps to 0, this
  is a ring homomorphism from Z[x]/(x^N - 1) into the integers mod
  2^(B N) - 1, so a whole dot product of polynomials is a sum of big-int
  products, and exponents fold mod N by themselves.
* Exactness: the homomorphism is injective on polynomials whose
  coefficients are smaller than 2^(B-2) in absolute value.  A coefficient
  of a dot product of length L is at most L times the product of the
  largest l1 norms of the entries of its factors (||pq||_1 <= ||p||_1
  ||q||_1).  B is chosen from that bound plus a sign bit and one guard bit,
  so the signed B-bit digits unpacked from a result are exactly its
  coefficients, with no overflow check or fallback.
* Rationality and vanishing are decided without unpacking, by the cofactor
  F = (x^N - 1) / Phi_N: for integer polynomials v and r, v = r modulo
  Phi_N exactly when v F = r F modulo x^N - 1.  So ``verlinde``,
  ``validate_modular``, the charge conjugation and ``s_commutes`` fold F
  into one packed factor once and test each result with one big-integer
  comparison (their bounds carry the norms of F); the same comparison
  decides whether two values, such as S_ij and S_ji, are equal.
* Roots of unity are digit rotations: every root of unity in Q(zeta_m) is
  +-zeta_m^k, i.e. +-x^k, and multiplying a packed value by x^k rotates its
  digits by k places.  ``validate_modular`` decides that each T entry is a
  root of unity, and ``simple_currents`` (at an even m, where the sign is
  itself a rotation) decides each S_{J,a} = zeta_m^k S_{0,a} and
  T_J conj(T_0) = zeta_m^k, by looking up one packed value (times F) among
  the rotations of another, so the monodromy charges, the twists and the
  zero pattern of S need no unpacking.
* Results are unpacked and reduced modulo Phi_N only where a value is
  returned or compared as a whole matrix: ``_product`` gives a product as
  reduced integer lists and ``mat_mul`` wraps them as ``Cyclotomic``
  values.  ``validate_modular`` unpacks (ST)^2 and (ST)^3, to compare the
  cube with S^2, only when S is not unitary or T not a root of unity; on
  modular data it compares S T S with T-bar S T-bar in the packing.

The brute-force invariant search writes the commutant linear system SZ = ZS
as integer rows (one per coefficient of zeta_N), brings it to a fully reduced
echelon form by fraction-free elimination, and enumerates bounded
nonnegative integer points by divisibility checks on the pivot rows.

Galois symmetry.  For modular data every sigma in Gal(Q(zeta_N)/Q), N the
conductor of S, acts on S as a signed permutation of its columns:
sigma(S_ik) = eps_sigma(k) S_{i, pi_sigma(k)} (Coste-Gannon, Phys. Lett. B
323, 1994).  ``galois_action`` certifies this exactly, once per datum, for
a generating set of (Z/N)^*, sigma_g acting on exponents by j -> g j mod N:
each column's image, packed times F, is looked up among the columns and
their negatives packed the same way.  Composition extends the relation to
the whole group, so its column orbits are those of the generated
permutations.  Two readers use it:

* ``verlinde``.  In f(k) = S_ak S_bk S_ek / S_0k the sign appears three
  times over once, so sigma(f(k)) = f(pi_sigma k), and M(a, b, e) =
  Sum_k f(k) is fixed by every sigma, hence rational.  So phi(N) M(a, b, e)
  = Tr M(a, b, e) = Sum over orbit representatives k of |O_k| Tr f(k), as
  the trace is constant on orbits.  The trace of an integer polynomial v is
  Sum_j v_j c_N(j) with the Ramanujan sums c_N(j) = Tr zeta_N^j, i.e. the
  constant coefficient of v R modulo x^N - 1, R = Sum_j c_N(j) x^j (c_N is
  even in j).  With |O_k| R folded into the packed 1/S_0k, one packed sum
  over the representatives and one read of its lowest digit give
  phi(N) M(a, b, e).  Every digit of that sum is at most
  n ||S||^3 ||1/S_0|| ||R||_1, which sets the width.
* ``brute_force_invariants``.  If S is invertible and Z rational with
  SZ = ZS, then sigma(S) = S Q with Q the signed permutation matrix, and
  S Q Z = sigma(SZ) = sigma(ZS) = Z S Q = S Z Q, so QZ = ZQ:
  Z_{pi a, pi b} = eps(a) eps(b) Z_ab.  A nonnegative Z is therefore
  constant on each orbit of positions whose signs all agree, and 0 on an
  orbit with a sign -1 or with a position T forbids.  For such a Z,
  sigma((SZ - ZS)_ij) = eps(j) (SZ - ZS)_{i, pi j}, so the equations of
  one column per orbit imply the rest.  Without a certificate the classes
  are single positions and every column gives equations: the plain system.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .abelian import FinAbGroup, GuardError, abelian_structure
from .scalars import (
    Cyclotomic,
    _Packing,
    _rational_bound,
    as_integer,
    cyclotomic_cofactor,
    cyclotomic_polynomial,
    json_list,
    ramanujan_sums,
    reduce_mod_phi,
)

BRUTE_GUARD = 64
PRIMARY_GUARD = 512  # most primaries ``weil`` and ``ty_double`` build


def check_primaries(n: int) -> None:
    """GuardError if a constructor is about to build more than PRIMARY_GUARD primaries."""
    if n > PRIMARY_GUARD:
        raise GuardError(f"primary count {n} exceeds guard {PRIMARY_GUARD}")


# -- exact integer kernel for matrices over Q(zeta_N) -------------------------


def _conductor(*mats) -> int:
    return lcm(*(x.order for M in mats for row in M for x in row))


def _integral(M, N: int):
    """(D, rows of {k: c}) with M[i][j] = Sum c zeta_N^k / D, every c an integer."""
    den = lcm(*(c.denominator for row in M for x in row for _, c in x.terms()))
    out = []
    for row in M:
        irow = []
        for x in row:
            step = N // x.order
            irow.append(
                {k * step: c.numerator * (den // c.denominator) for k, c in x.terms()}
            )
        out.append(irow)
    return den, out


def _norm(rows) -> int:
    """Largest l1 norm of an integer polynomial entry."""
    return max((sum(map(abs, p.values())) for row in rows for p in row), default=0)


def _reduced(p: dict, N: int) -> list[int]:
    """Coefficients of one integer polynomial in zeta_N, reduced modulo Phi_N."""
    coeffs = [0] * N
    for k, c in p.items():
        coeffs[k] = c
    return reduce_mod_phi(coeffs, N)


def _product(iA, iB, N: int):
    """Product of two integer polynomial matrices over zeta_N.

    Entry (i, j) is Sum_t iA[i][t] iB[t][j] as its length-N coefficient list
    reduced modulo Phi_N, so equal values have equal lists.
    """
    pk = _Packing(N, len(iB) * _norm(iA) * _norm(iB))
    cols = list(zip(*([pk.pack(p) for p in row] for row in iB)))
    out = []
    for row in iA:
        packed = [pk.pack(p) for p in row]
        out.append([pk.reduced(sum(map(mul, packed, col))) for col in cols])
    return out


def mat_mul(A, B):
    """Exact product of matrices over Q(zeta_N); entries are Cyclotomic."""
    N = _conductor(A, B)
    dA, iA = _integral(A, N)
    dB, iB = _integral(B, N)
    den = dA * dB
    return [
        [Cyclotomic(N, {k: Fraction(c, den) for k, c in enumerate(x) if c}) for x in row]
        for row in _product(iA, iB, N)
    ]


def s_commutes(md: ModularData, matrix) -> bool:
    """True iff the integer matrix commutes with S, decided exactly by the kernel.

    The packed S F depends on the packing only through N and its digit
    width, so it is cached on md under (N, width) and shared by every
    matrix whose entries fit that width.
    """
    n = md.dim
    N, _, iS, norm = md._integral_S()
    zmax = max((abs(x) for row in matrix for x in row), default=0)
    pk = _Packing(N, 2 * n * norm * zmax * sum(map(abs, cyclotomic_cofactor(N))))
    M = pk.M
    # entries of S F: (SZ - ZS)_ij vanishes modulo Phi_N iff its multiple by F
    # vanishes modulo x^N - 1
    P = md._int_S.get((N, pk.width))
    if P is None:
        P = md._int_S[N, pk.width] = [[pk.pack(p) * pk.PF % M for p in row] for row in iS]
    rows = [[(t, x) for t, x in enumerate(r) if x] for r in matrix]
    cols = [[(t, x) for t, x in enumerate(c) if x] for c in zip(*matrix)]
    for i in range(n):
        for j in range(n):
            v = sum(P[i][t] * x for t, x in cols[j]) - sum(x * P[t][j] for t, x in rows[i])
            if v % M:
                return False
    return True


def _poly_mul(p: dict, q: dict, N: int) -> dict:
    """Product of two integer polynomials in Z[x]/(x^N - 1)."""
    out: dict = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            k = (k1 + k2) % N
            out[k] = out.get(k, 0) + c1 * c2
    return out


def _square_permutation(pk: _Packing, P, cols, den: int):
    """Permutation p with S^2 = den times the matrix of i -> p(i), else None.

    P packs the rows of an integer form of S and ``cols`` the columns of the
    same entries times F, so each entry of S^2 times F is one packed dot
    product, decided by ``pk.rational`` (pk's bound at least
    ``_rational_bound`` of n ||S||^2).
    """
    perm = []
    for row in P:
        vals = [pk.rational(sum(map(mul, row, col))) for col in cols]
        hits = [j for j, r in enumerate(vals) if r != 0]
        if len(hits) != 1 or vals[hits[0]] != den:
            return None
        perm.append(hits[0])
    return perm if sorted(perm) == list(range(len(P))) else None


def as_permutation(A):
    """Permutation p with A[i][p[i]] = 1 if A is a permutation matrix, else None."""
    perm = []
    for row in A:
        hits = [j for j, x in enumerate(row) if not x.is_zero()]
        if len(hits) != 1 or not row[hits[0]].is_one():
            return None
        perm.append(hits[0])
    return perm if sorted(perm) == list(range(len(A))) else None


class ModularData:
    """Labelled (S, T) pair with a distinguished unit row."""

    __slots__ = ("labels", "unit", "S", "T", "_fusion", "_charge", "_galois", "_currents", "_int_S")

    def __init__(self, labels, unit, S, T):
        self.labels = tuple(labels)
        self.unit = as_integer(unit, "unit must be an integer index")
        self.S = tuple(tuple(row) for row in S)
        self.T = tuple(T)
        if len(self.S) != len(self.labels) or any(
            len(r) != len(self.labels) for r in self.S
        ):
            raise ValueError("S must be square over the labels")
        if len(self.T) != len(self.labels):
            raise ValueError("T must be the diagonal over the labels")
        if not 0 <= self.unit < len(self.labels):
            raise ValueError("unit index out of range")
        for i, row in enumerate(self.S + (self.T,)):
            for j, x in enumerate(row):
                if not isinstance(x, Cyclotomic):
                    where = f"T[{j}]" if i == len(self.S) else f"S[{i}][{j}]"
                    raise ValueError(f"{where} must be a Cyclotomic, not {x!r}")
        self._fusion = None
        self._charge = None
        self._galois = None
        self._currents = None
        self._int_S = {}

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        return self.labels.index(label)

    def _integral_S(self, N: int = 0):
        """(N, d, iS, norm): S = iS / d over zeta_N, norm the largest l1 norm
        of an entry of iS.  N = 0 stands for the conductor of S.  Computed
        once per order; callers must not mutate iS.  The same cache holds
        ``s_commutes``' packed S F under the key (N, digit width)."""
        cache = self._int_S
        if not N:
            if 0 not in cache:
                cache[0] = _conductor(self.S)
            N = cache[0]
        hit = cache.get(N)
        if hit is None:
            d, iS = _integral(self.S, N)
            hit = cache[N] = (N, d, iS, _norm(iS))
        return hit

    def charge_conjugation(self):
        """Permutation c with S^2 the matrix of a -> c(a)."""
        if self._charge is None:
            N, den, iS, norm = self._integral_S()
            pk = _Packing(N, _rational_bound(N, self.dim * norm * norm))
            P = [[pk.pack(p) for p in row] for row in iS]
            cols = [[x * pk.PF % pk.M for x in col] for col in zip(*P)]
            perm = _square_permutation(pk, P, cols, den * den)
            if perm is None:
                raise ValueError("S^2 is not a permutation matrix")
            self._charge = tuple(perm)
        return self._charge

    def fusion(self):
        if self._fusion is None:
            self._fusion = verlinde(self)
        return self._fusion

    def to_json(self):
        return {
            "labels": [list(l) if isinstance(l, tuple) else l for l in self.labels],
            "unit": self.unit,
            "S": [[x.to_json() for x in row] for row in self.S],
            "T": [x.to_json() for x in self.T],
        }

    @staticmethod
    def from_json(obj) -> "ModularData":
        try:
            labels = [
                tuple(l) if isinstance(l, list) else l
                for l in json_list(obj["labels"], "'labels'")
            ]
            S = [
                [Cyclotomic.from_json(x) for x in json_list(row, "a row of 'S'")]
                for row in json_list(obj["S"], "'S'")
            ]
            T = [Cyclotomic.from_json(x) for x in json_list(obj["T"], "'T'")]
            unit = as_integer(obj["unit"], "unit must be an integer index")
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed modular data JSON: {exc!r}") from exc
        return ModularData(labels, unit, S, T)


def validate_modular(md: ModularData) -> list[str]:
    """List of failed identities; empty means the data is modular.

    S and T are written over one conductor N, S over its common denominator
    d and T over its own denominator e.  The identities are decided in one
    packing, each entry by a packed value times F = (x^N - 1) / Phi_N, with
    no unpacking on modular data (module docstring):

    * S = S^T: the packed entries are compared;
    * S S-bar^T = d^2 I: a Hermitian matrix, so its entries with i <= j
      decide it, each by ``_Packing.rational``;
    * T a root of unity: each entry is looked up among the x^k-rotations of
      +-e F, since the roots of unity of Q(zeta_N) are the +-zeta_N^k;
    * S^2 = d^2 times the matrix of a permutation: each entry of S (S F) by
      ``rational`` (``_square_permutation``, shared with the charge
      conjugation);
    * (ST)^3 = S^2: if S is unitary and T a root of unity, both are
      invertible and T^-1 = T-bar, so (ST)^3 = S^2 exactly when
      S T S = T-bar S T-bar; times d^2 e^2 and F, entry (i, j) compares
      e Sum_k S_ik t_k S_kj F with d conj(t_i t_j) S_ij F.  Otherwise the
      cube is unpacked, with (ST)^2 reduced before it is packed again, and
      compared with S^2 as reduced lists over (d e)^3.

    With norms the largest l1 norms of entries and t = max(||T||, e), the
    bound is ``_rational_bound`` of max(n ||S||^2, d ||S||, 1) t^2: it
    covers the rational tests and both sides of each comparison.  A
    permutation S^2 is kept as the charge conjugation of md.
    """
    report = []
    n = md.dim
    N = _conductor(md.S, [md.T])
    _, dS, iS, norm_S = md._integral_S(N)
    dT, (iT,) = _integral([md.T], N)
    t = max(_norm([iT]), dT)
    pk = _Packing(N, _rational_bound(N, max(n * norm_S**2, dS * norm_S, 1) * t * t))
    M, PF = pk.M, pk.PF
    P = [[pk.pack(p) for p in row] for row in iS]
    U = [[x * PF % M for x in row] for row in P]
    cols = list(zip(*U))
    symmetric = all(U[i][j] == U[j][i] for i in range(n) for j in range(i + 1, n))
    if not symmetric:
        report.append("S symmetric")
    Ubar = [[pk.pack({-k % N: c for k, c in p.items()}) * PF % M for p in row] for row in iS]
    d2 = dS * dS
    unitary = all(
        pk.rational(sum(map(mul, P[i], Ubar[j]))) == (d2 if i == j else 0)
        for i in range(n)
        for j in range(i, n)
    )
    if not unitary:
        report.append("S unitary")
    roots = {**pk.rotations(dT * PF % M), **pk.rotations(-dT * PF % M)}
    twists = all(pk.pack(p) * PF % M in roots for p in iT)
    if not twists:
        report.append("T root of unity")
    perm = _square_permutation(pk, P, cols, d2)
    if perm is None:
        report.append("S^2 permutation")
    else:
        md._charge = tuple(perm)
        if perm[md.unit] != md.unit:
            report.append("S^2 fixes unit")
        if any(perm[perm[i]] != i for i in range(n)):
            report.append("S^2 involution")
    if unitary and twists:
        PT = [pk.pack(p) for p in iT]
        PTbar = [pk.pack({-k % N: c for k, c in p.items()}) for p in iT]
        PST = [[x * y % M for x, y in zip(row, PT)] for row in P]
        cube = all(
            (dT * sum(map(mul, PST[i], cols[j])) - dS * PTbar[i] * PTbar[j] * U[i][j]) % M == 0
            for i in range(n)
            for j in range(n)
        )
    else:
        if perm is None:
            S2 = _product(iS, iS, N)
        else:
            one, zero = [d2] + [0] * (N - 1), [0] * N
            S2 = [[one if j == perm[i] else zero for j in range(n)] for i in range(n)]
        ST = [[_poly_mul(p, q, N) for p, q in zip(row, iT)] for row in iS]
        ST3 = _product([[dict(enumerate(c)) for c in row] for row in _product(ST, ST, N)], ST, N)
        scale = dS * dT**3
        cube = all(
            c == [scale * x for x in s] for crow, srow in zip(ST3, S2) for c, s in zip(crow, srow)
        )
    if not cube:
        report.append("(ST)^3 = S^2")
    return report


class GaloisAction(NamedTuple):
    """Signed column permutations by which Gal(Q(zeta_N)/Q) acts on S.

    For each (g, perm, signs) in ``gens``, sigma_g: zeta_N -> zeta_N^g maps
    S_ik to signs[k] S_{i, perm[k]} for every i, and the g generate (Z/N)^*.
    ``gens`` is empty when some image is not a signed column of S or two
    columns agree up to sign; ``orbits`` are then single columns.  Each orbit
    is sorted, and the orbits are ordered by their least column.
    """

    N: int  # the conductor of S
    gens: tuple
    orbits: tuple


def galois_action(md: ModularData) -> GaloisAction:
    """The Galois action on the columns of S; computed once and cached on md."""
    if md._galois is None:
        md._galois = _find_galois_action(md)
    return md._galois


def _unit_generators(N: int) -> list[int]:
    """A generating set of (Z/N)^*, taken greedily from 2, 3, ..."""
    span = {1}
    gens = []
    for g in range(2, N):
        if gcd(g, N) == 1 and g not in span:
            gens.append(g)
            while True:
                more = {x * g % N for x in span}
                if more <= span:
                    break
                span |= more
    return gens


def _find_galois_action(md: ModularData) -> GaloisAction:
    """Decide sigma_g(S) column by column in one packing (module docstring).

    Each distinct entry p of S's integer form is packed times F once, and so
    is its image sigma_g(p) (exponent j -> g j mod N) for each generator g.
    A column's image is looked up among the columns and their negatives,
    packed the same way: v F = w F modulo x^N - 1 exactly when v = w modulo
    Phi_N, and sigma_g keeps l1 norms, so with ``bound`` ||S|| ||F||_1 the
    difference of two compared values has digits below 2^(B-1) and the
    lookup is exact, as in ``_find_simple_currents``.
    """
    n = md.dim
    N, _, iS, norm = md._integral_S()
    pk = _Packing(N, norm * sum(map(abs, cyclotomic_cofactor(N))))
    M, PF = pk.M, pk.PF
    # the distinct entries, by object (S often holds one object per value),
    # each with the position of its first occurrence
    flat = [x for row in md.S for x in row]
    first = {id(x): i for i, x in reversed(list(enumerate(flat)))}
    slot = {key: s for s, key in enumerate(first)}
    polys = [iS[i // n][i % n] for i in first.values()]
    cols = [[slot[id(x)] for x in col] for col in zip(*md.S)]
    U = [pk.pack(p) * PF % M for p in polys]
    index = {}
    for k, col in enumerate(cols):
        u = tuple(map(U.__getitem__, col))
        index[u] = (k, 1)
        index[tuple(-x % M for x in u)] = (k, -1)
    gens = []
    if len(index) == 2 * n:
        for g in _unit_generators(N):
            image = [pk.pack({g * j % N: c for j, c in p.items()}) * PF % M for p in polys]
            hits = [index.get(tuple(map(image.__getitem__, col))) for col in cols]
            if None in hits:
                gens = []
                break
            gens.append((g, tuple(k for k, _ in hits), tuple(s for _, s in hits)))
    seen = set()
    orbits = []
    for k in range(n):
        if k not in seen:
            seen.add(k)
            orbit = [k]
            for x in orbit:  # grows while it is read
                for _, perm, _ in gens:
                    if perm[x] not in seen:
                        seen.add(perm[x])
                        orbit.append(perm[x])
            orbits.append(tuple(sorted(orbit)))
    return GaloisAction(N, tuple(gens), tuple(orbits))


def verlinde(md: ModularData):
    """Fusion tensor N[a][b][c] via the S-matrix; entries must be nonnegative integers.

    N_ab^c = Sum_k S_ak S_bk conj(S_ck) / S_0k.  For any S the sum
    M(a, b, e) = Sum_k S_ak S_bk S_ek / S_0k is unchanged under every
    permutation of (a, b, e), so where the row conj(S_c) is a row S_e of S,
    N_ab^c = M(a, b, e), and only the M(a, b, e) with a <= b <= e are summed:
    about n^4 / 6 packed products.  Each row conj(S_c) F is looked up among
    the rows S_e F, all entries packed: the lookup is exact, since v F = w F
    modulo x^N - 1 exactly when v = w modulo Phi_N, and conjugation keeps l1
    norms, so the digits stay within the bound.  A column with no conjugate
    row (only on non-modular S) is summed directly for every a <= b; the
    formula is symmetric in a and b, so the rest is mirrored.

    The packing is a commutative ring homomorphism and conj(S_c) F = S_e F
    packed, so M(a, b, e), summed in any order of (a, b, e), is the same
    packed value as the direct sum for (a, b, c); ``_Packing.rational``
    decides it with one comparison.  The tensor is then assembled in
    lexicographic (a, b, c) order with a <= b, raising at the first failing
    entry: since N_ab^c = N_ba^c, the first failure over all (a, b, c) has
    a <= b, so it is the one reported, with the same message.  Digits are B
    bits, with ``_rational_bound`` of n ||S||^3 ||1/S_0|| (largest l1 norms
    of entries).  1/S_0k is one ``Cyclotomic.inverse`` per distinct value of
    the unit row.

    Where ``galois_action`` certifies S and every conj(S_c) is a row, each
    M(a, b, e) is summed over one column per Galois orbit instead (module
    docstring): the packed value Sum_reps |O_k| S_ak S_bk S_ek (1/S_0k) R,
    R = Sum_j c_N(j) x^j, has phi(N) M(a, b, e) as its constant coefficient,
    read by ``_Packing.constant`` under the bound n ||S||^3 ||1/S_0|| ||R||_1.
    That sum is Galois-invariant, so it is rational and needs no test.
    """
    n = md.dim
    N, dS, iS, norm_S = md._integral_S()
    unit_row = md.S[md.unit]
    inverses: dict = {}
    inv0 = []
    for k, p in enumerate(iS[md.unit]):
        key = tuple(_reduced(p, N))
        if not any(key):
            raise ValueError("unit row of S has a zero entry")
        if key not in inverses:
            inverses[key] = unit_row[k].inverse()
        inv0.append(inverses[key])
    # each inverse keeps the order of its entry, which divides N
    dI, (iI,) = _integral([inv0], N)
    act = galois_action(md)
    R = ramanujan_sums(N)
    base = n * norm_S**3 * _norm([iI])
    bound = _rational_bound(N, base)
    if act.gens:
        bound = max(bound, base * sum(map(abs, R)))
    pk = _Packing(N, bound)
    M, PF = pk.M, pk.PF
    P = [[pk.pack(p) for p in row] for row in iS]
    U = [[x * PF % M for x in row] for row in P]
    Ubar = [[pk.pack({-k % N: c for k, c in p.items()}) * PF % M for p in row] for row in iS]
    row_of = {tuple(u): e for e, u in enumerate(U)}
    conj_row = [row_of.get(tuple(u)) for u in Ubar]
    direct = [c for c, e in enumerate(conj_row) if e is None]
    Pinv = [pk.pack(p) for p in iI]
    cols, value = U, pk.rational
    if act.gens and not direct:
        # one column per orbit, |O_k| R folded into 1/S_0k; phi(N) = c_N(0)
        PRS = pk.pack(dict(enumerate(R)))
        Pinv = [len(o) * Pinv[o[0]] * PRS % M for o in act.orbits]
        P = cols = [[row[o[0]] for o in act.orbits] for row in P]

        def value(u):
            return pk.constant(u) // R[0]

    # for a <= b, decided: sym[a][b][e - b] = M(a, b, e) for e >= b, and
    # direct_sums[a][b][c] = N_ab^c for c in direct
    sym = [[None] * n for _ in range(n)]
    direct_sums = [[None] * n for _ in range(n)]
    for a in range(n):
        W = [x * y % M for x, y in zip(P[a], Pinv)]
        for b in range(a, n):
            wb = [w * x % M for w, x in zip(W, P[b])]
            sym[a][b] = [value(sum(map(mul, wb, cols[e]))) for e in range(b, n)]
            direct_sums[a][b] = {c: pk.rational(sum(map(mul, wb, Ubar[c]))) for c in direct}
    den = dS**3 * dI
    out = []
    for a in range(n):
        plane = [out[b][a] for b in range(a)]
        for b in range(a, n):
            # M(a, b, e) for every e, each from its sorted triple
            m = [sym[e][a][b - a] for e in range(a)]
            m += [sym[a][e][b - e] for e in range(a, b)] + sym[a][b]
            row = [direct_sums[a][b][c] if e is None else m[e] for c, e in enumerate(conj_row)]
            for c, r in enumerate(row):
                if r is None:
                    raise ValueError(f"fusion coefficient not rational at {(a, b, c)}")
                if r % den or r < 0:
                    raise ValueError(f"fusion coefficient {Fraction(r, den)} at {(a, b, c)}")
            plane.append(tuple(r // den for r in row))
        out.append(tuple(plane))
    return tuple(out)


class SimpleCurrentStructure(NamedTuple):
    """Invertible simples of a modular datum, with their charges and twists.

    Currents are keyed by their coordinates in ``group``.  A phase r in Q/Z,
    read as e^(2 pi i r), is stored as the integer r * den mod den, where
    den = lcm(2, N, exp group) and N is the conductor of S and T: every root of
    unity in Q(zeta_N) is a lcm(2, N)-th root, so den is a multiple of each
    charge and twist denominator, and of exp J, the denominator of every
    torsion form on a subgroup J.

    * the monodromy charge Q_J(a) = ``charges[J][a] / den`` is defined by
      S_{J,a} = e^(2 pi i Q_J(a)) S_{0,a};
    * the twist h_J - h_0 = ``twists[J] / den`` is defined by
      T_J = e^(2 pi i (h_J - h_0)) T_0.

    Both are tabulated once per datum by digit rotation in the packed kernel
    (``_find_simple_currents``), so every comparison is of integers.
    ``grading`` and ``q`` return them as ``Fraction``s in [0, 1).
    """

    group: FinAbGroup
    coords: dict  # primary index -> current coordinates
    label_index: dict  # current coordinates -> primary index
    action_table: dict  # current -> permutation of the primary indices
    quaternionic: set
    sufficiently_nonzero: bool
    den: int
    charges: dict  # current J -> (den * Q_J(a) for each primary index a)
    twists: dict  # current J -> den * (h_J - h_0)

    def q(self, j) -> Fraction:
        """Twist h_J - h_0 mod 1 of the current j (group coordinates)."""
        return Fraction(self.twists[j], self.den)

    def grading(self, a: int, j) -> Fraction:
        """Monodromy charge Q_J(a) mod 1 of primary index a against current j."""
        return Fraction(self.charges[j][a], self.den)

    def is_quaternionic(self, j) -> bool:
        return j in self.quaternionic


def simple_currents(md: ModularData) -> SimpleCurrentStructure:
    """Invertible simples of md; computed once and cached on md."""
    if md._currents is None:
        md._currents = _find_simple_currents(md)
    return md._currents


def _find_simple_currents(md: ModularData):
    """Invertible simples with their charges and twists, and the zero pattern of S.

    All three are read off one ``_Packing`` at m = lcm(2, N), N the conductor
    of S and T.  Every root of unity in Q(zeta_N) is then zeta_m^k, the
    monomial x^k in Z[x]/(x^m - 1), and multiplying a packed value by x^k
    rotates its digits by k places.  Each S entry is packed times the cofactor
    F = (x^m - 1) / Phi_m, as u_ab.  Because x^m - 1 = Phi_m F is squarefree,
    v F = w F modulo x^m - 1 exactly when v = w modulo Phi_m.  Hence:

    * S_{J,a} = zeta_m^k S_{0,a} exactly when u_{J,a} is u_{0,a} rotated by
      k digits.  The m rotations of u_{0,a} are distinct since S_{0,a} != 0,
      so one dict lookup per (J, a) gives Q_J(a) = k / m, and a miss means
      the ratio is no root of unity;
    * T_J conj(T_0) = zeta_m^k exactly when the packed t_J conj(t_0) F (T over
      its denominator d_T) is the packed d_T^2 F, the value 1, rotated by k;
    * S_ab = 0 exactly when u_ab = 0.

    Exactness: every compared value has coefficients at most ``bound`` ||F||_1,
    ``bound`` the largest l1 norm of an S entry, of a t_J conj(t_0) and of d_T^2.
    The digits of the difference of two such values are below 2^(B-1) in
    absolute value, and a packed value with such digits is 0 only if every
    digit is, so equal packed values are equal polynomials.
    """
    N = md.fusion()
    n = md.dim
    conj = md.charge_conjugation()
    invertible = []
    for j in range(n):
        if N[j][conj[j]][md.unit] != 1:
            continue
        # fusion coefficients are nonnegative: a row summing to 1 is a single 1
        if all(sum(row) == 1 for row in N[j]):
            perm = tuple(row.index(1) for row in N[j])
            if sorted(perm) == list(range(n)):
                invertible.append((j, perm))
    perms = {j: p for j, p in invertible}
    group, coords = abelian_structure(
        [j for j, _ in invertible], lambda a, b: perms[a][b], md.unit
    )
    label_index = {coords[j]: j for j, _ in invertible}
    action_table = {coords[j]: p for j, p in invertible}
    m = lcm(2, _conductor(md.S, [md.T]))
    den = lcm(m, group.exponent)
    _, _, iS, norm_S = md._integral_S(m)
    dT, (iT,) = _integral([md.T], m)
    unit = md.unit
    unit_bar = {-k % m: c for k, c in iT[unit].items()}
    ratios = {j: _poly_mul(iT[j], unit_bar, m) for j, _ in invertible}
    bound = max(norm_S, _norm([ratios.values()]), dT * dT)
    pk = _Packing(m, bound * sum(map(abs, cyclotomic_cofactor(m))))
    M, PF = pk.M, pk.PF

    U = [[pk.pack(p) * PF % M for p in row] for row in iS]
    ones = pk.rotations(dT * dT * PF % M)
    twists = {}
    quaternionic = set()
    for j, _ in invertible:
        k = ones.get(pk.pack(ratios[j]) * PF % M)
        if k is None:
            raise ValueError(f"{md.T[j] * md.T[unit].conj()!r} is not a root of unity")
        cj = coords[j]
        twists[cj] = k * den // m
        if group.element_order(cj) * twists[cj] % den == den // 2:
            quaternionic.add(cj)
    charges = {coords[j]: [None] * n for j, _ in invertible}
    for a in range(n):
        if not U[unit][a]:
            raise ValueError("unit row of S has a zero entry")
        phases = pk.rotations(U[unit][a])
        for j, _ in invertible:
            k = phases.get(U[j][a])
            if k is None:
                raise ValueError(
                    f"S ratio of current {md.labels[j]!r} at primary {md.labels[a]!r}"
                    " is not a root of unity"
                )
            charges[coords[j]][a] = k * den // m
    charges = {cj: tuple(row) for cj, row in charges.items()}
    # class labels by their restriction of the grading to the current group
    classes: dict = {}
    sig_of = [
        classes.setdefault(tuple(row[a] for row in charges.values()), len(classes))
        for a in range(n)
    ]
    linked = {
        (sig_of[a], sig_of[b])
        for a in range(n)
        for b in range(n)
        if U[a][b]
    }
    suff = len(linked) == len(classes) ** 2
    return SimpleCurrentStructure(
        group, coords, label_index, action_table, quaternionic, suff, den, charges, twists
    )


class ModularInvariant:
    """Nonnegative integer matrix commuting with S and T."""

    __slots__ = ("matrix", "provenance")

    def __init__(self, matrix, provenance=None):
        self.matrix = tuple(
            tuple(as_integer(x, "invariant entries must be integers") for x in row)
            for row in matrix
        )
        self.provenance = provenance or {}

    def __eq__(self, other):
        return isinstance(other, ModularInvariant) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"ModularInvariant({self.matrix})"

    def transpose(self) -> "ModularInvariant":
        n = len(self.matrix)
        return ModularInvariant(
            [[self.matrix[j][i] for j in range(n)] for i in range(n)],
            {"transpose_of": self.provenance},
        )

    def to_json(self):
        return {"matrix": [list(r) for r in self.matrix], "provenance": _json_prov(self.provenance)}


def _json_prov(p):
    out = {}
    for k, v in p.items():
        if isinstance(v, (str, int, list)):
            out[k] = v
        elif isinstance(v, tuple):
            out[k] = list(v)
        else:
            out[k] = repr(v)
    return out


def check_invariant(md: ModularData, matrix) -> tuple[bool, dict]:
    """Definition check: integrality, normalization, S/T commutation.

    The report also carries the current-periodicity consequence as a
    secondary entry.
    """
    n = md.dim
    M = [[as_integer(x, "invariant entries must be integers") for x in row] for row in matrix]
    if len(M) != n or any(len(r) != n for r in M):
        raise ValueError("matrix dimension mismatch")
    report = {}
    report["nonnegative"] = all(x >= 0 for row in M for x in row)
    report["unit_normalized"] = M[md.unit][md.unit] == 1
    report["T_commutes"] = all(
        M[a][b] == 0 or md.T[a] == md.T[b] for a in range(n) for b in range(n)
    )
    report["S_commutes"] = s_commutes(md, M)
    ok = all(report.values())
    if ok:
        report["current_periodicity"] = _current_periodic(simple_currents(md), M)
    return ok, report


def _current_periodic(sc: SimpleCurrentStructure, M) -> bool:
    """True iff M[J a][J' b] = M[a][b] for all a, b and all currents J, J'
    with M[J][J'] != 0.

    The pairs (p, p') of permutations with M[p a][p' b] = M[a][b] form a
    group under composition, so only pairs outside the group generated by
    the pairs already checked are tested, each over all entries until the
    first failure.  A current's permutation sends the unit to the current
    itself, so a pair is kept as the pair of current indices (j, j'), and
    p_k p_g is the current p_k(g).
    """
    n = len(M)
    perm = {sc.label_index[jc]: p for jc, p in sc.action_table.items()}
    zero = sc.label_index[sc.group.zero()]
    span = {(zero, zero)}
    gens = []
    for j, p in perm.items():
        for j2, p2 in perm.items():
            if M[j][j2] == 0 or (j, j2) in span:
                continue
            if any([M[p[a]][x] for x in p2] != M[a] for a in range(n)):
                return False
            gens.append((j, j2))
            stack = list(span)
            while stack:
                k, k2 = stack.pop()
                for g, g2 in gens:
                    h = (perm[k][g], perm[k2][g2])
                    if h not in span:
                        span.add(h)
                        stack.append(h)
    return True


# -- exact commutant enumeration ----------------------------------------------


def _position_classes(md: ModularData):
    """(classes, columns): the unknowns of Z and the columns j whose equations
    (SZ - ZS)_ij = 0 are written (module docstring).

    Where ``galois_action`` certifies S and S is invertible (the charge
    conjugation exists), a class is an orbit of positions (a, b) under
    (a, b) -> (perm[a], perm[b]) of the generators, and ``columns`` holds one
    column per orbit.  A class is kept only if T allows each member
    (T_a = T_b) and signs[a] = signs[b] at each member and generator: Z then
    takes one value on it.  Otherwise a nonnegative Z is 0 there, and the
    class is dropped.  Without a certificate the classes are the single
    allowed positions and every column gives equations.  Classes come in
    row-major order of their least position.
    """
    n = md.dim
    order = _conductor([md.T])
    _, (iT,) = _integral([md.T], order)
    twist = [tuple(_reduced(p, order)) for p in iT]
    act = galois_action(md)
    gens = []
    if act.gens:
        try:
            md.charge_conjugation()
        except ValueError:  # S^2 is no permutation: S may be singular
            pass
        else:
            gens = [(perm, signs) for _, perm, signs in act.gens]
    seen = set()
    classes = []
    for a in range(n):
        for b in range(n):
            if (a, b) in seen:
                continue
            seen.add((a, b))
            orbit = [(a, b)]
            live = True
            for x, y in orbit:  # grows while it is read
                live = live and twist[x] == twist[y]
                for perm, signs in gens:
                    live = live and signs[x] == signs[y]
                    p = (perm[x], perm[y])
                    if p not in seen:
                        seen.add(p)
                        orbit.append(p)
            if live:
                classes.append(orbit)
    columns = [o[0] for o in act.orbits] if gens else list(range(n))
    return classes, columns


def _commutant_rows(md: ModularData, class_of, columns):
    """Integer rows of (SZ - ZS)_ij = 0 for j in ``columns``, with Z taking
    the value of unknown class_of[(a, b)] at (a, b), and 0 off the classes.

    S is written over its conductor N and one denominator, which the
    homogeneous system drops.  Each entry is reduced modulo Phi_N once; the
    coefficient of zeta_N^k (k < deg Phi_N) in (SZ - ZS)_ij gives one row.
    """
    n = md.dim
    N, _, iS, _ = md._integral_S()
    deg = len(cyclotomic_polynomial(N)) - 1
    R = [[_reduced(p, N)[:deg] for p in row] for row in iS]
    for i in range(n):
        for j in columns:
            terms = {}
            for b in range(n):
                v = class_of.get((b, j))
                if v is not None:
                    acc = terms.get(v)
                    terms[v] = R[i][b] if acc is None else [x + y for x, y in zip(acc, R[i][b])]
            for a in range(n):
                v = class_of.get((i, a))
                if v is not None:
                    acc = terms.get(v, [0] * deg)
                    terms[v] = [x - y for x, y in zip(acc, R[a][j])]
            for k in range(deg):
                row = {v: vec[k] for v, vec in terms.items() if vec[k]}
                if row:
                    yield row


def _eliminate(row, const, var, pc, prow, pconst):
    """pc * (row, const) - row[var] * (pc x_var + prow = pconst): var drops out."""
    c = row[var]
    out = {v: pc * x for v, x in row.items() if v != var}
    for v, x in prow.items():
        y = out.get(v, 0) - c * x
        if y:
            out[v] = y
        else:
            out.pop(v, None)
    return out, pc * const - c * pconst


def _primitive(pc, row, const):
    """pc x + Sum row = const divided by its content, signed so that pc > 0."""
    g = gcd(pc, const, *row.values())
    if pc < 0:
        g = -g
    return pc // g, {v: x // g for v, x in row.items()}, const // g


def _rref_insert(pivots, row, const):
    """Reduce the equation Sum row[v] x_v = const by the pivots; install it if independent.

    ``pivots`` maps each pivot variable p to (pc, row, const), meaning
    pc x_p + Sum row[v] x_v = const with integers of content 1 and pc > 0.
    p is the largest variable of its equation, and no other pivot variable
    occurs in it, so the system is a fully reduced echelon form: unique for
    its row space up to the positive scale of each row.
    """
    for var in [v for v in row if v in pivots]:
        row, const = _eliminate(row, const, var, *pivots[var])
    if not row:
        if const:
            raise _Inconsistent()
        return
    piv = max(row)
    pc, row, const = _primitive(row.pop(piv), row, const)
    # back substitute into existing rows
    for var, (qc, qrow, qconst) in list(pivots.items()):
        if piv in qrow:
            qrow, qconst = _eliminate(qrow, qconst, piv, pc, row, const)
            pivots[var] = _primitive(pc * qc, qrow, qconst)
    pivots[piv] = (pc, row, const)


class _Inconsistent(Exception):
    pass


def brute_force_invariants(md: ModularData):
    """All nonnegative integer matrices commuting with S and T.

    Entries are bounded by the primary count and the unit entry is fixed to
    1.  Complete within the bound.  The unknowns are the position classes of
    ``_position_classes`` and the equations those of its columns: where the
    Galois action is certified and S invertible, one unknown per orbit of
    positions and one column per orbit, with the plain system's solutions
    (module docstring).
    """
    n = md.dim
    if n > BRUTE_GUARD:
        raise GuardError(f"primary count {n} exceeds guard {BRUTE_GUARD}")
    bound = n
    classes, columns = _position_classes(md)
    class_of = {p: v for v, cls in enumerate(classes) for p in cls}
    if (md.unit, md.unit) not in class_of:
        raise ValueError("unit diagonal position missing")
    pivots: dict = {}
    try:
        for row in _commutant_rows(md, class_of, columns):
            _rref_insert(pivots, row, 0)
        _rref_insert(pivots, {class_of[(md.unit, md.unit)]: 1}, 1)
    except _Inconsistent:
        return []
    nvars = len(classes)
    free = [v for v in range(nvars) if v not in pivots]
    # pivot rows grouped by the last free variable they depend on; the row of
    # pivot p passes once pc * x_p = const - Sum c x_v lies in [0, pc * bound]
    # and is divisible by pc
    order_of = {v: i for i, v in enumerate(free)}
    by_depth: dict[int, list] = {}
    for var, (pc, row, const) in pivots.items():
        last = max((order_of[v] for v in row), default=-1)
        by_depth.setdefault(last, []).append((pc, row, const))
    out = []
    assign = {}

    def emit():
        M = [[0] * n for _ in range(n)]
        vals = dict(assign)
        for var, (pc, row, const) in pivots.items():
            vals[var] = (const - sum(c * vals[v] for v, c in row.items())) // pc
        for (a, b), v in class_of.items():
            M[a][b] = vals[v]
        out.append(ModularInvariant(M, {"source": "brute_force"}))

    def passes(pc, v):
        return v % pc == 0 and 0 <= v <= pc * bound

    def dfs(depth):
        if depth == len(free):
            emit()
            return
        for val in range(bound + 1):
            assign[free[depth]] = val
            if all(
                passes(pc, const - sum(c * assign[u] for u, c in row.items()))
                for pc, row, const in by_depth.get(depth, [])
            ):
                dfs(depth + 1)
        del assign[free[depth]]

    # pivots depending on no free variable get checked before any branching
    if all(passes(pc, const) for pc, _, const in by_depth.get(-1, [])):
        dfs(0)
    out.sort(key=lambda z: z.matrix)
    return out
