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
  per order and cached on it.  A Weil or TY S holds few distinct entry
  objects (55 of 484 positions on the 22-primary TY double of 2^2_1), so S
  is kept as the list of them, by identity, and an n x n index into it
  (``_Entries``, built once per datum): each distinct entry is converted,
  packed, multiplied by F and reduced once, and a matrix is expanded from
  those results by plain list indexing.  T's entries are reduced to
  canonical keys once per datum too (``ModularData._twist_classes``).
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
  root of unity by looking one packed value (times F) up among the
  rotations of another.  ``simple_currents`` reads S and T only, on modular
  data (it does not re-validate): S diagonalizes each fusion matrix N_j
  with eigenvalues psi_k(j) = S_jk / S_0k, so j is invertible exactly when
  every psi_k(j) is a root of unity (N_j is then a unitary nonnegative
  integer matrix, a permutation), its charges are those phases, and the
  row of j a is row a times them entry by entry, S_{j a, k} = psi_k(j) S_ak.
  All of it is rotation lookups at an even m, where the sign is a rotation.
* Results are unpacked and reduced modulo Phi_N only where a value is
  returned or compared as a whole matrix: ``_product`` gives a product as
  reduced integer lists and ``mat_mul``, the one matrix product over
  Q(zeta_N), wraps them as ``Cyclotomic`` values.  ``validate_modular``
  compares (ST)^3 with S^2 by ``mat_mul`` only when S is not unitary or T
  not a root of unity; on modular data it compares S T S with
  T-bar S T-bar in the packing.

The brute-force invariant search writes the commutant linear system SZ = ZS
as integer rows (one per coefficient of zeta_N), brings it to a fully reduced
echelon form by fraction-free elimination, and enumerates bounded
nonnegative integer points by divisibility checks on the pivot rows.  The
identity solves every such system, its unit entry 1 included, so a row
that reduces to 0 = c with c nonzero is a fault (``RuntimeError``).

Galois symmetry.  For modular data every sigma in Gal(Q(zeta_N)/Q), N the
conductor of S, acts on S as a signed permutation of its columns:
sigma(S_ik) = eps_sigma(k) S_{i, pi_sigma(k)} (Coste-Gannon, Phys. Lett. B
323, 1994).  ``galois_action`` (the plan's ``galois``) certifies this
exactly for a generating set of (Z/N)^*, sigma_g acting on exponents by
j -> g j mod N: each column's image, packed times F, is looked up among the
columns and their negatives packed the same way.  Composition extends the
relation to the whole group, so its column orbits are those of the
generated permutations.

The sums over S.  Every exact sum over the columns k of S, Sum_k f(k) with
f(k) a product of values in column k, is read by one reader, ``_Sums``.
Where the action is certified and sigma(f(k)) = f(pi_sigma k) for every
sigma, the sum is fixed by every sigma, hence rational, and phi(N) times it
is its trace, Sum over orbit representatives k of |O_k| Tr f(k), as the
trace is constant on orbits.  The trace of an integer polynomial v is
Sum_j v_j c_N(j) with the Ramanujan sums c_N(j) = Tr zeta_N^j, i.e. the
constant coefficient of v R modulo x^N - 1, R = Sum_j c_N(j) x^j (c_N is
even in j).  So the orbit reader sums one column per orbit, with |O_k| R
folded into one factor of each summand, and reads the lowest digit of the
packed sum: phi(N) times the value.  Each digit is at most base ||R||_1,
base the sum of the l1 norms of the summands, which sets the width.  Where
T widens the conductor to N' (a multiple of N), the trace from Q(zeta_N')
of a value in Q(zeta_N) is [Q(zeta_N') : Q(zeta_N)] times the trace from
Q(zeta_N), so the constant of v R' over phi(N') is still the sum.  Without
a certificate the full reader sums every column with F folded in and
decides the sum by ``_Packing.rational``, under ``_rational_bound`` of
base.  Both give the same rational integer; the full reader gives None for
a sum that is not rational, the orbit reader for a digit phi(N) does not
divide, which a correct certificate never leaves.  The plan picks the
reader and builds it (``_Plan.reader``); the uses of the certificate:

* ``verlinde``.  In f(k) = S_ak S_bk S_ek / S_0k the sign appears three
  times over once, so sigma(f(k)) = f(pi_sigma k), and M(a, b, e) is read
  by the orbit reader.
* ``validate_modular`` and ``charge_conjugation``.  The summands
  S_ik conj(S_jk) of (S S-bar^T)_ij are permuted the same way (the signs
  square to 1), and so are S_ik S_kj of (S^2)_ij when S is symmetric, as
  its rows then move like its columns: the orbit reader reads both.
* ``s_commutes``.  If an integer Z has Z_{pi a, pi b} = eps(a) eps(b) Z_ab
  for each generator, Z commutes with Q, so sigma(SZ - ZS) = (SZ - ZS) Q,
  and one column per orbit decides SZ = ZS.  The condition is tested on
  the nonzeros of Z alone: (a, b) -> (pi a, pi b) permutes the positions,
  so if every nonzero maps to an equal nonzero, the support maps onto
  itself and zeros map to zeros.
* ``brute_force_invariants``.  If S is invertible and Z rational with
  SZ = ZS, then sigma(S) = S Q with Q the signed permutation matrix, and
  S Q Z = sigma(SZ) = sigma(ZS) = Z S Q = S Z Q, so QZ = ZQ:
  Z_{pi a, pi b} = eps(a) eps(b) Z_ab.  A nonnegative Z is therefore
  constant on each orbit of positions whose signs all agree, and 0 on an
  orbit with a sign -1 or with a position T forbids.  For such a Z,
  sigma((SZ - ZS)_ij) = eps(j) (SZ - ZS)_{i, pi j}, so the equations of
  one column per orbit imply the rest.  When S is also symmetric, its rows
  move like its columns: sigma(S) = Q^T S, so sigma(SZ - ZS) =
  Q^T (SZ - ZS), i.e. sigma((SZ - ZS)_ij) = eps(i) (SZ - ZS)_{pi i, j},
  and one row per orbit is read as well (72 of 145 equations on the
  15-primary TY double of 3^1_+).  Both systems have the same rational
  solutions, so the same fully reduced echelon form.  Without a
  certificate the classes are single positions and every row and column
  gives equations: the plain system.

Simple-current symmetry.  ``simple_currents`` finds, by exact rotation
lookups alone, the currents J with S_{J a, k} = psi_k(J) S_ak for every a
and k, psi_k(J) a root of unity and a character in J (Schellekens-
Yankielowicz, Int. J. Mod. Phys. A 5, 1990).  The plan's ``orbits`` are
the orbits of the primaries under them: a = J r with r the least primary
of its orbit.  Three identities follow, each exact for any S with that
certificate; the plan names the rows each one sums:

* Verlinde: M(J a, K b, e) = M(a, b, (J + K) e), as psi is a character.
  So only M(r, r', e) for representatives r <= r' and every e is summed,
  and each row N_ab is a permutation of its pair's sums: integrality and
  sign are checked once per representative pair, and the rows are read
  through one permutation per current.
* Unitarity and S^2: (S S-bar^T)_{J r, j} = (S S-bar^T)_{r, J^-1 j}, as
  psi is a root of unity; when S is symmetric also (S^2)_{J r, j} =
  (S^2)_{r, J j}, so a permutation S^2 has p(J r) = J^-1 p(r).  Only
  representative rows are summed.
* The cube S T S = T-bar S T-bar, for symmetric S, T of roots of unity and
  the twist balance t_{J a} t_0 S_{J,a} = t_a t_J S_{0,a} checked for each
  generator J and every a: then both sides at (J a, j) equal those at
  (a, J j), so only representative rows are compared.

Charge conservation.  Where S is also symmetric, S_{x, J k} = S_{J k, x} =
e(Q_J(x)) S_xk for every x, with psi_x(J) = e(Q_J(x)) (e(r) = e^(2 pi i r))
and Q the charges ``simple_currents`` reads.  Substituting k -> J k, a
bijection, in a sum over k multiplies each summand by the same root of
unity, so the sum equals itself times it and is 0 unless that root is 1.
This gives three selection rules, one condition per generator J of the
currents (psi is a character, so the generators imply the rest):

* M(a, b, e) = Sum_k S_ak S_bk S_ek / S_0k is 0 unless Q_J(a) + Q_J(b) +
  Q_J(e) = Q_J(0); Q_J(0) is 1/2 where S_{J,0} = -S_{0,0};
* (S S-bar^T)_ij is 0 unless Q_J(i) = Q_J(j);
* (S^2)_ij is 0 unless Q_J(i) + Q_J(j) = 0.

The plan's ``charges`` hold the Q_J on the generators where the current
orbits are nontrivial and S is symmetric; ``verlinde``, ``_Plan.hermitian``
and ``_square_permutation`` write 0 for every sum a rule forbids, without
packing or summing it.  The rules are exact for any S with these
certificates, modular or not, so the results are those of the full sums.

``check_invariant`` also reports current periodicity, Z_{J a, J' b} = Z_ab
whenever Z_{J, J'} != 0 (``_current_periodic``).  The pairs of current
permutations that preserve Z form a group, so only pairs outside the span
of those already checked are tested, each on the nonzeros of Z alone, which
is exact as the Galois test on Z is.

Fallback.  One ``_Plan`` per datum, the one place where a certificate is
chosen, tells each identity which reader, rows or columns to use.  Where it
has none (no Galois generators, ``simple_currents`` raises ValueError, or
the twist balance fails) the full sum runs, with the same result.  Its
``guard``, the one caller of ``check_work``, raises GuardError before those
sums start if their packed work exceeds WORK_GUARD, so data with both
certificates (and the twist balance) never reach the guard, and no
admitted datum runs for minutes.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress
from math import gcd, lcm
from operator import itemgetter, mul
from typing import NamedTuple

from .abelian import FinAbGroup, GuardError, abelian_structure
from .scalars import (
    Cyclotomic,
    _Packing,
    _conj_poly,
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
WORK_GUARD = 5 * 10**9  # word products (``check_work``): about 10 s of an uncertified sum


def check_primaries(n: int) -> None:
    """GuardError if a constructor is about to build more than PRIMARY_GUARD primaries."""
    if n > PRIMARY_GUARD:
        raise GuardError(f"primary count {n} exceeds guard {PRIMARY_GUARD}")


def check_work(products: int, pk: _Packing, words: int = 0) -> None:
    """GuardError if ``products`` packed products in pk would exceed WORK_GUARD.

    Work is counted in products of 64-bit words, as schoolbook multiplication
    costs them: a product of two packed values of w words (N digits of
    ``pk.shift`` bits) is w^2, a packed value times an integer of ``words``
    words is w ``words``.  Its one caller is ``_Plan.guard``, before the
    sums of an identity that run without the certificate they could use.
    """
    w = -(-pk.N * pk.shift // 64)
    work = products * w * (words or w)
    if work > WORK_GUARD:
        raise GuardError(f"full-sum work {work} exceeds guard {WORK_GUARD}")


# -- exact integer kernel for matrices over Q(zeta_N) -------------------------


def _conductor(*mats) -> int:
    return lcm(*(x.order for M in mats for row in M for x in row))


class _Entries(NamedTuple):
    """A matrix stored by its distinct entry objects: entry (i, j) is
    ``values[index[i][j]]``.  Matrices derived entry by entry share ``index``."""

    values: list
    index: list

    @staticmethod
    def of(M) -> "_Entries":
        """The distinct entry objects of M, by identity, in first-seen order."""
        first = {id(x): x for row in M for x in row}
        where = {key: k for k, key in enumerate(first)}
        return _Entries(list(first.values()), [list(map(where.__getitem__, map(id, row))) for row in M])

    def map(self, f) -> "_Entries":
        """The matrix of f(x), f called once per distinct entry x."""
        return _Entries(list(map(f, self.values)), self.index)

    def rows(self) -> list[list]:
        """The matrix itself, by plain list indexing."""
        return [list(map(self.values.__getitem__, row)) for row in self.index]


def _integral_values(values, N: int):
    """(D, [{k: c}]) with x = Sum c zeta_N^k / D for each x in values, every c an integer."""
    den = lcm(*(c.denominator for x in values for _, c in x.terms()))

    def integral(x):
        step = N // x.order
        return {k * step: c.numerator * (den // c.denominator) for k, c in x.terms()}

    return den, list(map(integral, values))


def _integral(M, N: int):
    """(D, rows of {k: c}) with M[i][j] = Sum c zeta_N^k / D, every c an integer.

    Each distinct entry object of M is converted once, and its entries share
    that dict: callers must not mutate them.
    """
    E = _Entries.of(M)
    den, values = _integral_values(E.values, N)
    return den, _Entries(values, E.index).rows()


def _norm(rows) -> int:
    """Largest l1 norm of an integer polynomial entry."""
    distinct = {id(p): p for row in rows for p in row}.values()
    return max((sum(map(abs, p.values())) for p in distinct), default=0)


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


def _support(matrix) -> list[tuple[int, int, int]]:
    """(a, b, Z_ab) for the nonzero entries of Z, in row-major order."""
    return [(a, b, row[b]) for a, row in enumerate(matrix) for b in compress(range(len(row)), row)]


def _orbits(points, moves) -> list[list]:
    """The orbits of ``points`` under the maps ``moves``, ordered by their
    first point, each in the order it is reached from that point."""
    seen = set()
    out = []
    for start in points:
        if start not in seen:
            seen.add(start)
            orbit = [start]
            for x in orbit:  # grows while it is read
                for f in moves:
                    y = f(x)
                    if y not in seen:
                        seen.add(y)
                        orbit.append(y)
            out.append(orbit)
    return out


def s_commutes(md: ModularData, matrix) -> bool:
    """True iff the integer matrix Z commutes with S, decided exactly by the
    kernel (``_s_failure``); ValueError unless Z is an n x n integer matrix."""
    M = _integer_matrix(matrix, md.dim)
    return _s_failure(md, M, _support(M)) is None


def _s_failure(md: ModularData, matrix, support):
    """None if the integer matrix Z commutes with S, else the first position
    (i, j) found with (SZ)_ij != (ZS)_ij; ``support`` is ``_support(Z)``.

    The columns j checked are the plan's (``_Plan.columns``), in that
    order, rows increasing within each; column j of SZ is summed from the
    nonzeros of column j of Z, and column j of ZS from every nonzero of Z,
    one product each.  S F is read from ``ModularData._packed_SF``, so every
    matrix whose entries fit one digit width shares it.
    """
    n = md.dim
    N, _, _, norm = md._integral_S()
    zmax = max((abs(x) for _, _, x in support), default=0)
    pk, _, P, PT = md._packed_SF(N, 2 * n * norm * zmax * sum(map(abs, cyclotomic_cofactor(N))))
    M = pk.M
    cols = [[] for _ in range(n)]
    for a, b, x in support:
        cols[b].append((a, x))
    columns, work = md._plan.columns(matrix, support)
    md._plan.guard(pk, work, 1 + zmax.bit_length() // 64)
    # entries of S F: (SZ - ZS)_ij vanishes modulo Phi_N iff its multiple by F
    # vanishes modulo x^N - 1
    for j in columns:
        sz = [0] * n
        for t, x in cols[j]:
            sz = [v + x * y for v, y in zip(sz, PT[t])]
        zs = [0] * n
        for i, t, x in support:
            zs[i] += x * P[t][j]
        for i in range(n):
            if (sz[i] - zs[i]) % M:
                return i, j
    return None


class _Sums(NamedTuple):
    """The one reader of exact sums over the columns of S (module docstring,
    "Galois symmetry").

    A sum Sum_k x_k y_k of packed rows x, y over all columns is read as
    ``value(sum(map(mul, left(x), [y[k] for k in columns])))``.  On the
    orbit path ``columns`` are one column per Galois orbit, ``weights`` the
    packed |O_k| R and ``phi`` is phi(N); on the full path ``columns`` are
    all columns, every weight is F and ``phi`` is 0.  Built by
    ``_Plan.reader``.
    """

    pk: _Packing
    columns: list
    weights: list
    phi: int

    def left(self, row) -> list:
        """The packed row at the summed columns, each entry times its weight."""
        M = self.pk.M
        return [row[k] * w % M for k, w in zip(self.columns, self.weights)]

    def value(self, u: int) -> int | None:
        """The rational integer the packed sum u stands for, else None."""
        if not self.phi:
            return self.pk.rational(u)
        trace = self.pk.constant(u)
        return None if trace % self.phi else trace // self.phi


def _square_permutation(sums: _Sums, P, den: int, orb, charges: _Charges | None):
    """Permutation p with S^2 = den times the matrix of i -> p(i), else None.

    P packs the rows of an integer form of S in the packing of ``sums``, the
    reader of (S^2)_ij = Sum_k S_ik S_kj.  Only the representative rows of
    the current orbits ``orb`` (trivial unless S is symmetric) are summed,
    as p(J r) = J^-1 p(r), and with ``charges`` only the (i, j) with
    Q_J(i) + Q_J(j) = 0 on every generator J: the others are 0 (module
    docstring, "Simple-current symmetry" and "Charge conservation").
    """
    n = len(P)
    cols = [[P[k][j] for k in sums.columns] for j in range(n)]
    perm = [None] * n
    for i in orb.reps:
        row = sums.left(P[i])
        js = range(n) if charges is None else charges.having(minus=(i,))
        hits = [(j, r) for j in js if (r := sums.value(sum(map(mul, row, cols[j])))) != 0]
        if len(hits) != 1 or hits[0][1] != den:
            return None
        perm[i] = hits[0][0]
    neg = orb.group.neg
    perm = [orb.perm[neg(J)][perm[r]] for r, J in zip(orb.rep, orb.shift)]
    return perm if sorted(perm) == list(range(n)) else None


class _Charges(NamedTuple):
    """The charges of the primaries on the generators J of the current group:
    ``rows[x]`` holds den Q_J(x) mod den for each generator, as
    ``SimpleCurrentStructure.charges`` stores them, and ``where`` the
    primaries of each row, increasing."""

    den: int
    rows: tuple
    where: dict

    @staticmethod
    def of(sc: SimpleCurrentStructure) -> "_Charges":
        rows = tuple(zip(*(sc.charges[J] for J in sc.group.basis())))
        where: dict = {}
        for x, row in enumerate(rows):
            where.setdefault(row, []).append(x)
        return _Charges(sc.den, rows, where)

    def having(self, plus=(), minus=()) -> list:
        """The primaries x with Q_J(x) = Sum Q_J(plus) - Sum Q_J(minus) for
        every generator J, increasing."""
        terms = [self.rows[p] for p in plus] + [[-q for q in self.rows[m]] for m in minus]
        return self.where.get(tuple(sum(qs) % self.den for qs in zip(*terms)), [])


class _Plan:
    """The symmetry plan of one datum (module docstring): ``galois`` is the
    Galois action, ``orbits`` the current orbits (trivial where
    ``simple_currents`` raises ValueError), ``symmetric`` whether S = S^T
    and ``charges`` the charge rows of the current generators (``_Charges``;
    None unless the orbits are nontrivial and S is symmetric), each computed
    on its first read.  Each question returns the work, in products, of the
    sums that run without a certificate; the sums that the charges force to
    0 are counted in it too."""

    def __init__(self, md: ModularData):
        self._md = weakref.ref(md)  # md keeps its plan: no reference cycle
        self._orbit_readers = {}

    @staticmethod
    def uncertified(md: ModularData) -> "_Plan":
        """A plan for md with neither certificate: every sum runs in full."""
        plan = _Plan(md)
        plan.galois = GaloisAction(md._integral_S()[0], (), tuple((k,) for k in range(md.dim)))
        plan.orbits = CurrentOrbits.trivial(md.dim)
        return plan

    @cached_property
    def galois(self) -> GaloisAction:
        return _find_galois_action(self._md())

    @cached_property
    def orbits(self) -> CurrentOrbits:
        md = self._md()
        try:
            sc = simple_currents(md)
        except ValueError:
            return CurrentOrbits.trivial(md.dim)
        return CurrentOrbits.of(sc.group, sc.action_table, md.dim)

    @cached_property
    def symmetric(self) -> bool:
        """S_ij == S_ji for all i < j, on the S F ``galois_action`` reads,
        compared only where the two positions hold different entries."""
        vals, index = self._md()._packed_SF()[1]
        return all(
            k == h or vals[k] == vals[h]
            for i, (row, col) in enumerate(zip(index, zip(*index)))
            for k, h in zip(row[i + 1:], col[i + 1:])
        )

    @cached_property
    def charges(self) -> _Charges | None:
        md = self._md()
        if len(self.orbits.reps) == md.dim or not self.symmetric:
            return None
        return _Charges.of(simple_currents(md))

    def guard(self, pk: _Packing, work: int, words: int = 0) -> None:
        """``check_work`` on an identity's work, before any of its sums."""
        check_work(work, pk, words)

    def reader(self, N: int, base: int, full: _Sums | None = None, permuted: bool = True) -> _Sums:
        """The reader at conductor N of sums whose summands have l1 norms
        adding up to at most ``base``: over the Galois orbits where the
        action is certified and permutes the summands, else ``full`` or over
        all columns.  The orbit reader is built once per (N, base)."""
        if permuted and self.galois.certified:
            hit = self._orbit_readers.get((N, base))
            if hit is None:
                R = ramanujan_sums(N)
                pk = _Packing(N, base * sum(map(abs, R)))
                PR = pk.pack(dict(enumerate(R)))
                orbits = self.galois.orbits
                hit = _Sums(pk, [o[0] for o in orbits], [len(o) * PR % pk.M for o in orbits], R[0])
                self._orbit_readers[N, base] = hit
            return hit
        if full:
            return full
        n = self._md().dim
        pk = _Packing(N, _rational_bound(N, base))
        return _Sums(pk, list(range(n)), [pk.PF] * n, 0)

    def _pairs(self, reduced: bool, mirrored: bool, full: bool):
        """(rows, pairs, work): representative rows where ``reduced``, else
        all, the latter against j >= i where ``mirrored``."""
        n = self._md().dim
        rows = self.orbits.reps if reduced else range(n)
        pairs = [(i, j) for i in rows for j in range(i if mirrored and not reduced else 0, n)]
        return rows, pairs, len(pairs) * n if full else 0

    def hermitian(self, N: int, base: int, full: _Sums):
        """(reader, rows, pairs, work) of S S-bar^T = d^2 I: representative
        rows where the currents reduce, else the upper triangle; with
        ``charges``, only the pairs of equal charges (the rest are 0)."""
        n = self._md().dim
        sums = self.reader(N, base, full)
        rows, pairs, work = self._pairs(len(self.orbits.reps) < n, True, not sums.phi)
        Q = self.charges
        if Q is not None:
            pairs = [(i, j) for i, j in pairs if Q.rows[i] == Q.rows[j]]
        return sums, rows, pairs, work

    def square(self, N: int, base: int, full: _Sums | None = None):
        """(reader, orbits, work) of S^2 (``_square_permutation``): its
        summands move with the Galois action, and its rows with the
        currents, only when S is symmetric; else ``full`` over every row."""
        n = self._md().dim
        orb = self.orbits if self.symmetric else CurrentOrbits.trivial(n)
        sums = self.reader(N, base, full, self.symmetric)
        return sums, orb, 0 if sums.phi else len(orb.reps) * n * n

    def cube(self, balance):
        """(rows, pairs, work) of S T S = T-bar S T-bar: representative rows,
        uncounted, where S is symmetric and ``balance(p, a)`` holds for each
        generator's permutation p and primary a; else counted in full."""
        n = self._md().dim
        orb = self.orbits
        balanced = (
            len(orb.reps) < n
            and self.symmetric
            and all(balance(p, a) for p in map(orb.perm.get, orb.group.basis()) for a in range(n))
        )
        return self._pairs(balanced, self.symmetric, not balanced)

    def fusion(self, N: int, base: int, direct: list):
        """(reader, orbits, work) of the Verlinde sums (``verlinde``): only
        where ``direct`` is empty, the orbit reader, and the current orbits
        where their representative pairs are fewer sums than the triples."""
        n = self._md().dim
        sums = self.reader(N, base, None, not direct)
        r = n if direct else len(self.orbits.reps)
        pairs, triples = r * (r + 1) // 2 * n, n * (n + 1) * (n + 2) // 6
        orb = self.orbits if pairs < triples else None
        return sums, orb, 0 if sums.phi else (min(pairs, triples) + len(direct) * n * (n + 1) // 2) * n

    def columns(self, matrix, support):
        """(columns, work) of SZ = ZS (``_s_failure``): one per Galois orbit
        where Z_{pi a, pi b} = eps(a) eps(b) Z_ab holds on the ``support``
        of Z for every generator, else all (module docstring)."""
        act = self.galois
        if act.certified and all(
            matrix[perm[a]][perm[b]] == signs[a] * signs[b] * x for _, perm, signs in act.gens for a, b, x in support
        ):
            return [o[0] for o in act.orbits], 0
        n = self._md().dim
        return range(n), 2 * n * len(support)

    def commutant(self):
        """(gens, rows, columns) of the commutant system (module docstring):
        where there are generators and S is invertible, one column per
        Galois orbit, and one row per orbit when S is symmetric."""
        md = self._md()
        n = md.dim
        if self.galois.gens:
            try:
                md.charge_conjugation()
            except ValueError:  # S^2 is no permutation: S may be singular
                pass
            else:
                columns = [o[0] for o in self.galois.orbits]
                return self.galois.gens, columns if self.symmetric else range(n), columns
        return (), range(n), list(range(n))


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

    __slots__ = (
        "labels", "unit", "S", "T", "_fusion", "_charge", "_plan", "_currents", "_int_S", "_entries",
        "_twists", "__weakref__",
    )

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
        self._entries = _Entries.of(self.S)
        self._fusion = None
        self._charge = None
        self._plan = _Plan(self)
        self._currents = None
        self._int_S = {}
        self._twists = None

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        return self.labels.index(label)

    def _integral_S(self, N: int = 0):
        """(N, d, iS, norm): S = iS / d over zeta_N, iS an ``_Entries`` of
        integer polynomials (one per distinct entry object of S, sharing its
        index), norm the largest l1 norm of an entry of iS.  N = 0 stands for
        the conductor of S.  Computed once per order; callers must not mutate
        iS.  The same cache holds ``_packed_SF`` under the key (N, digit
        width)."""
        cache = self._int_S
        if not N:
            if 0 not in cache:
                cache[0] = lcm(*(x.order for x in self._entries.values))
            N = cache[0]
        hit = cache.get(N)
        if hit is None:
            d, values = _integral_values(self._entries.values, N)
            hit = cache[N] = (N, d, _Entries(values, self._entries.index), _norm([values]))
        return hit

    def _packed_SF(self, N: int = 0, bound: int = 0):
        """(pk, E, rows, columns): S F packed in the ``_Packing`` pk of
        (N, bound), F = (x^N - 1) / Phi_N, as an ``_Entries`` and as its rows
        and columns (tuples); kept per (N, digit width), on which the packing
        alone depends, and looked up before any packing is built.  N = 0
        stands for the conductor of S, bound = 0 for the narrowest bound
        under which two such values compare exactly (||S|| ||F||_1: their
        difference has digits below 2^(B-1)), the packing ``galois_action``,
        the plan's symmetry test and the conjugate-row lookup of ``verlinde``
        share.
        """
        N, _, iS, norm = self._integral_S(N)
        bound = bound or norm * sum(map(abs, cyclotomic_cofactor(N)))
        key = (N, _Packing.digit_width(bound))
        hit = self._int_S.get(key)
        if hit is None:
            pk = _Packing(N, bound)
            E = iS.map(lambda p: pk.pack(p) * pk.PF % pk.M)
            rows = list(map(tuple, E.rows()))
            hit = self._int_S[key] = (pk, E, rows, list(zip(*rows)))
        return hit

    def _twist_classes(self) -> tuple[int, ...]:
        """One integer per primary, equal exactly where T is: the entries of T
        are reduced modulo Phi_N over their conductor N, once per datum."""
        if self._twists is None:
            order = _conductor([self.T])
            _, (iT,) = _integral([self.T], order)
            keys: dict = {}
            self._twists = tuple(keys.setdefault(tuple(_reduced(p, order)), len(keys)) for p in iT)
        return self._twists

    def charge_conjugation(self):
        """Permutation c with S^2 the matrix of a -> c(a), decided as
        ``validate_modular`` decides it (``_Plan.square``)."""
        if self._charge is None:
            N, den, iS, norm = self._integral_S()
            sums, orb, work = self._plan.square(N, self.dim * norm * norm)
            self._plan.guard(sums.pk, work)
            perm = _square_permutation(sums, iS.map(sums.pk.pack).rows(), den * den, orb, self._plan.charges)
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
    d and T over its own denominator e.  The identities are decided in the
    packed kernel, each entry of S packed (and multiplied by F = (x^N - 1) /
    Phi_N) once per distinct entry, with no unpacking on modular data
    (module docstring).  The plan gives each sum its reader and rows
    (``_Plan.hermitian``, ``square`` and ``cube``; module docstring,
    "Simple-current symmetry"), and its guard takes all uncertified sums
    together before any sum starts, and again with the ``mat_mul`` cube
    before that starts:

    * S = S^T: the plan's ``symmetric``;
    * S S-bar^T = d^2 I;
    * T a root of unity: each entry is looked up among the x^k-rotations of
      +-e F, since the roots of unity of Q(zeta_N) are the +-zeta_N^k;
    * S^2 = d^2 times the matrix of a permutation (``_square_permutation``,
      shared with the charge conjugation);
    * (ST)^3 = S^2: if S is unitary and T a root of unity, both are
      invertible and T^-1 = T-bar, so (ST)^3 = S^2 exactly when
      S T S = T-bar S T-bar; times d^2 e^2 and F, entry (i, j) compares
      e Sum_k S_ik t_k S_kj F with d conj(t_i t_j) S_ij F.  The twist
      balance t_{Ja} t_0 S_{J,a} = t_a t_J S_{0,a}, for each generator J of
      the currents and every a, is compared the same way for the plan.  If
      S is not unitary or T not a root of unity, (ST)^3 and S^2 are
      compared as ``mat_mul`` products, ST built entry by entry.

    With norms the largest l1 norms of entries and t = max(||T||, e), the
    full reader's packing has ``_rational_bound`` of max(n ||S||^2, d ||S||,
    1) t^2: it also covers both sides of each cube comparison and the twist
    balance, which run in it.  The orbit reader has its own packing, so the
    cube keeps the narrower digits.  A permutation S^2 is kept as the charge
    conjugation of md.
    """
    report = []
    n = md.dim
    plan = md._plan
    N = lcm(md._integral_S()[0], _conductor([md.T]))
    _, dS, iS, norm_S = md._integral_S(N)
    dT, (iT,) = _integral([md.T], N)
    t = max(_norm([iT]), dT)
    base = n * norm_S**2
    full = plan.reader(N, max(base, dS * norm_S, 1) * t * t, permuted=False)
    pk = full.pk
    M, PF = pk.M, pk.PF
    Pe = iS.map(pk.pack)
    P, U = Pe.rows(), Pe.map(lambda x: x * PF % M).rows()
    PT = [pk.pack(p) for p in iT]
    u = md.unit
    sums, unit_rows, unit_pairs, unit_work = plan.hermitian(N, base, full)
    square, orb, square_work = plan.square(N, base, full)
    cube_rows, cube_pairs, cube_work = plan.cube(
        lambda p, a: (PT[p[a]] * PT[u] * U[p[u]][a] - PT[a] * PT[p[u]] * U[u][a]) % M == 0
    )
    work = unit_work + square_work + cube_work
    plan.guard(pk, work)

    if not plan.symmetric:
        report.append("S symmetric")
    d2 = dS * dS
    Ps = P if sums is full else iS.map(sums.pk.pack).rows()
    left = {i: sums.left(Ps[i]) for i in unit_rows}
    bar = iS.map(lambda p: sums.pk.pack(_conj_poly(p, N))).rows()
    right = [[row[k] for k in sums.columns] for row in bar]
    unitary = all(
        sums.value(sum(map(mul, left[i], right[j]))) == (d2 if i == j else 0) for i, j in unit_pairs
    )
    if not unitary:
        report.append("S unitary")
    roots = {**pk.rotations(dT * PF % M), **pk.rotations(-dT * PF % M)}
    twists = all(x * PF % M in roots for x in PT)
    if not twists:
        report.append("T root of unity")
    perm = _square_permutation(square, P if square is full else Ps, d2, orb, plan.charges)
    if perm is None:
        report.append("S^2 permutation")
    else:
        md._charge = tuple(perm)
        if perm[md.unit] != md.unit:
            report.append("S^2 fixes unit")
        if any(perm[perm[i]] != i for i in range(n)):
            report.append("S^2 involution")
    if unitary and twists:
        PTbar = [pk.pack(_conj_poly(p, N)) for p in iT]
        cols = list(zip(*U))
        PST = {i: [x * y % M for x, y in zip(P[i], PT)] for i in cube_rows}
        cube = all(
            (dT * sum(map(mul, PST[i], cols[j])) - dS * PTbar[i] * PTbar[j] * U[i][j]) % M == 0
            for i, j in cube_pairs
        )
    else:
        plan.guard(pk, work + 3 * n**3)
        ST = [[x * t for x, t in zip(row, md.T)] for row in md.S]
        cube = mat_mul(mat_mul(ST, ST), ST) == mat_mul(md.S, md.S)
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

    @property
    def certified(self) -> bool:
        """The action is known: generators were found, or (Z/N)^* is trivial (N <= 2)."""
        return bool(self.gens) or self.N <= 2


def galois_action(md: ModularData) -> GaloisAction:
    """The Galois action on the columns of S; computed once, by md's plan."""
    return md._plan.galois


def _unit_generators(N: int) -> list[int]:
    """A generating set of (Z/N)^*, taken greedily from 2, 3, ...: each g
    not yet in the span, the orbit of 1 under the generators so far."""
    span = {1}
    gens = []
    for g in range(2, N):
        if gcd(g, N) == 1 and g not in span:
            gens.append(g)
            span = set(_orbits([1], [lambda x, h=h: x * h % N for h in gens])[0])
    return gens


def _find_galois_action(md: ModularData) -> GaloisAction:
    """Decide sigma_g(S) column by column in one packing (module docstring).

    Each distinct entry p of S's integer form is packed times F once
    (``ModularData._packed_SF``, at its exact width), and so is its image
    sigma_g(p) (exponent j -> g j mod N) for each generator g.  A column's
    image is looked up among the columns and their negatives, packed the
    same way: v F = w F modulo x^N - 1 exactly when v = w modulo Phi_N, and
    sigma_g keeps l1 norms, so the lookup is exact.
    """
    n = md.dim
    N, _, iS, _ = md._integral_S()
    pk, _, _, cols = md._packed_SF()
    M, PF = pk.M, pk.PF
    index = {}
    for k, u in enumerate(cols):
        index[u] = (k, 1)
        index[tuple(-x % M for x in u)] = (k, -1)
    gens = []
    if len(index) == 2 * n:
        for g in _unit_generators(N):
            image = iS.map(lambda p: pk.pack({g * j % N: c for j, c in p.items()}) * PF % M)
            hits = [index.get(u) for u in zip(*image.rows())]
            if None in hits:
                gens = []
                break
            gens.append((g, tuple(k for k, _ in hits), tuple(s for _, s in hits)))
    orbits = _orbits(range(n), [perm.__getitem__ for _, perm, _ in gens])
    return GaloisAction(N, tuple(gens), tuple(tuple(sorted(o)) for o in orbits))


def verlinde(md: ModularData):
    """Fusion tensor N[a][b][c] via the S-matrix; entries must be nonnegative integers.

    N_ab^c = Sum_k S_ak S_bk conj(S_ck) / S_0k.  For any S the sum
    M(a, b, e) = Sum_k S_ak S_bk S_ek / S_0k is unchanged under every
    permutation of (a, b, e), so where the row conj(S_c) is a row S_e of S,
    N_ab^c = M(a, b, e), and only the M(a, b, e) with a <= b <= e are summed:
    about n^4 / 6 packed products.  Each row conj(S_c) F is looked up among
    the rows S_e F of ``ModularData._packed_SF``, at its exact width:
    conjugation keeps l1 norms.  A column with no conjugate row (only on
    non-modular S) is summed directly for every a <= b; the formula is
    symmetric in a and b, so the rest is mirrored.

    Every sum is read by the plan's reader (``_Plan.fusion``), with base
    n ||S||^3 ||1/S_0|| (largest l1 norms of entries).  The packing is a
    commutative ring homomorphism, so M(a, b, e), summed in any order of
    (a, b, e), is the same packed value as the direct sum for (a, b, c).
    The tensor is assembled in lexicographic (a, b, c) order with a <= b,
    raising at the first failing entry: since N_ab^c = N_ba^c, the first
    failure over all (a, b, c) has a <= b, so it is the one reported, with
    the same message.  1/S_0k is one ``Cyclotomic.inverse`` per distinct
    value of the unit row.

    Where the plan gives current orbits, only M(r, r', e) for their
    representatives r <= r' and every e is summed, and ``_current_fusion``
    reads each row N_ab, a = J r_a and b = K r_b, through (J + K) o conj_row
    (module docstring, "Simple-current symmetry"; the rows of S are then
    distinct, so these are bijections).  Only when a representative sum
    fails are the pairs walked in order, to name the first failure.  With
    the plan's ``charges``, M(a, b, e) is summed only where Q_J(a) + Q_J(b) +
    Q_J(e) = Q_J(0) on every generator J, and is 0 elsewhere (module
    docstring, "Charge conservation"); the direct columns are summed in full.
    """
    n = md.dim
    N, dS, iS, norm_S = md._integral_S()
    unit_row = md.S[md.unit]
    inverses: dict = {}  # reduced value -> its inverse
    of_entry: dict = {}  # distinct entry of S -> its inverse
    inv0 = []
    for k, h in enumerate(iS.index[md.unit]):
        if h not in of_entry:
            key = tuple(_reduced(iS.values[h], N))
            if not any(key):
                raise ValueError("unit row of S has a zero entry")
            if key not in inverses:
                inverses[key] = unit_row[k].inverse()
            of_entry[h] = inverses[key]
        inv0.append(of_entry[h])
    # each inverse keeps the order of its entry, which divides N
    dI, (iI,) = _integral([inv0], N)
    pe, _, U, _ = md._packed_SF()
    row_of = {u: e for e, u in enumerate(U)}
    Ubar = iS.map(lambda p: pe.pack(_conj_poly(p, N)) * pe.PF % pe.M).rows()
    conj_row = [row_of.get(tuple(u)) for u in Ubar]
    direct = [c for c, e in enumerate(conj_row) if e is None]
    plan = md._plan
    sums, orb, work = plan.fusion(N, n * norm_S**3 * _norm([iI]), direct)
    pk = sums.pk
    plan.guard(pk, work)
    Q, u = plan.charges, md.unit
    M = pk.M
    P = [[row[k] for k in sums.columns] for row in iS.map(pk.pack).rows()]
    Pinv = sums.left([pk.pack(p) for p in iI])
    Sbar = iS.map(lambda p: pk.pack(_conj_poly(p, N))).rows() if direct else None
    # for a <= b, decided: sym[a][b][e - b] = M(a, b, e) for e >= b, and
    # direct_sums[a][b][c] = N_ab^c for c in direct; or, over the current
    # representatives, sym[r][r2] = M(r, r2, e) for every e
    sym = [[None] * n for _ in range(n)]
    direct_sums = [[None] * n for _ in range(n)]
    for a in orb.reps if orb else range(n):
        W = [x * y % M for x, y in zip(P[a], Pinv)]
        for b in [r for r in orb.reps if r >= a] if orb else range(a, n):
            wb = [w * x % M for w, x in zip(W, P[b])]
            lo = 0 if orb else b
            sym[a][b] = ms = [0] * (n - lo)
            for e in range(lo, n) if Q is None else Q.having((u,), (a, b)):
                if e >= lo:
                    ms[e - lo] = sums.value(sum(map(mul, wb, P[e])))
            direct_sums[a][b] = {c: sums.value(sum(map(mul, wb, Sbar[c]))) for c in direct}
    den = dS**3 * dI
    if orb and not any(_failing(sym[r][r2], den) for r in orb.reps for r2 in orb.reps if r <= r2):
        return _current_fusion(orb, sym, conj_row, den)
    # every pair in order: with current orbits only to name the first failure
    out = []
    for a in range(n):
        plane = [out[b][a] for b in range(a)]
        for b in range(a, n):
            if orb:
                ra, rb = orb.rep[a], orb.rep[b]
                m = sym[ra][rb] if ra <= rb else sym[rb][ra]
                shift = orb.perm[orb.group.add(orb.shift[a], orb.shift[b])]
                row = [m[shift[e]] for e in conj_row]
            else:
                # M(a, b, e) for every e, each from its sorted triple
                m = [sym[e][a][b - a] for e in range(a)]
                m += [sym[a][e][b - e] for e in range(a, b)] + sym[a][b]
                row = [direct_sums[a][b][c] if e is None else m[e] for c, e in enumerate(conj_row)]
            if _failing(row, den):
                for c, r in enumerate(row):  # the first failure, by its message
                    if r is None:
                        raise ValueError(f"fusion coefficient not rational at {(a, b, c)}")
                    if r % den or r < 0:
                        raise ValueError(f"fusion coefficient {Fraction(r, den)} at {(a, b, c)}")
            plane.append(tuple(map(den.__rfloordiv__, row)))  # r // den
        out.append(tuple(plane))
    return tuple(out)


def _failing(sums, den: int) -> bool:
    """Some Verlinde sum (a multiple of den for an entry in N) is None, negative
    or not divisible by den."""
    return None in sums or min(sums) < 0 or any(map(den.__rmod__, sums))  # r % den


def _current_fusion(orb: CurrentOrbits, sym, conj_row, den: int):
    """The fusion tensor from checked representative sums: sym[r][r2] = M(r,
    r2, e) for every e, each a nonnegative multiple of den, for the orbit
    representatives r <= r2, and conj(S_c) = S_conj_row[c] for every c.

    With a = J r_a and b = K r_b, N_ab^c = M(r_a, r_b, (J + K) conj_row(c)),
    so row N_ab is the pair's quotient list read through the permutation
    (J + K) o conj_row, one ``itemgetter`` per current built once.  A row
    depends on (r_a, r_b, J + K) only, and is built once per such key.
    """
    n = len(conj_row)
    # n >= 2 wherever there are current orbits, so each getter returns a tuple
    pick = {L: itemgetter(*map(p.__getitem__, conj_row)) for L, p in orb.perm.items()}
    quotients = {
        (r, r2): tuple(map(den.__rfloordiv__, sym[r][r2])) for r in orb.reps for r2 in orb.reps if r <= r2
    }
    rows: dict = {}  # (r, r2, L) -> the row of every pair it stands for
    add, rep, shift = orb.group.add, orb.rep, orb.shift
    out = []
    for a in range(n):
        plane = [out[b][a] for b in range(a)]
        ra, J = rep[a], shift[a]
        for b in range(a, n):
            rb, L = rep[b], add(J, shift[b])
            pair = (ra, rb) if ra <= rb else (rb, ra)
            row = rows.get((pair, L))
            if row is None:
                row = rows[pair, L] = pick[L](quotients[pair])
            plane.append(row)
        out.append(tuple(plane))
    return tuple(out)


class CurrentOrbits(NamedTuple):
    """Orbits of the primaries under the simple currents (module docstring).

    Primary a is J r for r = ``rep[a]``, the least primary of its orbit, and
    the current J = ``shift[a]`` (group coordinates; zero at r itself).
    ``perm`` maps every current to its permutation of the primaries, as
    ``SimpleCurrentStructure.action_table`` does.  ``reps`` are the orbit
    representatives in increasing order; all primaries when no current but
    the unit is known, and then nothing is reduced.
    """

    group: FinAbGroup
    perm: dict
    reps: tuple
    rep: tuple
    shift: tuple

    @staticmethod
    def of(group: FinAbGroup, perm: dict, n: int) -> "CurrentOrbits":
        """The orbits of the n primaries under the permutations ``perm`` of ``group``."""
        zero = group.zero()
        rep, shift, reps = [None] * n, [None] * n, []
        for a in range(n):
            if rep[a] is None:
                reps.append(a)
                rep[a], shift[a] = a, zero
                for J, p in perm.items():
                    if rep[p[a]] is None:
                        rep[p[a]], shift[p[a]] = a, J
        return CurrentOrbits(group, perm, tuple(reps), tuple(rep), tuple(shift))

    @staticmethod
    def trivial(n: int) -> "CurrentOrbits":
        """Every primary its own orbit: no current but the unit."""
        return CurrentOrbits.of(FinAbGroup(()), {(): tuple(range(n))}, n)


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

    The currents, their ``action_table``, charges and twists are read off S
    and T alone, once per datum, by digit rotation in the packed kernel
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
    """Invertible simples with their charges, action and twists, and the zero
    pattern of S, read off S and T alone in one ``_Packing``.

    md need not be known to be modular: ``validate_modular`` and ``verlinde``
    call it (through the plan's ``orbits``) before modularity is decided, and
    rely only on what its exact lookups establish: S_{j a, k} = psi_k(j) S_ak
    for the returned action, psi a root of unity and a character.  On
    modular data j is a current exactly when every psi_k(j) = S_jk / S_0k is
    a root of unity, its charges are those phases, and the row of j a is row
    a times them (module docstring: S diagonalizes N_j with eigenvalues
    psi_k(j), and a unitary nonnegative integer matrix is a permutation).
    At m = lcm(2, N), N the conductor of S and T, every root of unity in
    Q(zeta_N) is some x^k.  S is packed times F = (x^m - 1) / Phi_m, as u
    (``ModularData._packed_SF``); v F = w F modulo x^m - 1 = Phi_m F exactly
    when v = w modulo Phi_m, as x^m - 1 is squarefree.

    * S_jk = zeta_m^q S_0k exactly when u_jk is u_0k rotated by q digits (the
      m rotations differ as S_0k != 0): one lookup per (j, k) gives the charge
      digit q, and j is a current when all n lookups hit;
    * j a is the row of u equal to row a rotated entry by entry by j's
      digits.  Currents compose by this lookup, which gives the group; each
      generator's permutation is looked up and every other one composed;
    * T_j conj(T_0) = zeta_m^k exactly when the packed t_j (T over its
      denominator d_T) times the one packed conj(t_0) F is the packed
      d_T^2 F rotated by k;
    * S_ab = 0 exactly when u_ab = 0.

    On other data the tables are read off S as given, or ValueError is raised
    when two rows of S are equal, a current's product row is no row of S, or
    a twist ratio is no root of unity.  Distinct rows make the currents' rows
    the unit row times distinct phase rows closed under products: a group,
    acting by permutations.  Exactness: compared values have coefficients at
    most ``bound`` ||F||_1 (the largest of ||S_ab||, ||t||^2 >= ||t_j
    conj(t_0)|| and d_T^2, in l1 norms), so a difference has digits below
    2^(B-1): 0 only if all are.
    """
    n, unit, labels = md.dim, md.unit, md.labels
    m = lcm(2, md._integral_S()[0], _conductor([md.T]))
    norm_S = md._integral_S(m)[3]
    dT, (iT,) = _integral([md.T], m)
    bound = max(norm_S, _norm([iT]) ** 2, dT * dT)
    pk, _, U, _ = md._packed_SF(m, bound * sum(map(abs, cyclotomic_cofactor(m))))
    M, PF, B = pk.M, pk.PF, pk.shift
    unit_bar = pk.pack(_conj_poly(iT[unit], m)) * PF % M
    digits = {j: [] for j in range(n)}  # charge digits of the rows still candidates
    rotations: dict = {}  # one table per distinct unit-row value
    for k in range(n):
        u = U[unit][k]
        if not u:
            raise ValueError("unit row of S has a zero entry")
        phases = rotations.get(u)
        if phases is None:
            phases = rotations[u] = pk.rotations(u)
        for j in list(digits):
            if U[j][k] in phases:
                digits[j].append(phases[U[j][k]])
            else:
                del digits[j]
    index = {}
    for c, row in enumerate(U):
        if index.setdefault(row, c) != c:
            raise ValueError(f"rows {labels[index[row]]!r} and {labels[c]!r} of S are equal")

    def times(j, a):
        c = index.get(tuple((u << B * q | u >> B * (m - q)) & M for u, q in zip(U[a], digits[j])))
        if c is None:
            raise ValueError(f"current {labels[j]!r} times {labels[a]!r} is not a row of S")
        return c

    group, coords = abelian_structure(digits, times, unit)
    den = lcm(m, group.exponent)
    label_index = {coords[j]: j for j in digits}
    acts = {group.zero(): tuple(range(n))}
    for e, d in zip(group.basis(), group.factors):
        gen = tuple(times(label_index[e], a) for a in range(n))
        for c, perm in list(acts.items()):
            for _ in range(d - 1):
                c, perm = group.add(c, e), tuple(gen[a] for a in perm)
                acts[c] = perm
    action_table = {coords[j]: acts[coords[j]] for j in digits}
    charges = {coords[j]: tuple(q * den // m for q in qs) for j, qs in digits.items()}
    ones = pk.rotations(dT * dT * PF % M)
    twists = {}
    for j in digits:
        k = ones.get(pk.pack(iT[j]) * unit_bar % M)
        if k is None:
            raise ValueError(f"{md.T[j] * md.T[unit].conj()!r} is not a root of unity")
        twists[coords[j]] = k * den // m
    quaternionic = {j for j, t in twists.items() if group.element_order(j) * t % den == den // 2}
    # class labels by their restriction of the grading to the current group
    classes: dict = {}
    sig = [classes.setdefault(tuple(r[a] for r in charges.values()), len(classes)) for a in range(n)]
    linked = {(sig[a], sig[b]) for a in range(n) for b in range(n) if U[a][b]}
    suff = len(linked) == len(classes) ** 2
    return SimpleCurrentStructure(
        group, coords, label_index, action_table, quaternionic, suff, den, charges, twists
    )


class ModularInvariant:
    """Nonnegative integer matrix commuting with S and T."""

    __slots__ = ("matrix", "provenance")

    def __init__(self, matrix, provenance=None):
        self.matrix = _integer_matrix(matrix)
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


def _integer_matrix(matrix, n: int | None = None) -> tuple[tuple[int, ...], ...]:
    """The rows of matrix as tuples of ints; ValueError unless matrix is a
    square list of rows (of n rows, if n is given) and every entry is
    integral (``as_integer``, so ``True`` is refused).  The entry types are
    read once: rows of plain ints are kept as they are."""
    try:
        rows = tuple(map(tuple, matrix))
    except TypeError:
        raise ValueError("matrix must be a list of rows") from None
    if not set(map(type, chain(*rows))) <= {int}:
        rows = tuple(tuple(as_integer(x, "invariant entries must be integers") for x in row) for row in rows)
    if any(len(row) != len(rows) for row in rows) or n not in (None, len(rows)):
        raise ValueError("matrix dimension mismatch")
    return rows


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

    Each condition is decided exactly on the nonzero positions of Z, read
    once: nonnegativity; T-commutation, Z_ab != 0 only where T_a = T_b, by
    ``ModularData._twist_classes``; S-commutation by ``_s_failure``.  When
    the check fails, ``report["witness"]`` names the first failing condition,
    the first position found (row-major for the first three conditions, in
    ``_s_failure``'s order for S) and the two values compared there.  When it
    passes, the report also carries the current-periodicity consequence as a
    secondary entry.
    """
    n = md.dim
    M = _integer_matrix(matrix, n)
    support = _support(M)
    twist = md._twist_classes()
    u = md.unit
    negative = next(((a, b, x) for a, b, x in support if x < 0), None)
    moved = next(((a, b) for a, b, _ in support if twist[a] != twist[b]), None)
    s_fails = _s_failure(md, M, support)
    report = {
        "nonnegative": negative is None,
        "unit_normalized": M[u][u] == 1,
        "T_commutes": moved is None,
        "S_commutes": s_fails is None,
    }
    ok = all(report.values())
    if ok:
        report["current_periodicity"] = _current_periodic(simple_currents(md), M, support)
    else:
        if negative:
            condition, (a, b, x) = "nonnegative", negative
            values = (x, 0)
        elif M[u][u] != 1:
            condition, (a, b), values = "unit_normalized", (u, u), (M[u][u], 1)
        elif moved:
            condition, (a, b) = "T_commutes", moved
            values = (md.T[a], md.T[b])
        else:
            condition, (a, b) = "S_commutes", s_fails
            S, zero = md.S, Cyclotomic.zero()
            values = (
                sum((S[a][t] * M[t][b] for t in range(n) if M[t][b]), zero),
                sum((M[a][t] * S[t][b] for t in range(n) if M[a][t]), zero),
            )
        report["witness"] = {"condition": condition, "position": (a, b), "values": values}
    return ok, report


def _current_periodic(sc: SimpleCurrentStructure, M, support=None) -> bool:
    """True iff M[J a][J' b] = M[a][b] for all a, b and all currents J, J'
    with M[J][J'] != 0.

    The pairs (p, p') of permutations with M[p a][p' b] = M[a][b] form a
    group under composition, so only pairs outside the group generated by
    the pairs already checked (the orbit of the unit pair under them) are
    tested, each on the nonzero entries of M
    (``support``, ``_support(M)`` by default) until the first failure.  That
    is exact: (a, b) -> (p a, p' b) permutes the positions, so if it maps
    each nonzero entry to an equal one, it maps the support onto itself and
    zeros to zeros.  A current's permutation sends the unit to the current
    itself, so a pair is kept as the pair of current indices (j, j'), and
    p_k p_g is the current p_k(g).
    """
    if support is None:
        support = _support(M)
    perm = {sc.label_index[jc]: p for jc, p in sc.action_table.items()}
    zero = sc.label_index[sc.group.zero()]
    span = {(zero, zero)}
    gens = []
    for j, p in perm.items():
        for j2, p2 in perm.items():
            if M[j][j2] == 0 or (j, j2) in span:
                continue
            if any(M[p[a]][p2[b]] != x for a, b, x in support):
                return False
            gens.append(lambda k, j=j, j2=j2: (perm[k[0]][j], perm[k[1]][j2]))
            span = set(_orbits([(zero, zero)], gens)[0])
    return True


# -- exact commutant enumeration ----------------------------------------------


def _position_classes(md: ModularData):
    """(classes, rows, columns): the unknowns of Z, and the rows and columns
    of ``_Plan.commutant`` whose equations (SZ - ZS)_ij = 0 are written.

    A class is an orbit of positions (a, b) under (a, b) -> (perm[a],
    perm[b]) of the generators, kept only if T allows each member (T_a =
    T_b) and signs[a] = signs[b] at each member and generator: Z then takes
    one value on it; otherwise a nonnegative Z is 0 there.  Classes come in
    row-major order of their least position.
    """
    n = md.dim
    twist = md._twist_classes()
    gens, rows, columns = md._plan.commutant()
    key = list(zip(twist, *(signs for _, _, signs in gens)))  # equal at a live position
    moves = [[perm[a] * n + perm[b] for a in range(n) for b in range(n)] for _, perm, _ in gens]
    orbits = _orbits(range(n * n), [move.__getitem__ for move in moves])  # of the a n + b
    classes = [[divmod(p, n) for p in o] for o in orbits if all(key[p // n] == key[p % n] for p in o)]
    return classes, rows, columns


def _commutant_rows(md: ModularData, class_of, rows, columns):
    """Integer rows of (SZ - ZS)_ij = 0 for i in ``rows`` and j in
    ``columns``, with Z taking the value of unknown class_of[(a, b)] at
    (a, b), and 0 off the classes.

    S is written over its conductor N and one denominator, which the
    homogeneous system drops.  Each entry is reduced modulo Phi_N once; the
    coefficient of zeta_N^k (k < deg Phi_N) in (SZ - ZS)_ij gives one row.
    """
    n = md.dim
    N, _, iS, _ = md._integral_S()
    deg = len(cyclotomic_polynomial(N)) - 1
    R = iS.map(lambda p: _reduced(p, N)[:deg]).rows()
    in_row = [[] for _ in range(n)]  # (b, class) of the allowed positions (a, b), b increasing
    in_col = [[] for _ in range(n)]  # (a, class) of the allowed positions (a, b), a increasing
    for (a, b), v in sorted(class_of.items()):
        in_row[a].append((b, v))
        in_col[b].append((a, v))
    for i in rows:
        for j in columns:
            terms = {}
            for b, v in in_col[j]:
                acc = terms.get(v)
                terms[v] = R[i][b] if acc is None else [x + y for x, y in zip(acc, R[i][b])]
            for a, v in in_row[i]:
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
        if const:  # the identity solves every commutant system
            raise RuntimeError("inconsistent commutant system")
        return
    piv = max(row)
    pc, row, const = _primitive(row.pop(piv), row, const)
    # back substitute into existing rows
    for var, (qc, qrow, qconst) in list(pivots.items()):
        if piv in qrow:
            qrow, qconst = _eliminate(qrow, qconst, piv, pc, row, const)
            pivots[var] = _primitive(pc * qc, qrow, qconst)
    pivots[piv] = (pc, row, const)


def brute_force_invariants(md: ModularData):
    """All nonnegative integer matrices commuting with S and T.

    Entries are bounded by the primary count and the unit entry is fixed to
    1.  Complete within the bound.  The unknowns, rows and columns are
    those of ``_position_classes``: the system has the plain system's
    rational solutions, so the same fully reduced echelon form (module
    docstring).
    """
    n = md.dim
    if n > BRUTE_GUARD:
        raise GuardError(f"primary count {n} exceeds guard {BRUTE_GUARD}")
    bound = n
    classes, rows, columns = _position_classes(md)
    class_of = {p: v for v, cls in enumerate(classes) for p in cls}
    if (md.unit, md.unit) not in class_of:
        raise ValueError("unit diagonal position missing")
    pivots: dict = {}
    for row in _commutant_rows(md, class_of, rows, columns):
        _rref_insert(pivots, row, 0)
    _rref_insert(pivots, {class_of[(md.unit, md.unit)]: 1}, 1)
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
