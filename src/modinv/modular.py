"""Modular data containers, Verlinde fusion, simple currents, invariants.

All arithmetic is exact over cyclotomic numbers.  Matrix work (``mat_mul``,
``verlinde``, ``validate_modular``, the charge conjugation and the
S-commutation check) goes through one integer kernel instead of per-entry
``Cyclotomic`` arithmetic:

* The matrices of one computation are written over one conductor N (the lcm
  of their entry orders), each over one common denominator, so every entry
  becomes an integer polynomial in zeta_N.
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
  coefficients, with no overflow check or fallback.  They are reduced
  modulo Phi_N only where a value or an equality is needed.  ``_product``
  returns a product as these reduced integer lists; ``mat_mul`` wraps them
  as ``Cyclotomic`` values, and the identity checks compare the lists.

The brute-force invariant search writes the commutant linear system SZ = ZS
as integer rows (one per coefficient of zeta_N), brings it to a fully reduced
echelon form by fraction-free elimination, and enumerates bounded
nonnegative integer points by divisibility checks on the pivot rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .abelian import FinAbGroup, GuardError, abelian_structure
from .scalars import (
    Cyclotomic,
    as_integer,
    cyclotomic_polynomial,
    phase_fraction,
    reduce_mod_phi,
)

BRUTE_GUARD = 64


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


class _Packing:
    """Z[x]/(x^N - 1) inside the integers mod 2^(B N) - 1, with x = 2^B.

    Any result whose coefficients are at most ``bound`` in absolute value
    unpacks exactly.
    """

    __slots__ = ("N", "width", "shift", "M", "half", "bias")

    def __init__(self, N: int, bound: int):
        # |c| <= bound < 2^(B-2) keeps every biased digit c + 2^(B-1) inside
        # [1, 2^B - 2]: no borrow crosses digits, and the all-ones string
        # (which is M, i.e. 0) cannot occur.
        self.N = N
        self.width = (bound.bit_length() + 2 + 7) // 8  # bytes per digit
        self.shift = 8 * self.width
        self.M = (1 << (self.shift * N)) - 1
        self.half = 1 << (self.shift - 1)
        self.bias = self.half * (self.M // ((1 << self.shift) - 1))

    def pack(self, p: dict) -> int:
        return sum(c << (self.shift * k) for k, c in p.items()) % self.M

    def reduced(self, v: int) -> list[int]:
        """Coefficients of the packed value v, reduced modulo Phi_N (length N)."""
        N, w, half = self.N, self.width, self.half
        v %= self.M
        if not v:  # about half of all Verlinde sums vanish before reduction
            return [0] * N
        raw = ((v + self.bias) % self.M).to_bytes(w * N, "little")
        coeffs = [
            int.from_bytes(raw[i : i + w], "little") - half for i in range(0, w * N, w)
        ]
        return reduce_mod_phi(coeffs, N)


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
    """True iff the integer matrix commutes with S, decided exactly by the kernel."""
    n = md.dim
    N = _conductor(md.S)
    _, iS = _integral(md.S, N)
    zmax = max((abs(x) for row in matrix for x in row), default=0)
    pk = _Packing(N, 2 * n * _norm(iS) * zmax)
    P = [[pk.pack(p) for p in row] for row in iS]
    rows = [[(t, x) for t, x in enumerate(r) if x] for r in matrix]
    cols = [[(t, x) for t, x in enumerate(c) if x] for c in zip(*matrix)]
    for i in range(n):
        for j in range(n):
            v = sum(P[i][t] * x for t, x in cols[j]) - sum(x * P[t][j] for t, x in rows[i])
            if any(pk.reduced(v)):
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


def _permutation(rows, den: int):
    """Permutation p with rows[i][p[i]] = 1 and every other entry 0, else None.

    Entries are reduced coefficient lists over the denominator ``den``, as
    ``_product`` returns them.
    """
    perm = []
    for row in rows:
        hits = [j for j, c in enumerate(row) if any(c)]
        if len(hits) != 1 or row[hits[0]][0] != den or any(row[hits[0]][1:]):
            return None
        perm.append(hits[0])
    return perm if sorted(perm) == list(range(len(rows))) else None


def as_permutation(A):
    """Permutation p with A[i][p[i]] = 1 if A is a permutation matrix, else None."""
    N = _conductor(A)
    den, iA = _integral(A, N)
    return _permutation([[_reduced(p, N) for p in row] for row in iA], den)


def _is_root_of_unity(x: Cyclotomic) -> bool:
    if not (x * x.conj()).is_one():
        return False
    return (x ** lcm(2, x.order)).is_one()


class ModularData:
    """Labelled (S, T) pair with a distinguished unit row."""

    __slots__ = ("labels", "unit", "S", "T", "_fusion", "_charge", "_currents")

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
        self._fusion = None
        self._charge = None
        self._currents = None

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        return self.labels.index(label)

    def charge_conjugation(self):
        """Permutation c with S^2 the matrix of a -> c(a)."""
        if self._charge is None:
            N = _conductor(self.S)
            den, iS = _integral(self.S, N)
            perm = _permutation(_product(iS, iS, N), den * den)
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
            labels = [tuple(l) if isinstance(l, list) else l for l in obj["labels"]]
            S = [[Cyclotomic.from_json(x) for x in row] for row in obj["S"]]
            T = [Cyclotomic.from_json(x) for x in obj["T"]]
            unit = obj["unit"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed modular data JSON: {exc!r}") from exc
        return ModularData(labels, unit, S, T)


def validate_modular(md: ModularData) -> list[str]:
    """List of failed identities; empty means the data is modular.

    The matrix identities are decided on integer coefficient lists over one
    conductor N, with S over its common denominator d and T over its own
    denominator e: S S-bar^T = d^2 I, S^2 = d^2 times a permutation matrix,
    and (ST)^3 = S^2 as lists over (d e)^3.  A permutation S^2 is kept as the
    charge conjugation of md.
    """
    report = []
    n = md.dim
    N = _conductor(md.S, [md.T])
    dS, iS = _integral(md.S, N)
    dT, (iT,) = _integral([md.T], N)
    rS = [[_reduced(p, N) for p in row] for row in iS]
    if any(rS[i][j] != rS[j][i] for i in range(n) for j in range(i + 1, n)):
        report.append("S symmetric")
    one, zero = [dS * dS] + [0] * (N - 1), [0] * N
    dagger = [[{-k % N: c for k, c in iS[j][i].items()} for j in range(n)] for i in range(n)]
    if _product(iS, dagger, N) != [[one if i == j else zero for j in range(n)] for i in range(n)]:
        report.append("S unitary")
    if not all(_is_root_of_unity(t) for t in md.T):
        report.append("T root of unity")
    S2 = _product(iS, iS, N)
    perm = _permutation(S2, dS * dS)
    if perm is None:
        report.append("S^2 permutation")
    else:
        md._charge = tuple(perm)
        if perm[md.unit] != md.unit:
            report.append("S^2 fixes unit")
        if any(perm[perm[i]] != i for i in range(n)):
            report.append("S^2 involution")
    ST = [[_poly_mul(p, t, N) for p, t in zip(row, iT)] for row in iS]
    cube = _product([[dict(enumerate(c)) for c in row] for row in _product(ST, ST, N)], ST, N)
    scale = dS * dT**3
    if any(
        c != [scale * x for x in s]
        for crow, srow in zip(cube, S2)
        for c, s in zip(crow, srow)
    ):
        report.append("(ST)^3 = S^2")
    return report


def verlinde(md: ModularData):
    """Fusion tensor N[a][b][c] via the S-matrix; entries must be nonnegative integers.

    N_ab^c = Sum_k (S_ak / S_0k) S_bk conj(S_ck), one packed dot product per
    (a, b, c), streamed over a.
    """
    n = md.dim
    S = md.S
    inv0 = []
    for k in range(n):
        x = S[md.unit][k]
        if x.is_zero():
            raise ValueError("unit row of S has a zero entry")
        inv0.append(x.inverse())
    N = _conductor(S, [inv0])
    dS, iS = _integral(S, N)
    dI, (iI,) = _integral([inv0], N)
    pk = _Packing(N, n * _norm(iS) ** 3 * _norm([iI]))
    P = [[pk.pack(p) for p in row] for row in iS]
    Pbar = [[pk.pack({-k % N: c for k, c in p.items()}) for p in row] for row in iS]
    Pinv = [pk.pack(p) for p in iI]
    M = pk.M
    den = dS**3 * dI
    out = []
    for a in range(n):
        W = [x * y % M for x, y in zip(P[a], Pinv)]
        plane = []
        for b in range(n):
            wb = [(k, w * x % M) for k, (w, x) in enumerate(zip(W, P[b])) if w and x]
            row = []
            for c in range(n):
                coeffs = pk.reduced(sum(w * Pbar[c][k] for k, w in wb))
                if any(coeffs[1:]):
                    raise ValueError(f"fusion coefficient not rational at {(a, b, c)}")
                r = coeffs[0]
                if r % den or r < 0:
                    raise ValueError(f"fusion coefficient {Fraction(r, den)} at {(a, b, c)}")
                row.append(r // den)
            plane.append(tuple(row))
        out.append(tuple(plane))
    return tuple(out)


class SimpleCurrentStructure(NamedTuple):
    """Invertible simples of a modular datum, with their charges and twists.

    Currents are keyed by their coordinates in ``group``.  Phases are
    Fractions in [0, 1), read as e^(2 pi i r):

    * the monodromy charge Q_J(a) = ``grading(a, J)`` is defined by
      S_{J,a} = e^(2 pi i Q_J(a)) S_{0,a};
    * the twist ``q(J)`` = h_J - h_0 mod 1 is defined by
      T_J = e^(2 pi i q(J)) T_0.

    Both are tabulated once per datum, so every comparison is in Q/Z.
    """

    group: FinAbGroup
    coords: dict  # primary index -> current coordinates
    label_index: dict  # current coordinates -> primary index
    action_table: dict  # current -> permutation of the primary indices
    quaternionic: set
    sufficiently_nonzero: bool
    charges: dict  # current J -> (Q_J(a) for each primary index a)
    twists: dict  # current J -> h_J - h_0

    def q(self, j) -> Fraction:
        """Twist h_J - h_0 mod 1 of the current j (group coordinates)."""
        return self.twists[j]

    def grading(self, a: int, j) -> Fraction:
        """Monodromy charge Q_J(a) mod 1 of primary index a against current j."""
        return self.charges[j][a]

    def is_quaternionic(self, j) -> bool:
        return j in self.quaternionic


def simple_currents(md: ModularData) -> SimpleCurrentStructure:
    """Invertible simples of md; computed once and cached on md."""
    if md._currents is None:
        md._currents = _find_simple_currents(md)
    return md._currents


def _find_simple_currents(md: ModularData):
    N = md.fusion()
    n = md.dim
    conj = md.charge_conjugation()
    invertible = []
    for j in range(n):
        if N[j][conj[j]][md.unit] != 1:
            continue
        perm = [None] * n
        ok = True
        for a in range(n):
            hits = [c for c in range(n) if N[j][a][c]]
            if len(hits) != 1 or N[j][a][hits[0]] != 1:
                ok = False
                break
            perm[a] = hits[0]
        if ok and sorted(perm) == list(range(n)):
            invertible.append((j, tuple(perm)))
    perms = {j: p for j, p in invertible}
    group, coords = abelian_structure(
        [j for j, _ in invertible], lambda a, b: perms[a][b], md.unit
    )
    label_index = {coords[j]: j for j, _ in invertible}
    action_table = {coords[j]: p for j, p in invertible}
    unit_conj = md.T[md.unit].conj()
    twists = {}
    quaternionic = set()
    for j, _ in invertible:
        cj = coords[j]
        twists[cj] = phase_fraction(md.T[j] * unit_conj)
        if (group.element_order(cj) * twists[cj]) % 1 == Fraction(1, 2):
            quaternionic.add(cj)
    # Q_J(a) from one inverse of S_{0,a} per primary
    charges = {coords[j]: [None] * n for j, _ in invertible}
    for a in range(n):
        inv = md.S[md.unit][a].inverse()
        for j, _ in invertible:
            try:
                charges[coords[j]][a] = phase_fraction(md.S[j][a] * inv)
            except ValueError:
                raise ValueError(
                    f"S ratio of current {md.labels[j]!r} at primary {md.labels[a]!r}"
                    " is not a root of unity"
                ) from None
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
        if not md.S[a][b].is_zero()
    }
    suff = len(linked) == len(classes) ** 2
    return SimpleCurrentStructure(
        group, coords, label_index, action_table, quaternionic, suff, charges, twists
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
        sc = simple_currents(md)
        periodic = True
        for jc, pj in sc.action_table.items():
            j = sc.label_index[jc]
            for jc2, pj2 in sc.action_table.items():
                if M[j][sc.label_index[jc2]] == 0:
                    continue
                for a in range(n):
                    for b in range(n):
                        if M[pj[a]][pj2[b]] != M[a][b]:
                            periodic = False
        report["current_periodicity"] = periodic
    return ok, report


# -- exact commutant enumeration ----------------------------------------------


def _commutant_rows(md: ModularData, pos_index):
    """Integer rows of SZ = ZS, with Z supported on the allowed positions.

    S is written over its conductor N and one denominator, which the
    homogeneous system drops.  Each entry is reduced modulo Phi_N once; the
    coefficient of zeta_N^k (k < deg Phi_N) in (SZ - ZS)_ij gives one row.
    """
    n = md.dim
    N = _conductor(md.S)
    _, iS = _integral(md.S, N)
    deg = len(cyclotomic_polynomial(N)) - 1
    R = [[_reduced(p, N)[:deg] for p in row] for row in iS]
    for i in range(n):
        for j in range(n):
            terms = {}
            for b in range(n):
                v = pos_index.get((b, j))
                if v is not None:
                    terms[v] = R[i][b]
            for a in range(n):
                v = pos_index.get((i, a))
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
    1.  Complete within the bound.
    """
    n = md.dim
    if n > BRUTE_GUARD:
        raise GuardError(f"primary count {n} exceeds guard {BRUTE_GUARD}")
    bound = n
    order = lcm(*(t.order for t in md.T))
    twist = [t.at_order(order).canonical() for t in md.T]
    positions = [(a, b) for a in range(n) for b in range(n) if twist[a] == twist[b]]
    pos_index = {p: i for i, p in enumerate(positions)}
    if (md.unit, md.unit) not in pos_index:
        raise ValueError("unit diagonal position missing")
    pivots: dict = {}
    try:
        for row in _commutant_rows(md, pos_index):
            _rref_insert(pivots, row, 0)
        _rref_insert(pivots, {pos_index[(md.unit, md.unit)]: 1}, 1)
    except _Inconsistent:
        return []
    nvars = len(positions)
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
        for (a, b), idx in pos_index.items():
            M[a][b] = vals[idx]
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
