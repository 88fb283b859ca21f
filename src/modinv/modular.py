"""Modular data containers, Verlinde fusion, simple currents, invariants.

All arithmetic is exact over cyclotomic numbers.  Matrix work (``mat_mul``,
``verlinde`` and the S-commutation check) goes through one integer kernel
instead of per-entry ``Cyclotomic`` arithmetic:

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
  modulo Phi_N only where a value or an equality is needed.

The brute-force invariant search solves the commutant linear system over the
rationals and enumerates bounded nonnegative integer points.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .abelian import FinAbGroup, GuardError, abelian_structure
from .scalars import Cyclotomic, as_integer, phase_fraction, reduce_mod_phi

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

    def value(self, v: int, den: int) -> Cyclotomic:
        return Cyclotomic(
            self.N, {k: Fraction(c, den) for k, c in enumerate(self.reduced(v)) if c}
        )


def mat_mul(A, B):
    """Exact product of matrices over Q(zeta_N); entries are Cyclotomic."""
    N = _conductor(A, B)
    dA, iA = _integral(A, N)
    dB, iB = _integral(B, N)
    pk = _Packing(N, len(B) * _norm(iA) * _norm(iB))
    pB = [[pk.pack(p) for p in row] for row in iB]
    cols = list(zip(*pB))
    den = dA * dB
    out = []
    for row in iA:
        terms = [(t, pk.pack(p)) for t, p in enumerate(row) if p]
        out.append([pk.value(sum(x * col[t] for t, x in terms), den) for col in cols])
    return out


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


def mat_dagger(A):
    n = len(A)
    return [[A[j][i].conj() for j in range(n)] for i in range(n)]


def is_identity_matrix(A) -> bool:
    for i, row in enumerate(A):
        for j, x in enumerate(row):
            if i == j:
                if not x.is_one():
                    return False
            elif not x.is_zero():
                return False
    return True


def as_permutation(A):
    """Permutation p with A[i][p[i]] = 1 if A is a permutation matrix, else None."""
    n = len(A)
    perm = []
    for i in range(n):
        hit = None
        for j in range(n):
            x = A[i][j]
            if x.is_one():
                if hit is not None:
                    return None
                hit = j
            elif not x.is_zero():
                return None
        if hit is None:
            return None
        perm.append(hit)
    return perm if sorted(perm) == list(range(n)) else None


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
            perm = as_permutation(mat_mul(self.S, self.S))
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
    """List of failed identities; empty means the data is modular."""
    report = []
    n = md.dim
    S, T = md.S, md.T
    if any(S[i][j] != S[j][i] for i in range(n) for j in range(i + 1, n)):
        report.append("S symmetric")
    if not is_identity_matrix(mat_mul(S, mat_dagger(S))):
        report.append("S unitary")
    if not all(_is_root_of_unity(t) for t in T):
        report.append("T root of unity")
    S2 = mat_mul(S, S)
    perm = as_permutation(S2)
    if perm is None:
        report.append("S^2 permutation")
    else:
        if perm[md.unit] != md.unit:
            report.append("S^2 fixes unit")
        if any(perm[perm[i]] != i for i in range(n)):
            report.append("S^2 involution")
    ST = [[S[i][j] * T[j] for j in range(n)] for i in range(n)]
    lhs = mat_mul(ST, mat_mul(ST, ST))
    if any(lhs[i][j] != S2[i][j] for i in range(n) for j in range(n)):
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
        self.matrix = tuple(tuple(int(x) for x in row) for row in matrix)
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
    M = [list(map(int, row)) for row in matrix]
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


def _commutant_rows(md: ModularData, positions, pos_index):
    """Rational linear system rows for SZ = ZS restricted to allowed positions."""
    n = md.dim
    S = md.S
    for i in range(n):
        for j in range(n):
            terms = {}
            for b in range(n):
                if (b, j) in pos_index and not S[i][b].is_zero():
                    terms.setdefault((b, j), Cyclotomic.zero())
                    terms[(b, j)] = terms[(b, j)] + S[i][b]
            for a in range(n):
                if (i, a) in pos_index and not S[a][j].is_zero():
                    terms.setdefault((i, a), Cyclotomic.zero())
                    terms[(i, a)] = terms[(i, a)] - S[a][j]
            terms = {v: c for v, c in terms.items() if not c.is_zero()}
            if not terms:
                continue
            order = lcm(*[c.order for c in terms.values()])
            comps = {v: c.at_order(order).canonical() for v, c in terms.items()}
            for k in range(order):
                row = {}
                for v, vec in comps.items():
                    if vec[k]:
                        row[pos_index[v]] = vec[k]
                if row:
                    yield row


def _rref_insert(pivots, row, const):
    """Reduce (row, const) by current pivots; install if independent."""
    while True:
        var = next((v for v in row if v in pivots), None)
        if var is None:
            break
        coeff = row.pop(var)
        prow, pconst = pivots[var]
        for v2, c2 in prow.items():
            row[v2] = row.get(v2, Fraction(0)) - coeff * c2
            if row[v2] == 0:
                del row[v2]
        const = const - coeff * pconst
    row = {v: c for v, c in row.items() if c != 0}
    if not row:
        if const != 0:
            raise _Inconsistent()
        return
    piv = max(row)
    cp = row.pop(piv)
    row = {v: c / cp for v, c in row.items()}
    const = const / cp
    # back substitute into existing rows
    for var, (prow, pconst) in list(pivots.items()):
        if piv in prow:
            coeff = prow.pop(piv)
            for v2, c2 in row.items():
                prow[v2] = prow.get(v2, Fraction(0)) - coeff * c2
                if prow[v2] == 0:
                    del prow[v2]
            pivots[var] = (prow, pconst - coeff * const)
    pivots[piv] = (row, const)


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
    positions = [
        (a, b) for a in range(n) for b in range(n) if md.T[a] == md.T[b]
    ]
    pos_index = {p: i for i, p in enumerate(positions)}
    if (md.unit, md.unit) not in pos_index:
        raise ValueError("unit diagonal position missing")
    pivots: dict = {}
    try:
        for row in _commutant_rows(md, positions, pos_index):
            _rref_insert(pivots, dict(row), Fraction(0))
        _rref_insert(
            pivots, {pos_index[(md.unit, md.unit)]: Fraction(1)}, Fraction(1)
        )
    except _Inconsistent:
        return []
    nvars = len(positions)
    free = [v for v in range(nvars) if v not in pivots]
    # pivot rows grouped by the free variables they depend on
    order_of = {v: i for i, v in enumerate(free)}
    checks = []  # (last_free_order, pivot_var, row, const)
    for var, (row, const) in pivots.items():
        last = max((order_of[v] for v in row), default=-1)
        checks.append((last, var, row, const))
    by_depth: dict[int, list] = {}
    for last, var, row, const in checks:
        by_depth.setdefault(last, []).append((var, row, const))
    out = []
    assign = {}

    def emit():
        M = [[0] * n for _ in range(n)]
        vals = dict(assign)
        for var, (row, const) in pivots.items():
            vals[var] = const - sum(c * vals[v] for v, c in row.items())
        for (a, b), idx in pos_index.items():
            M[a][b] = int(vals[idx])
        out.append(ModularInvariant(M, {"source": "brute_force"}))

    def dfs(depth):
        if depth == len(free):
            emit()
            return
        for val in range(bound + 1):
            assign[free[depth]] = Fraction(val)
            ok = True
            for var, row, const in by_depth.get(depth, []):
                v = const - sum(c * assign[u] for u, c in row.items())
                if v.denominator != 1 or v < 0 or v > bound:
                    ok = False
                    break
            if ok:
                dfs(depth + 1)
        del assign[free[depth]]

    # pivots depending on no free variable get checked before any branching
    for var, row, const in by_depth.get(-1, []):
        if const.denominator != 1 or const < 0 or const > bound:
            return []
    dfs(0)
    out.sort(key=lambda z: z.matrix)
    return out
