"""Independent floating-point and brute-force oracles used by the tests.

Everything in this file is deliberately written without importing the
package's exact-arithmetic machinery: values are computed with cmath/numpy
floats or raw set enumeration, so agreement with the exact code is a real
cross-check rather than a tautology.
"""

from __future__ import annotations

import cmath
import itertools
from fractions import Fraction

TOL = 1e-9


def croot(N: int, k: int = 1) -> complex:
    return cmath.exp(2j * cmath.pi * k / N)


def cphase(r) -> complex:
    return cmath.exp(2j * cmath.pi * float(r))


def mod1(x) -> Fraction:
    """The representative of x mod 1 in [0, 1), as an exact rational."""
    return Fraction(x) % 1


def close(a: complex, b: complex, tol: float = TOL) -> bool:
    return abs(a - b) <= tol


def mat_close(A, B, tol: float = TOL) -> bool:
    return all(
        close(x, y, tol) for row_a, row_b in zip(A, B) for x, y in zip(row_a, row_b)
    )


# -- group brute force -------------------------------------------------------


def group_elements(factors):
    return list(itertools.product(*[range(n) for n in factors]))


def add(factors, a, b):
    return tuple((x + y) % n for x, y, n in zip(a, b, factors))


def neg(factors, a):
    return tuple((-x) % n for x, n in zip(a, factors))


def subgroup_closure(factors, gens):
    """All elements generated by gens, by plain BFS closure."""
    zero = tuple(0 for _ in factors)
    seen = {zero}
    frontier = [zero]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = add(factors, x, g)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return frozenset(seen)


def all_subgroup_sets(factors):
    """Every subgroup of the group, as frozensets of element tuples."""
    elems = group_elements(factors)
    zero = tuple(0 for _ in factors)
    found = {frozenset([zero])}
    frontier = [frozenset([zero])]
    while frontier:
        new = []
        for H in frontier:
            for g in elems:
                if g not in H:
                    K = subgroup_closure(factors, list(H) + [g])
                    if K not in found:
                        found.add(K)
                        new.append(K)
        frontier = new
    return found


# -- float modular data checks ----------------------------------------------


def is_unitary(S, tol=TOL):
    n = len(S)
    for i in range(n):
        for j in range(n):
            v = sum(S[i][k] * S[j][k].conjugate() for k in range(n))
            if not close(v, 1.0 if i == j else 0.0, tol):
                return False
    return True


def matmul(A, B):
    n, m, p = len(A), len(B), len(B[0])
    return [
        [sum(A[i][k] * B[k][j] for k in range(m)) for j in range(p)] for i in range(n)
    ]


def modular_relations_hold(S, T, tol=1e-8):
    """S unitary, S^2 a permutation fixing 0 with C^2=1, (ST)^3 = S^2."""
    n = len(S)
    if not is_unitary(S, tol):
        return False
    C = matmul(S, S)
    perm = {}
    for i in range(n):
        hits = [j for j in range(n) if abs(C[i][j]) > 0.5]
        if len(hits) != 1 or not close(C[i][hits[0]], 1.0, tol):
            return False
        perm[i] = hits[0]
    if perm[0] != 0 or any(perm[perm[i]] != i for i in range(n)):
        return False
    ST = [[S[i][j] * T[j] for j in range(n)] for i in range(n)]
    ST3 = matmul(matmul(ST, ST), ST)
    return mat_close(ST3, C, tol)


def verlinde_float(S):
    """Fusion coefficients from a float S matrix (unit assumed at index 0)."""
    n = len(S)
    out = {}
    for a in range(n):
        for b in range(n):
            for c in range(n):
                v = sum(S[a][k] * S[b][k] * S[c][k].conjugate() / S[0][k] for k in range(n))
                out[(a, b, c)] = v
    return out


# -- float constructions ------------------------------------------------------


def weil_float(factors, qtable):
    """Float (S, T-diagonal) for a metric group; qtable maps element -> Fraction."""
    elems = group_elements(factors)
    n = len(elems)
    pair = {}
    for a in elems:
        for b in elems:
            r = qtable[a] + qtable[b] - qtable[add(factors, a, b)]
            pair[(a, b)] = cphase(r)
    rt = n ** -0.5
    S = [[rt * pair[(a, b)] for b in elems] for a in elems]
    gauss = sum(cphase(qtable[g]) for g in elems) / n ** 0.5
    x = gauss ** (-1 / 3)  # any cube root works for the relations
    T = [x * cphase(qtable[g]) for g in elems]
    return elems, S, T


def commutant_dimension(S, T, tol=1e-8):
    """Real dimension of {Z real : SZ=ZS, TZ=ZT} by numpy least squares."""
    import numpy as np

    n = len(S)
    Sm = np.array(S, dtype=complex)
    Tm = np.diag(np.array(T, dtype=complex))
    rows = []
    for M in (Sm, Tm):
        K = np.kron(np.eye(n), M) - np.kron(M.T, np.eye(n))
        rows.append(K.real)
        rows.append(K.imag)
    A = np.vstack(rows)
    s = np.linalg.svd(A, compute_uv=False)
    return int(sum(1 for v in s if v < tol * max(1.0, s[0])))


# -- rule-based fusion tables --------------------------------------------------


def sub(factors, a, b):
    return add(factors, a, neg(factors, b))


def scale(factors, k, a):
    return tuple((k * x) % n for x, n in zip(a, factors))


def expected_double_fusion(factors, labels):
    """Structure constants of the center construction from the listed rules.

    Pure label combinatorics over tuple arithmetic: invertible pairs add
    coordinates and parities; an invertible moves a root label by twice its
    coordinate; unordered pairs convolve; two roots resolve into pairs and
    the diagonal invertibles.  No matrix data enters.
    """
    def pair_label(g, h):
        return ("two", min(g, h), max(g, h))

    table = {}
    for la in labels:
        for lb in labels:
            pa, pb = la, lb
            if pa[0] > pb[0]:
                pa, pb = pb, pa
            ka, kb = pa[0], pb[0]
            out = {}

            def put(l, c=1):
                out[l] = out.get(l, 0) + c

            if (ka, kb) == ("one", "one"):
                put(("one", add(factors, pa[1], pb[1]), (pa[2] + pb[2]) % 2))
            elif (ka, kb) == ("one", "root"):
                put(("root", add(factors, pb[1], scale(factors, 2, pa[1])), (pa[2] + pb[2]) % 2))
            elif (ka, kb) == ("one", "two"):
                put(pair_label(add(factors, pb[1], pa[1]), add(factors, pb[2], pa[1])))
            elif (ka, kb) == ("root", "root"):
                tot = add(factors, pa[1], pb[1])
                seen = set()
                for k in group_elements(factors):
                    other = sub(factors, tot, k)
                    if other == k:
                        put(("one", k, (pa[2] + pb[2]) % 2))
                    elif (min(k, other), max(k, other)) not in seen:
                        seen.add((min(k, other), max(k, other)))
                        put(pair_label(k, other))
            elif (ka, kb) == ("root", "two"):
                t = add(factors, add(factors, pb[1], pb[2]), pa[1])
                put(("root", t, 0))
                put(("root", t, 1))
            else:
                g, h = pa[1], pa[2]
                gp, hp = pb[1], pb[2]
                for u, v in (
                    (add(factors, g, gp), add(factors, h, hp)),
                    (add(factors, g, hp), add(factors, h, gp)),
                ):
                    if u == v:
                        put(("one", u, 0))
                        put(("one", u, 1))
                    else:
                        put(pair_label(u, v))
            table[(la, lb)] = out
    return table


def expected_equiv_fusion(factors, labels):
    """Structure constants of the parity equivariantization from the rules.

    Sign labels multiply; a pair label convolves with the negation orbit;
    the root absorbs pair labels into both signs and squares to the signed
    unit plus every pair class.
    """
    def crep(g):
        return min(g, neg(factors, g))

    reps = sorted({crep(g) for g in group_elements(factors)} - {tuple(0 for _ in factors)})

    def pair_or_ones(g, t=None):
        if g == neg(factors, g):
            if g == tuple(0 for _ in factors):
                return [("one", 1), ("one", -1)] if t is None else [("one", t)]
            raise AssertionError("even orbits need no handling for odd order")
        return [("two", crep(g))]

    table = {}
    for la in labels:
        for lb in labels:
            pa, pb = la, lb
            if pa[0] > pb[0]:
                pa, pb = pb, pa
            ka, kb = pa[0], pb[0]
            out = {}

            def put(ls, c=1):
                for l in ls:
                    out[l] = out.get(l, 0) + c

            if (ka, kb) == ("one", "one"):
                put([("one", pa[1] * pb[1])])
            elif (ka, kb) == ("one", "two"):
                put([("two", pb[1])])
            elif (ka, kb) == ("one", "root"):
                put([("root", pa[1] * pb[1])])
            elif (ka, kb) == ("two", "two"):
                g, h = pa[1], pb[1]
                put(pair_or_ones(add(factors, g, h)))
                put(pair_or_ones(sub(factors, g, h)))
            elif (ka, kb) == ("root", "two"):
                put([("root", 1), ("root", -1)])
            else:
                put([("one", pa[1] * pb[1])])
                put([("two", r) for r in reps])
            table[(la, lb)] = out
    return table


def realized_fusion_table(md):
    """Structure constants from a modular datum's fusion tensor, as dicts."""
    N = md.fusion()
    n = len(md.labels)
    table = {}
    for a in range(n):
        for b in range(n):
            out = {}
            for c in range(n):
                if N[a][b][c]:
                    out[md.labels[c]] = N[a][b][c]
            table[(md.labels[a], md.labels[b])] = out
    return table


def largest_eigenvalue(M) -> float:
    import numpy

    vals = numpy.linalg.eigvals(numpy.array(M, dtype=float))
    return float(max(v.real for v in vals))


def find_modular_isomorphism(md1, md2):
    """Unit-preserving relabeling index map carrying (S1, T1) onto (S2, T2).

    Floating-point backtracking search, independent of the package's exact
    arithmetic.  Returns perm with perm[a] the image index, or None.
    """
    n = len(md1.labels)
    if n != len(md2.labels):
        return None
    S1 = [[x.approx() for x in row] for row in md1.S]
    S2 = [[x.approx() for x in row] for row in md2.S]
    T1 = [x.approx() for x in md1.T]
    T2 = [x.approx() for x in md2.T]

    def keyof(T, S, u, a):
        return (
            round(T[a].real, 6),
            round(T[a].imag, 6),
            round(S[u][a].real, 6),
            round(S[u][a].imag, 6),
        )

    k1 = [keyof(T1, S1, md1.unit, a) for a in range(n)]
    k2 = [keyof(T2, S2, md2.unit, a) for a in range(n)]
    if sorted(k1) != sorted(k2):
        return None
    cands = [[b for b in range(n) if k2[b] == k1[a]] for a in range(n)]
    order = sorted(range(n), key=lambda a: len(cands[a]))
    perm = [None] * n
    used = [False] * n

    def compatible(a, b):
        for a2 in range(n):
            if perm[a2] is not None and abs(S1[a][a2] - S2[b][perm[a2]]) > 1e-6:
                return False
        return True

    def dfs(i):
        if i == n:
            return True
        a = order[i]
        for b in cands[a]:
            if used[b] or (a == md1.unit) != (b == md2.unit):
                continue
            if not compatible(a, b):
                continue
            perm[a] = b
            used[b] = True
            if dfs(i + 1):
                return True
            perm[a] = None
            used[b] = False
        return False

    return perm if dfs(0) else None
