"""Invariants built from invertible simples: discrete torsion and products.

A parameter is a quaternionic-free subgroup of the current group together
with an alternating pairing twisting its canonical bilinear base form.  The
invariant matrix is supported on current orbits and its entries count
stabilizers.

``_ChainTable.of`` is the one reader of a subgroup, once per subgroup: it
checks that the subgroup is current and quaternionic-free, fixes its
generator chain and holds the canonical base form with the currents of the
chain group (primary indices, twists, charge rows and permutations).  Every
torsion form on the subgroup is base + psi (``_ChainTable.epsilon``), and is
validated and turned into a matrix from that table, without re-embedding
its elements.
"""

from __future__ import annotations

from math import prod
from typing import NamedTuple

from .abelian import Character, FinAbGroup, Subgroup, all_subgroups, mat_mul_int, subgroup_group
from .forms import AlternatingPairing, Pairing, alternating_pairings
from .modular import ModularData, ModularInvariant, s_commutes, simple_currents


def _chain_embed(group: FinAbGroup, chain):
    def embed(y):
        out = group.zero()
        for c, h in zip(y, chain):
            out = group.add(out, group.scale(c, h))
        return out

    return embed


def _check_chain(sc, J: Subgroup, chain):
    orders = [sc.group.element_order(h) for h in chain]
    for a, b in zip(orders, orders[1:]):
        if a % b:
            raise ValueError("chain orders must form a divisibility tower")
    if prod(orders) != J.order or Subgroup(sc.group, chain) != J:
        raise ValueError("chain does not generate the subgroup")
    return FinAbGroup(tuple(orders))


def _quaternionic_guard(sc, J: Subgroup):
    for j in J.elements():
        if sc.is_quaternionic(j):
            order = sc.group.element_order(j)
            raise ValueError(
                f"current {j} is quaternionic: twist ratio to the power {order} is -1"
            )


class _ChainTable(NamedTuple):
    """A current subgroup read through its generator chain: the one reader
    of a subgroup, built once and shared by every torsion form on it.

    ``group`` is the chain group, whose basis maps to the currents ``chain``,
    and ``base`` the canonical bilinear base form on it: the twists on the
    diagonal, minus the monodromy charges below it.  The other fields run
    over ``group.elements()``, the key order of ``Pairing.dot_table``: for
    each element y, the primary index of the current embed(y), its twist and
    charge row (``sc.twists`` and ``sc.charges``) and its permutation of the
    primaries (``sc.action_table``).  ``at[a]`` is the charges of every
    element at primary a, the key ``_matrix_from_epsilon`` looks up.
    """

    group: FinAbGroup
    chain: list
    base: Pairing
    primaries: tuple
    twists: tuple
    charges: tuple
    perms: tuple
    at: tuple

    @staticmethod
    def of(sc, J: Subgroup, chain=None) -> "_ChainTable":
        """The table of J, a quaternionic-free subgroup of the current group,
        through ``chain`` (checked) or else the chain of ``subgroup_group``."""
        if J.ambient != sc.group:
            raise ValueError("subgroup must live in the current group")
        _quaternionic_guard(sc, J)
        if chain is None:
            Jab, embed, _ = subgroup_group(J)
            chain = [embed(e) for e in Jab.basis()]
        else:
            chain = [sc.group.reduce(h) for h in chain]
            Jab = _check_chain(sc, J, chain)
        s = Jab.rank
        tw = [sc.q(h) for h in chain]
        mono = [[sc.grading(sc.label_index[ha], hb) for hb in chain] for ha in chain]
        base = [
            [tw[a] if a == b else (-mono[a][b] if a > b else 0) for b in range(s)]
            for a in range(s)
        ]
        currents = list(map(_chain_embed(sc.group, chain), Jab.elements()))
        charges = tuple(map(sc.charges.__getitem__, currents))
        return _ChainTable(
            Jab,
            chain,
            Pairing(Jab, Jab, base),
            tuple(map(sc.label_index.__getitem__, currents)),
            tuple(map(sc.twists.__getitem__, currents)),
            charges,
            tuple(map(sc.action_table.__getitem__, currents)),
            tuple(zip(*charges)),
        )

    def epsilon(self, psi: AlternatingPairing | None = None):
        """(psi, base + psi); psi defaults to zero and must live on the chain group."""
        Jab = self.group
        if psi is None:
            psi = AlternatingPairing(Jab, [[0] * Jab.rank for _ in range(Jab.rank)])
        if psi.left.factors != Jab.factors:
            raise ValueError("psi must live on the subgroup's chain group")
        num = [[b + p for b, p in zip(*rows)] for rows in zip(self.base.num, psi.num)]
        return psi, Pairing.from_numerators(Jab, Jab, num)


def base_epsilon(md: ModularData, J: Subgroup, chain=None) -> Pairing:
    """Canonical bilinear form on the subgroup from its generator chain."""
    return _ChainTable.of(simple_currents(md), J, chain).base


class SCParam:
    """Current subgroup with a validated torsion form.

    ``currents`` is the subgroup's ``_ChainTable``, shared by the parameters
    built on one subgroup.  The form is checked as integer numerators over
    ``sc.den``, the one denominator of ``modular``'s charge and twist tables;
    ``table`` keeps that ``dot_table`` for ``sc_matrix``.
    """

    __slots__ = ("sc", "J", "group", "chain", "psi", "epsilon", "table", "currents")

    def __init__(self, sc, J, currents: _ChainTable, psi, epsilon):
        self.sc = sc
        self.J = J
        self.group = currents.group
        self.chain = currents.chain
        self.currents = currents
        self.psi = psi
        self.epsilon = epsilon
        self.table = epsilon.dot_table(sc.den)
        self._validate()

    def embed(self, y):
        return _chain_embed(self.sc.group, self.chain)(y)

    def _validate(self):
        """Diagonal against the twists, then each row against the monodromy."""
        den, cur = self.sc.den, self.currents
        eps = list(self.table.values())
        for i, (row, col, twist, charge) in enumerate(zip(eps, zip(*eps), cur.twists, cur.charges)):
            if row[i] != twist:
                raise ValueError("diagonal of epsilon must match the twists")
            if any((charge[a] + e1 + e2) % den for a, e1, e2 in zip(cur.primaries, row, col)):
                raise ValueError("epsilon is not balanced against the monodromy")

    def to_json(self):
        return {
            "J": [list(g) for g in self.J.gens()],
            "psi": self.psi.to_json(),
        }


def make_epsilon(
    md: ModularData, J: Subgroup, psi: AlternatingPairing | None = None, chain=None
) -> SCParam:
    """Torsion parameter with epsilon = psi plus the canonical base form."""
    sc = simple_currents(md)
    cur = _ChainTable.of(sc, J, chain)
    return SCParam(sc, J, cur, *cur.epsilon(psi))


def param_from_epsilon(md: ModularData, J: Subgroup, epsilon: Pairing, chain=None) -> SCParam:
    """Rebase a raw epsilon; its offset from the base form must alternate."""
    sc = simple_currents(md)
    cur = _ChainTable.of(sc, J, chain)
    if epsilon.left.factors != cur.group.factors:
        raise ValueError("epsilon must live on the subgroup's chain group")
    diff = [[e - b for e, b in zip(*rows)] for rows in zip(epsilon.num, cur.base.num)]
    psi = AlternatingPairing.from_numerators(cur.group, cur.group, diff)
    return SCParam(sc, J, cur, psi, epsilon)


def _matrix_from_epsilon(md: ModularData, cur: _ChainTable, rows: dict):
    """Invariant of a torsion form on the chain group, given as its
    ``dot_table(sc.den)`` ``rows``, read through the subgroup's table ``cur``.

    M[a][y a] = |J0| / |J0 a|, J0 the right radical, for each current y whose
    row of the form equals the charges (Q_{embed z}(a))_z of primary a
    (``cur.at[a]``).  Rows are keyed by integer numerators over ``sc.den``,
    as the charges are.
    """
    n = md.dim
    selected: dict = {}
    for row, act in zip(rows.values(), cur.perms):
        selected.setdefault(row, []).append(act)
    j0 = [act for act, col in zip(cur.perms, zip(*rows.values())) if not any(col)]
    M = [[0] * n for _ in range(n)]
    for a, key in enumerate(cur.at):
        value = len(j0) // len({act[a] for act in j0})
        for act in selected.get(key, ()):
            M[a][act[a]] = value
    return M


def sc_matrix(md: ModularData, param: SCParam) -> ModularInvariant:
    """Invariant supported on current orbits selected by the torsion form."""
    M = _matrix_from_epsilon(md, param.currents, param.table)
    return ModularInvariant(M, {"source": "sc", "J": param.J.key()})


def s_only_matrix(
    md: ModularData,
    J: Subgroup,
    psi: AlternatingPairing | None = None,
    phi: Character | None = None,
    chain=None,
):
    """S-commuting matrix from a sign-twisted chain; T-commutation may fail."""
    sc = simple_currents(md)
    cur = _ChainTable.of(sc, J, chain)
    _, epsilon = cur.epsilon(psi)
    if phi is not None:
        Jab, den = cur.group, epsilon.den
        if phi.ambient.factors != Jab.factors:
            raise ValueError("phi must be a character of the chain group")
        num = [list(row) for row in epsilon.num]
        for i, e in enumerate(Jab.basis()):
            k = int(phi.phase(e) * den)
            if 2 * k % den:
                raise ValueError("phi must square to the trivial character")
            num[i][i] += k
        epsilon = Pairing.from_numerators(Jab, Jab, num)
    M = tuple(map(tuple, _matrix_from_epsilon(md, cur, epsilon.dot_table(sc.den))))
    if not s_commutes(md, M):
        raise ValueError("matrix does not commute with S")
    return M


class SCEnumeration:
    """All torsion parameters of a modular datum with their matrices."""

    __slots__ = ("entries", "collisions", "sufficiently_nonzero")

    def __init__(self, entries, collisions, suff):
        self.entries = entries
        self.collisions = collisions
        self.sufficiently_nonzero = suff

    def matrix_set(self):
        return {z.matrix for _, z in self.entries}


def enumerate_sc(md: ModularData) -> SCEnumeration:
    """Every quaternionic-free subgroup with every alternating twist."""
    sc = simple_currents(md)
    entries = []
    for J in all_subgroups(sc.group):
        if any(sc.is_quaternionic(j) for j in J.elements()):
            continue
        cur = _ChainTable.of(sc, J)
        for psi in alternating_pairings(cur.group):
            param = SCParam(sc, J, cur, *cur.epsilon(psi))
            entries.append((param, sc_matrix(md, param)))
    by_matrix: dict = {}
    for param, z in entries:
        by_matrix.setdefault(z.matrix, []).append(param)
    collisions = [group for group in by_matrix.values() if len(group) > 1]
    if sc.sufficiently_nonzero and collisions:
        raise ValueError("duplicate invariants despite separating charges")
    return SCEnumeration(entries, collisions, sc.sufficiently_nonzero)


def invariant_product(md: ModularData, Z1: ModularInvariant, Z2: ModularInvariant):
    """(overlap count, normalized product with the second factor transposed)."""
    n = md.dim
    if any(len(Z.matrix) != n or any(len(r) != n for r in Z.matrix) for Z in (Z1, Z2)):
        raise ValueError("matrix dimension mismatch")
    count = sum(
        1 for a in range(n) if Z1.matrix[md.unit][a] and Z2.matrix[md.unit][a]
    )
    if count == 0:
        raise ValueError("invariants share no unit-row support")
    prod_matrix = mat_mul_int(Z1.matrix, list(zip(*Z2.matrix)))
    if any(x % count for row in prod_matrix for x in row):
        raise ValueError("product is not divisible by the overlap count")
    out = [[x // count for x in row] for row in prod_matrix]
    return count, ModularInvariant(out, {"source": "product"})
