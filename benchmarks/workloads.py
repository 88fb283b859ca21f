"""The benchmark's workloads: their cases, inputs and exact checks.

Each case runs one user pipeline end to end and checks the result exactly.
A failed check raises ``CheckFailed``; the case returns its problem sizes.
Cases call into ``modinv`` only through module attributes, so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import importlib
from math import lcm
from types import SimpleNamespace

# Problem sizes each case records; absent ones are reported as None.
SIZE_KEYS = ("order", "primaries", "conductor", "rank", "det", "invariants")


class CheckFailed(Exception):
    """An exact check on a case's output did not hold."""


def _require(ok, what):
    if not ok:
        raise CheckFailed(what)


def _identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _conductor(md):
    """Order of T: the lcm of the orders of its roots of unity."""
    return lcm(*(t.order for t in md.T))


def _check_sizes(sizes, expect):
    for key, value in expect.items():
        _require(sizes[key] == value, f"{key} is {sizes[key]}, expected {value}")


def _check_invariants(m, md, mats):
    _require(_identity(md.dim) in mats, "identity invariant missing")
    for M in sorted(mats):
        ok, report = m.modular.check_invariant(md, M)
        _require(ok, f"check_invariant failed: {report}")


# -- ty_center: descriptor -> TY center -> modularity -> Verlinde -> invariants --


def run_ty_center(m, inp):
    desc, sign = inp
    q, _ = m.forms.indecomposable_form(desc)
    md = m.ty.ty_double(m.ty.TYData(q.group, q.polarization(), sign), q)
    n = md.dim
    failed = m.modular.validate_modular(md)
    _require(failed == [], f"validate_modular: {failed}")
    N = md.fusion()  # Verlinde; raises on a non-integral coefficient
    u = md.unit
    _require(all(N[u][b][c] == (b == c) for b in range(n) for c in range(n)), "N_0 is not the identity")
    _require(all(N[a][b] == N[b][a] for a in range(n) for b in range(n)), "fusion is not commutative")
    mats = m.simple_current.enumerate_sc(md).matrix_set()
    _check_invariants(m, md, mats)
    if n <= 15:
        brute = {z.matrix for z in m.modular.brute_force_invariants(md)}
        _require(mats <= brute, "simple-current invariant missing from brute force")
    return {"order": q.group.order, "primaries": n, "conductor": _conductor(md), "invariants": len(mats)}


# -- lattice_realize: descriptor or form -> realize -> discriminant round trip --


def run_lattice_realize(m, inp):
    target, q = inp
    if q is None:
        q, _ = m.forms.indecomposable_form(target)
    L = m.lattice.realize(target)
    G, qL, _ = m.lattice.discriminant(L)
    _require(L.det == G.order == q.group.order, f"det {L.det} != |G| {q.group.order}")
    _require(m.forms.forms_equivalent(qL, q) is not None, "discriminant form is not equivalent to the target")
    sigma = m.forms.gauss_sum(qL)[2]
    _require((sigma - L.rank) % 8 == 0, f"Milgram: signature {sigma} != rank {L.rank} mod 8")
    return {"order": G.order, "rank": L.rank, "det": L.det}


# -- pointed_enum: the three parametrizations of pointed invariants agree --------


def run_pointed_enum(m, desc):
    q, _ = m.forms.indecomposable_form(desc)
    md = m.pointed.weil(q)
    sc = m.simple_current.enumerate_sc(md).matrix_set()
    dpm = {m.pointed.dpm_to_matrix(q, d).matrix for d in m.pointed.enum_dpm(q)}
    z = {m.pointed.z_to_matrix(p).matrix for p in m.pointed.enum_z(q)}
    _require(sc == dpm, "simple-current and isotropic-pair invariants differ")
    _require(dpm == z, "isotropic-pair and self-dual-subgroup invariants differ")
    _check_invariants(m, md, sc)
    return {"order": q.group.order, "primaries": md.dim, "conductor": _conductor(md), "invariants": len(sc)}


def _form_input(m, desc):
    """A form target: the QuadraticForm itself, built (and validated) in set-up."""
    q, _ = m.forms.indecomposable_form(desc)
    return (q, q)


# name -> (modules to import, runner, [(case id, input factory, expected sizes)])
WORKLOADS = {
    "ty_center": (
        ["forms", "modular", "simple_current", "ty"],
        run_ty_center,
        [
            ("2^1_1/+1", lambda m: ("2^1_1", 1), {"primaries": 9, "conductor": 16, "invariants": 2}),
            ("2^1_1/-1", lambda m: ("2^1_1", -1), {"primaries": 9, "conductor": 16, "invariants": 2}),
            ("3^1_+/+1", lambda m: ("3^1_+", 1), {"primaries": 15, "conductor": 24, "invariants": 4}),
            ("3^1_+/-1", lambda m: ("3^1_+", -1), {"primaries": 15, "conductor": 24, "invariants": 4}),
            ("2^2_1/+1", lambda m: ("2^2_1", 1), {"primaries": 22, "conductor": 16, "invariants": 8}),
        ],
    ),
    "lattice_realize": (
        ["forms", "lattice"],
        run_lattice_realize,
        [
            ("7^1_+", lambda m: ("7^1_+", None), {"order": 7}),
            ("3^2_-", lambda m: ("3^2_-", None), {"order": 9}),
            ("5^1_+", lambda m: ("5^1_+", None), {"order": 5}),
            ("2^12^1_i", lambda m: ("2^12^1_i", None), {"order": 4}),
            ("2^22^2_i", lambda m: ("2^22^2_i", None), {"order": 16}),
            ("3^1_- x 2^2_3", lambda m: ("3^1_- x 2^2_3", None), {"order": 12}),
            ("form:2^8_1", lambda m: _form_input(m, "2^8_1"), {"order": 256}),
            ("form:3^1_+ x 2^2_1", lambda m: _form_input(m, "3^1_+ x 2^2_1"), {"order": 12}),
        ],
    ),
    "pointed_enum": (
        ["forms", "modular", "pointed", "simple_current"],
        run_pointed_enum,
        [
            ("3^1_+ x 3^1_+", lambda m: "3^1_+ x 3^1_+", {"primaries": 9, "conductor": 6, "invariants": 8}),
            ("3^1_+ x 3^1_-", lambda m: "3^1_+ x 3^1_-", {"primaries": 9, "conductor": 3, "invariants": 8}),
            ("2^2_1 x 2^1_1", lambda m: "2^2_1 x 2^1_1", {"primaries": 8, "conductor": 24, "invariants": 2}),
            ("2^2_1 x 2^1_3", lambda m: "2^2_1 x 2^1_3", {"primaries": 8, "conductor": 8, "invariants": 2}),
        ],
    ),
}


class Case:
    __slots__ = ("id", "input", "expect", "runner")

    def __init__(self, case_id, inp, expect, runner):
        self.id = case_id
        self.input = inp
        self.expect = expect
        self.runner = runner

    def run(self, m):
        found = self.runner(m, self.input)
        _check_sizes(found, self.expect)
        return {key: found.get(key) for key in SIZE_KEYS}


def setup(workload, only=None):
    """Import the workload's modules and build its inputs.

    ``only`` restricts the cases to the given ids.  Returns the module
    namespace and the cases in their fixed order.
    """
    names, runner, table = WORKLOADS[workload]
    m = SimpleNamespace(**{n: importlib.import_module(f"modinv.{n}") for n in names})
    known = [case_id for case_id, _, _ in table]
    unknown = sorted(set(only or ()) - set(known))
    if unknown:
        raise ValueError(f"unknown case(s) {unknown} for {workload}; known: {known}")
    cases = [
        Case(case_id, build(m), expect, runner)
        for case_id, build, expect in table
        if not only or case_id in only
    ]
    return m, cases
