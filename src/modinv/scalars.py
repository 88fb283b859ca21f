"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Values are stored as sparse polynomials in zeta_N modulo x^N - 1 and reduced
to the canonical basis modulo the N-th cyclotomic polynomial only when
equality, serialization or hashing-style normal forms are needed.  Mixed-order
arithmetic promotes both operands to the lcm of their orders.  All
coefficients are ``fractions.Fraction``; nothing here ever touches floats
except the display-only ``approx`` helper.

This lowest layer also holds what every layer above shares: ``GuardError``,
the one error a size guard raises before it starts work, ``factorize``, the
one trial-division factorization, ``as_integer``, the one check that an
input number (JSON input included, where ``true`` is no integer) is
integral, and ``json_rational`` and ``json_list``, the one reader of exact
rationals and lists in JSON input.  It ends with the packed integer kernel,
``_Packing`` and ``_rational_bound``: integer polynomials in zeta_N as big
integers by Kronecker substitution (see ``modular``, which builds its matrix
work on it, and ``forms.gauss_sum``), ``_conj_poly``, the one conjugation of
such a polynomial, and ``ramanujan_sums``, the traces of the powers of
zeta_N that ``modular`` reads Galois-orbit sums with.
"""

from __future__ import annotations

import cmath
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod

ORDER_GUARD = 10**6


class GuardError(ValueError):
    """A size exceeds its guard; raised before the guarded work starts."""


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of a positive integer by trial division.

    Primes come in increasing order; factorize(1) is empty.
    """
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = 1
    return out


def as_integer(x, message: str) -> int:
    """x as an int; ``ValueError(message)`` unless x is an integral number.

    ``True`` and ``False`` are not integers here."""
    if type(x) is int:
        return x
    if isinstance(x, bool):
        raise ValueError(message)
    try:
        n = int(x)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(message) from exc
    if n != x:
        raise ValueError(message)
    return n


def json_list(x, what: str) -> list:
    """x if it is a JSON array, else ``ValueError``; a string is never iterated."""
    if not isinstance(x, list):
        raise ValueError(f"{what} must be a list, not {x!r}")
    return x


def json_rational(x) -> Fraction:
    """Exact rational from JSON: an ``int`` (not a ``bool``) or a string like "-3/4".

    Anything else, floats included, and a zero denominator raise ``ValueError``.
    """
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise ValueError(f"a rational must be an integer or a string, not {x!r}")
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {x!r}") from exc


def _check_order(n: int) -> int:
    """n as an int, if it is a positive integral order within ORDER_GUARD."""
    n = as_integer(n, "cyclotomic order must be a positive integer")
    if n <= 0:
        raise ValueError("cyclotomic order must be a positive integer")
    if n > ORDER_GUARD:
        raise GuardError(f"cyclotomic order {n} exceeds guard {ORDER_GUARD}")
    return n


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (low degree first) of the n-th cyclotomic polynomial.

    Built by substitution from the squarefree part: Phi_n(x) = Phi_r(x^(n/r))
    with r = rad n; Phi_2m(x) = Phi_m(-x) for odd m > 1; and for an odd
    squarefree n = p m with p its largest prime, Phi_n(x) = Phi_m(x^p) / Phi_m(x),
    one exact division, with Phi_p = 1 + x + ... + x^(p-1).
    """
    _check_order(n)
    if n == 1:
        return (-1, 1)
    if n == 2:
        return (1, 1)
    primes = list(factorize(n))
    r = prod(primes)
    if r < n:
        return _lift(cyclotomic_polynomial(r), n // r)
    if n % 2 == 0:
        return tuple(-c if j % 2 else c for j, c in enumerate(cyclotomic_polynomial(n // 2)))
    p = primes[-1]
    if n == p:
        return (1,) * p
    base = cyclotomic_polynomial(n // p)
    return tuple(_exact_div(list(_lift(base, p)), list(base)))


def _lift(poly: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Coefficients of poly(x^k)."""
    out = [0] * ((len(poly) - 1) * k + 1)
    out[::k] = poly
    return tuple(out)


@lru_cache(maxsize=None)
def cyclotomic_cofactor(n: int) -> tuple[int, ...]:
    """Coefficients (low degree first) of (x^n - 1) / Phi_n, an integer polynomial."""
    return tuple(_exact_div([-1] + [0] * (n - 1) + [1], list(cyclotomic_polynomial(n))))


@lru_cache(maxsize=None)
def ramanujan_sums(n: int) -> tuple[int, ...]:
    """(c_n(0), ..., c_n(n - 1)) with c_n(j) = Tr(zeta_n^j) over Q, so c_n(0) = phi(n).

    c_n(j) = mu(m) phi(n) / phi(m) with m = n / gcd(j, n) (Hoelder's formula).
    """

    def mu_phi(m):
        f = factorize(m)
        mu = 0 if any(e > 1 for e in f.values()) else (-1) ** len(f)
        return mu, prod(p ** (e - 1) * (p - 1) for p, e in f.items())

    phi_n = mu_phi(n)[1]
    out = []
    for j in range(n):
        mu, phi_m = mu_phi(n // gcd(j, n))
        out.append(mu * phi_n // phi_m)
    return tuple(out)


def _exact_div(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials, low degree first.
    num = num[:]
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1] != 0:
            raise ArithmeticError("non-exact polynomial division")
        q = c // den[-1]
        out[i] = q
        if q:
            for j, dj in enumerate(den):
                num[i + j] -= q * dj
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def _phi_support(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Degree of Phi_n and its nonzero (exponent, coefficient) pairs."""
    phi = cyclotomic_polynomial(n)
    return len(phi) - 1, tuple((j, c) for j, c in enumerate(phi) if c)


def reduce_mod_phi(coeffs: list, n: int) -> list:
    """Reduce Sum coeffs[k] zeta_n^k (a length-n list) modulo Phi_n in place.

    Afterwards every entry from deg Phi_n on is zero.  Works on any exact
    number type (``int`` or ``Fraction``) and touches only the nonzero
    coefficients of Phi_n; returns ``coeffs``.
    """
    deg, support = _phi_support(n)
    for i in range(n - 1, deg - 1, -1):
        c = coeffs[i]
        if c:
            # subtract c * x^(i - deg) * Phi_n; Phi_n is monic, so coeffs[i] -> 0
            base = i - deg
            for j, p in support:
                coeffs[base + j] -= c * p
    return coeffs


class Cyclotomic:
    """An element of Q(zeta_order); immutable."""

    __slots__ = ("order", "_terms", "_canon")
    __hash__ = None  # equality crosses orders; use canonical keys instead

    def __init__(self, order: int, terms: dict[int, Fraction] | None = None):
        order = _check_order(order)
        clean: dict[int, Fraction] = {}
        if terms:
            for k, c in terms.items():
                k = as_integer(k, "cyclotomic exponents must be integers") % order
                c = Fraction(c)
                if c:
                    acc = clean.get(k)
                    clean[k] = c if acc is None else acc + c
                    if not clean[k]:
                        del clean[k]
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_canon", None)

    @staticmethod
    def _trusted(order: int, terms: dict[int, Fraction]) -> "Cyclotomic":
        """A value from terms already in normal form: ``Fraction`` coefficients,
        none zero, exponents reduced modulo a checked order.  Results of the
        ring operations are built so, without a second pass of ``__init__``."""
        x = object.__new__(Cyclotomic)
        object.__setattr__(x, "order", order)
        object.__setattr__(x, "_terms", terms)
        object.__setattr__(x, "_canon", None)
        return x

    def __setattr__(self, *a):
        raise AttributeError("Cyclotomic values are immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Cyclotomic":
        return Cyclotomic._trusted(1, {})

    @staticmethod
    def one() -> "Cyclotomic":
        return Cyclotomic._trusted(1, {0: Fraction(1)})

    @staticmethod
    def from_rational(r) -> "Cyclotomic":
        r = Fraction(r)
        return Cyclotomic._trusted(1, {0: r} if r else {})

    # -- canonical form ----------------------------------------------------

    def canonical(self) -> tuple[Fraction, ...]:
        """Length-order coefficient vector, reduced modulo Phi_order."""
        if self._canon is None:
            coeffs = [Fraction(0)] * self.order
            for k, c in self._terms.items():
                coeffs[k] = c
            object.__setattr__(self, "_canon", tuple(reduce_mod_phi(coeffs, self.order)))
        return self._canon

    def terms(self):
        """(exponent, coefficient) pairs in powers of zeta_order; not reduced."""
        return self._terms.items()

    def at_order(self, n: int) -> "Cyclotomic":
        """The same value viewed in Q(zeta_n); n must be a multiple of order."""
        if n == self.order:
            return self
        if n % self.order != 0:
            raise ValueError(f"{n} is not a multiple of order {self.order}")
        _check_order(n)
        step = n // self.order
        return Cyclotomic._trusted(n, {k * step: c for k, c in self._terms.items()})

    # -- ring operations ---------------------------------------------------

    def _common(self, other: "Cyclotomic") -> tuple["Cyclotomic", "Cyclotomic"]:
        n = lcm(self.order, other.order)
        return self.at_order(n), other.at_order(n)

    @staticmethod
    def _coerce(v) -> "Cyclotomic":
        if isinstance(v, Cyclotomic):
            return v
        if isinstance(v, (int, Fraction)):
            return Cyclotomic.from_rational(v)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        terms = dict(a._terms)
        for k, c in b._terms.items():
            terms[k] = terms[k] + c if k in terms else c
        return Cyclotomic._trusted(a.order, {k: c for k, c in terms.items() if c})

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic._trusted(self.order, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        if len(a._terms) > len(b._terms):
            a, b = b, a
        n = a.order
        if len(a._terms) == 1:
            # a rotation of b's exponents, which stay distinct: no term cancels
            ((k1, c1),) = a._terms.items()
            if c1 == 1:
                return Cyclotomic._trusted(n, {(k1 + k2) % n: c2 for k2, c2 in b._terms.items()})
            if c1 == -1:
                return Cyclotomic._trusted(n, {(k1 + k2) % n: -c2 for k2, c2 in b._terms.items()})
            return Cyclotomic._trusted(n, {(k1 + k2) % n: c1 * c2 for k2, c2 in b._terms.items()})
        terms: dict[int, Fraction] = {}
        for k1, c1 in a._terms.items():
            for k2, c2 in b._terms.items():
                k = (k1 + k2) % n
                acc = terms.get(k)
                terms[k] = c1 * c2 if acc is None else acc + c1 * c2
        return Cyclotomic._trusted(n, {k: c for k, c in terms.items() if c})

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return Cyclotomic._coerce(other) * self.inverse()

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        base = self if e >= 0 else self.inverse()
        e = abs(e)
        out = Cyclotomic.one()
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def conj(self) -> "Cyclotomic":
        """Complex conjugate: zeta^k -> zeta^-k."""
        return Cyclotomic._trusted(self.order, _conj_poly(self._terms, self.order))

    def inverse(self) -> "Cyclotomic":
        if len(self._terms) == 1:
            ((k, c),) = self._terms.items()
            return Cyclotomic._trusted(self.order, {-k % self.order: 1 / c})
        n = self.order
        canon = list(self.canonical())
        phi = [Fraction(c) for c in cyclotomic_polynomial(n)]
        deg = len(phi) - 1
        r = canon[:deg]
        while r and not r[-1]:
            r.pop()
        if not r:
            raise ZeroDivisionError("inverse of zero")
        u = _poly_invert(r, phi)
        return Cyclotomic(n, {i: c for i, c in enumerate(u) if c})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.canonical())

    def is_one(self) -> bool:
        return self == Cyclotomic.one()

    def is_rational(self) -> bool:
        c = self.canonical()
        return not any(c[1:])

    def as_rational(self) -> Fraction:
        c = self.canonical()
        if any(c[1:]):
            raise ValueError("value is not rational")
        return c[0]

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.order == other.order:
            return self.canonical() == other.canonical()
        a, b = self._common(other)
        return a.canonical() == b.canonical()

    # -- display and serialization ----------------------------------------

    def approx(self) -> complex:
        """Floating-point embedding (zeta_N = e^(2 pi i / N)); display only."""
        return sum(
            complex(c) * cmath.exp(2j * cmath.pi * k / self.order)
            for k, c in self._terms.items()
        )

    def __repr__(self) -> str:
        if not self._terms:
            return "Cyc(0)"
        parts = []
        for k in sorted(self._terms):
            c = self._terms[k]
            parts.append(f"{c}*z{self.order}^{k}" if k else f"{c}")
        return "Cyc(" + " + ".join(parts) + ")"

    def to_json(self) -> dict:
        return {"N": self.order, "c": [str(c) for c in self.canonical()]}

    @staticmethod
    def from_json(obj: dict) -> "Cyclotomic":
        try:
            n = as_integer(obj["N"], "cyclotomic JSON needs an integer order 'N'")
            coeffs = [json_rational(s) for s in json_list(obj["c"], "'c'")]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed cyclotomic JSON: {exc!r}") from exc
        if len(coeffs) != n:
            raise ValueError("coefficient list must have exactly N entries")
        return Cyclotomic(n, {i: c for i, c in enumerate(coeffs) if c})


def _poly_invert(r: list[Fraction], phi: list[Fraction]) -> list[Fraction]:
    # Extended Euclid in Q[x]: u*r + v*phi = 1 (phi irreducible so gcd is 1).
    def pdivmod(a: list[Fraction], b: list[Fraction]):
        a = a[:]
        q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
        while len(a) >= len(b) and any(a):
            while a and not a[-1]:
                a.pop()
            if len(a) < len(b):
                break
            f = a[-1] / b[-1]
            d = len(a) - len(b)
            q[d] += f
            for j, bj in enumerate(b):
                a[d + j] -= f * bj
            while a and not a[-1]:
                a.pop()
        return q, a

    old_r, cur_r = phi[:], r[:]
    old_u, cur_u = [Fraction(0)], [Fraction(1)]
    while any(cur_r):
        q, rem = pdivmod(old_r, cur_r)
        old_r, cur_r = cur_r, rem
        # old_u - q*cur_u
        prod = [Fraction(0)] * (len(q) + len(cur_u) - 1)
        for i, qi in enumerate(q):
            if qi:
                for j, uj in enumerate(cur_u):
                    prod[i + j] += qi * uj
        new_u = [Fraction(0)] * max(len(old_u), len(prod))
        for i, c in enumerate(old_u):
            new_u[i] += c
        for i, c in enumerate(prod):
            new_u[i] -= c
        old_u, cur_u = cur_u, new_u
    lead = next(c for c in reversed(old_r) if c)
    if len([c for c in old_r if c]) != 1 or old_r[0] != lead:
        raise ArithmeticError("gcd with cyclotomic polynomial is not constant")
    return [c / lead for c in old_u]


# -- public operations -------------------------------------------------------


def root_of_unity(N: int, k: int) -> Cyclotomic:
    """zeta_N^k in canonical form; the order of the result divides N."""
    N = _check_order(N)
    k = as_integer(k, "cyclotomic exponents must be integers") % N
    if k == 0:
        return Cyclotomic.one()
    g = gcd(N, k)
    return Cyclotomic._trusted(N // g, {k // g: Fraction(1)})


def rational_phase(r: Fraction) -> Cyclotomic:
    """e^(2 pi i r) for rational r, as an exact root of unity."""
    r = Fraction(r)
    return root_of_unity(r.denominator, r.numerator)


@lru_cache(maxsize=None)
def _phases(m: int) -> dict[tuple[Fraction, ...], Fraction]:
    # canonical form in Q(zeta_m) of each m-th root of unity -> its phase
    return {
        rational_phase(Fraction(k, m)).at_order(m).canonical(): Fraction(k, m)
        for k in range(m)
    }


def phase_fraction(x: Cyclotomic) -> Fraction:
    """The r in [0, 1) with x = e^(2 pi i r); inverse of ``rational_phase``.

    The roots of unity in Q(zeta_n) are the lcm(2, n)-th ones, so one table
    lookup at that order decides; anything else raises ``ValueError``.
    """
    m = lcm(2, x.order)
    r = _phases(m).get(x.at_order(m).canonical())
    if r is None:
        raise ValueError(f"{x!r} is not a root of unity")
    return r


def sqrt_nonneg_int(n: int) -> Cyclotomic:
    """Positive square root of a nonnegative integer, inside Q(zeta_4n)."""
    n = as_integer(n, "sqrt_nonneg_int needs a nonnegative integer")
    if n < 0:
        raise ValueError("negative input")
    if n == 0:
        return Cyclotomic.zero()
    # sqrt_terms gives reduced exponents and nonzero integer coefficients (a
    # handful of distinct ones), so one Fraction per coefficient is shared
    order, terms = sqrt_terms(n)
    _check_order(order)
    fractions = {c: Fraction(c) for c in set(terms.values())}
    return Cyclotomic._trusted(order, {k: fractions[c] for k, c in terms.items()})


def sqrt_terms(n: int) -> tuple[int, dict[int, int]]:
    """(order, integer terms) of the positive square root of n >= 1.

    With n = m^2 f, f squarefree, sqrt(n) is m, times zeta_8 + zeta_8^-1
    (sqrt 2) if f is even, times the quadratic Gauss sum of the odd part of f
    (times -i if that part is 3 mod 4).  Every factor has integer terms, so
    the product is formed on integers.
    """
    m = f = 1
    for p, e in factorize(n).items():
        m *= p ** (e // 2)
        f *= p ** (e % 2)
    order, terms = 1, {0: m}
    if f % 2 == 0:
        order, terms = 8, {1: m, 7: m}
        f //= 2
    if f > 1:
        g_order, g = _sqrt_odd_squarefree(f)
        n_out = lcm(order, g_order)
        a, b = n_out // order, n_out // g_order
        out: dict[int, int] = {}
        for k1, c1 in terms.items():
            for k2, c2 in g.items():
                k = (k1 * a + k2 * b) % n_out
                out[k] = out.get(k, 0) + c1 * c2
        order, terms = n_out, {k: c for k, c in out.items() if c}
    return order, terms


def _sqrt_odd_squarefree(f: int) -> tuple[int, dict[int, int]]:
    # Quadratic Gauss sum: Sum_k zeta_f^(k^2) equals sqrt(f) for f = 1 mod 4
    # and i*sqrt(f) for f = 3 mod 4, where sqrt(f) = -i times it, in Q(zeta_4f).
    g = Counter(k * k % f for k in range(f))
    if f % 4 == 1:
        return f, dict(g)
    return 4 * f, {(3 * f + 4 * k) % (4 * f): c for k, c in g.items()}


# -- packed integer kernel ----------------------------------------------------


def _conj_poly(p: dict, N: int) -> dict:
    """Terms {-k mod N: c} of the complex conjugate of Sum c zeta_N^k (terms {k: c})."""
    return {-k % N: c for k, c in p.items()}


class _Packing:
    """Z[x]/(x^N - 1) inside the integers mod 2^(B N) - 1, with x = 2^B.

    Any result whose coefficients are at most ``bound`` in absolute value
    unpacks exactly.  ``PF`` is the packed cofactor F = (x^N - 1) / Phi_N.
    """

    __slots__ = ("N", "width", "shift", "M", "half", "bias", "PF", "f0")

    def __init__(self, N: int, bound: int):
        # |c| <= bound < 2^(B-2) keeps every biased digit c + 2^(B-1) inside
        # [1, 2^B - 2]: no borrow crosses digits, and the all-ones string
        # (which is M, i.e. 0) cannot occur.
        self.N = N
        self.width = _Packing.digit_width(bound)
        self.shift = 8 * self.width
        self.M = (1 << (self.shift * N)) - 1
        self.half = 1 << (self.shift - 1)
        self.bias = self.half * (self.M // ((1 << self.shift) - 1))
        F = cyclotomic_cofactor(N)
        self.PF = self.pack(dict(enumerate(F)))
        self.f0 = F[0]  # 1 for N = 1, else -1

    @staticmethod
    def digit_width(bound: int) -> int:
        """Bytes per digit of the packing for ``bound``: all it depends on at one N."""
        return (bound.bit_length() + 2 + 7) // 8

    def pack(self, p: dict) -> int:
        return sum(c << (self.shift * k) for k, c in p.items()) % self.M

    def reduced(self, v: int) -> list[int]:
        """Coefficients of the packed value v, reduced modulo Phi_N (length N)."""
        N, w, half = self.N, self.width, self.half
        v %= self.M
        if not v:
            return [0] * N
        raw = ((v + self.bias) % self.M).to_bytes(w * N, "little")
        coeffs = [
            int.from_bytes(raw[i : i + w], "little") - half for i in range(0, w * N, w)
        ]
        return reduce_mod_phi(coeffs, N)

    def rational(self, u: int) -> int | None:
        """The integer r with v = r modulo Phi_N if u packs v F, else None.

        v = r (mod Phi_N) exactly when v F = r F (mod x^N - 1), and then the
        lowest digit of u is r F(0), i.e. r for N = 1 and -r otherwise.  The
        comparison of u with r F is exact when the coefficients of v F and
        v F - r F are within ``bound``.
        """
        u %= self.M
        r = self.f0 * self.constant(u)
        return None if (u - r * self.PF) % self.M else r

    def constant(self, u: int) -> int:
        """The coefficient of x^0 of the packed value u, all of whose
        coefficients are within ``bound``."""
        M, half = self.M, self.half
        if u < 0:
            u %= M
        while u > M:  # 2^(B N) = 1 modulo M: fold the high bits onto the low
            u = (u & M) + (u >> (self.shift * self.N))
        if u > M >> 1:  # the packed polynomial is negative as an integer
            u -= M
        return ((u + half) & (2 * half - 1)) - half

    def rotations(self, u: int) -> dict:
        """{x^k u: k for k < N}: u times every power of zeta_N."""
        out = {}
        for k in range(self.N):
            out[u] = k
            u = (u << self.shift) % self.M
        return out


def _rational_bound(N: int, norm: int) -> int:
    """A ``_Packing`` bound under which ``rational`` is exact on u = v F for
    every sum v of l1 norm at most ``norm``.

    The coefficients of v F are at most norm ||F||_1; so is |r|, a digit of
    u; hence v F - r F stays within norm ||F||_1 (1 + ||F||_inf).  The bound
    is at least twice norm ||F||_1, so two such u compare exactly too.
    """
    F = cyclotomic_cofactor(N)
    return norm * sum(map(abs, F)) * (1 + max(map(abs, F)))
