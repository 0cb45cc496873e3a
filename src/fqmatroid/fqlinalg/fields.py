"""Finite field arithmetic for F_q with q = p^e <= 2^16.

Field elements are plain integers in [0, q).  For a prime field the
integer is the residue itself.  For an extension field the base-p digits
of the integer (least significant digit first) are the coefficients of a
polynomial in x, and arithmetic is done modulo the lexicographically
least monic irreducible polynomial of degree e over F_p.  Multiplication
and inversion go through exp/log tables built from a fixed generator of
the multiplicative group, so scalar operations are O(1) lookups.
"""

from __future__ import annotations

import functools

from ..errors import NotPrimePower, TooLarge

MAX_ORDER = 1 << 16


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _poly_mulmod(a: list[int], b: list[int], modulus: list[int], p: int) -> list[int]:
    # dense coefficient lists, constant term first; modulus is monic of degree e
    e = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(len(prod) - 1, e - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(e):
                prod[i - e + j] = (prod[i - e + j] - c * modulus[j]) % p
    out = prod[:e]
    while len(out) < e:
        out.append(0)
    return out


def _poly_divisible(poly: list[int], div: list[int], p: int) -> bool:
    # long division remainder test; div monic
    rem = list(poly)
    dd = len(div) - 1
    while len(rem) - 1 >= dd:
        lead = rem[-1]
        if lead:
            off = len(rem) - 1 - dd
            for j in range(dd + 1):
                rem[off + j] = (rem[off + j] - lead * div[j]) % p
        rem.pop()
    return not any(rem)


def _monic_polys(p: int, deg: int):
    for code in range(p**deg):
        coeffs = []
        c = code
        for _ in range(deg):
            coeffs.append(c % p)
            c //= p
        coeffs.append(1)
        yield coeffs


def _least_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree e over F_p.

    Candidates are ordered by the integer whose base-p digits are the
    non-leading coefficients, constant term least significant.  A monic
    polynomial of degree e is reducible iff it has a monic divisor of
    degree between 1 and e//2, and there are only p^(e//2) <= sqrt(q) of
    those, so trial division is cheap.
    """
    divisors = [list(d) for deg in range(1, e // 2 + 1) for d in _monic_polys(p, deg)]
    for cand in _monic_polys(p, e):
        if e == 1 or not any(_poly_divisible(cand, d, p) for d in divisors):
            return tuple(cand)
    raise AssertionError("no irreducible polynomial found")


def _digits(value: int, p: int, e: int) -> list[int]:
    out = []
    for _ in range(e):
        out.append(value % p)
        value //= p
    return out


def _undigits(coeffs: list[int], p: int) -> int:
    val = 0
    for c in reversed(coeffs):
        val = val * p + c
    return val


class FieldSpec:
    """Arithmetic context for F_q.  Obtain instances via make_field."""

    __slots__ = ("q", "p", "e", "modulus", "_exp", "_log", "_neg")

    def __init__(self, q: int, p: int, e: int, modulus: tuple[int, ...]):
        self.q = q
        self.p = p
        self.e = e
        self.modulus = modulus
        self._exp = None
        self._log = None
        self._neg = None
        if e > 1:
            self._build_tables()

    def _build_tables(self):
        p, e, q = self.p, self.e, self.q
        mod = list(self.modulus)
        factors = _prime_factors(q - 1)

        def mul_int(a: int, b: int) -> int:
            return _undigits(_poly_mulmod(_digits(a, p, e), _digits(b, p, e), mod, p), p)

        def pow_int(a: int, k: int) -> int:
            r = 1
            while k:
                if k & 1:
                    r = mul_int(r, a)
                a = mul_int(a, a)
                k >>= 1
            return r

        gen = None
        for g in range(2, q):
            if all(pow_int(g, (q - 1) // f) != 1 for f in factors):
                gen = g
                break
        assert gen is not None
        exp = [0] * (q - 1)
        log = [0] * q
        acc = 1
        for i in range(q - 1):
            exp[i] = acc
            log[acc] = i
            acc = mul_int(acc, gen)
        self._exp = exp
        self._log = log
        # negation table: digit-wise additive inverse
        self._neg = [_undigits([(-d) % p for d in _digits(v, p, e)], p) for v in range(q)]

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        p = self.p
        out, pw = 0, 1
        while a or b:
            out += ((a + b) % p) * pw
            a //= p
            b //= p
            pw *= p
        return out

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def elements(self) -> range:
        return range(self.q)

    def __repr__(self):
        return f"FieldSpec(q={self.q})"

    def __reduce__(self):
        return (make_field, (self.q,))


def prime_power(q: int) -> tuple[int, int]:
    """(p, e) with q = p^e, for a field order q without building the field.

    Raises NotPrimePower unless q = p^e with p prime and e >= 1, and
    TooLarge when q > 2^16.
    """
    if not isinstance(q, int) or q < 2:
        raise NotPrimePower(f"{q!r} is not a prime power")
    if q > MAX_ORDER:
        raise TooLarge(f"field order {q} exceeds {MAX_ORDER}")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        p = q
    e = 0
    rest = q
    while rest % p == 0:
        rest //= p
        e += 1
    if rest != 1:
        raise NotPrimePower(f"{q} is not a prime power")
    return p, e


@functools.lru_cache(maxsize=None)
def make_field(q: int) -> FieldSpec:
    """Construct (and cache) the arithmetic context for F_q; q is checked
    as in prime_power."""
    p, e = prime_power(q)
    return FieldSpec(q, p, e, _least_irreducible(p, e))
