"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Root coordinates, the bilinear form values cos(pi/m) and the roots of
unity appearing in diagonal braidings all live in cyclotomic fields.  A
value is stored in the power basis 1, z, ..., z^(phi(N)-1) of Q(zeta_N),
reduced modulo the N-th cyclotomic polynomial, so equality and zero
testing are plain coefficient comparisons.

Signs of real elements are decided exactly: the zero test is the
coefficient comparison, and a nonzero value is separated from zero by
rational enclosures of the cosines it sums, or, when those are too wide,
by interval arithmetic at doubling precision.  A nonzero element of the
field cannot vanish at the standard embedding (its degree is below
phi(N)), so the loop terminates; the hard precision cap only exists to
turn logic errors into loud failures.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

_Q0 = Fraction(0)
_Q1 = Fraction(1)

SIGN_PREC_START = 64
SIGN_PREC_CAP = 4096

# pi cut after 37 decimals: 0 <= pi - _PI_LO < 10^-37
_PI_LO = Fraction(31415926535897932384626433832795028841, 10 ** 37)
_COS_BITS = 64   # cosine enclosures are rounded outward to multiples of 2^-64
_COS_TERMS = 22  # for 0 <= x <= pi the first term left out, x^46/46!, < 2^-110


class NotRealError(ValueError):
    """Raised when a sign is requested for a non conjugation-fixed value."""


class SignUndecidedError(RuntimeError):
    """Raised when interval evaluation hits the precision cap.

    This cannot happen for a canonical nonzero element; seeing it means a
    bug upstream (e.g. a non-canonical representation slipped through).
    """


class LevelError(ValueError):
    """Raised when a value does not live in the requested subfield."""


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("level must be positive")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@lru_cache(maxsize=None)
def _cos_enclosures(n: int) -> tuple[tuple[Fraction, Fraction], ...]:
    """(lo, hi) with lo <= cos(2 pi k / n) <= hi for k < phi(n), rounded
    outward to multiples of 2^-_COS_BITS.

    With a = min(k, n - k) / n, the angle x = 2 pi a lies in [0, pi], and
    x0 = 2 a _PI_LO is within 10^-37 of it, so |cos x - cos x0| < 10^-37.
    The Taylor terms t_j = (-1)^j x0^(2j) / (2j)! alternate in sign and,
    from j = 1 on, shrink: |t_(j+1) / t_j| = x0^2 / ((2j+1)(2j+2)) < 1.
    So the partial sum S through j = _COS_TERMS is within 2^-110 of
    cos x0, and cos x lies in [S - 2^-72, S + 2^-72].  S is summed
    exactly, by Horner's rule in integers: with y = x0^2,
    S = 1 - y/(1 2) (1 - y/(3 4) (1 - ...)).
    """
    scale, err, out = 2 ** _COS_BITS, Fraction(1, 2 ** 72), []
    for k in range(euler_phi(n)):
        x0 = Fraction(2 * min(k, n - k), n) * _PI_LO
        p2, q2 = x0.numerator ** 2, x0.denominator ** 2
        num = den = 1
        for j in range(_COS_TERMS, 0, -1):
            m = (2 * j - 1) * (2 * j) * q2
            num, den = den * m - p2 * num, den * m
        s = Fraction(num, den)
        out.append((Fraction(math.floor((s - err) * scale), scale),
                    Fraction(math.ceil((s + err) * scale), scale)))
    return tuple(out)


def _int_poly_div(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (remainder must be zero)."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c % den[dd] != 0:
            raise ArithmeticError("non-exact polynomial division")
        q = c // den[dd]
        out[i - dd] = q
        if q:
            for j, dj in enumerate(den):
                num[i - dd + j] -= q * dj
    if any(num[:dd]):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending degree, monic."""
    if n < 1:
        raise ValueError("level must be positive")
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in _divisors(n):
        if d < n:
            num = _int_poly_div(num, list(cyclotomic_poly(d)))
    return tuple(num)


def _reduce(vec: list[Fraction], level: int) -> tuple[Fraction, ...]:
    """Reduce a polynomial in zeta_N modulo Phi_N; result has phi(N) coeffs."""
    phi = cyclotomic_poly(level)
    deg = len(phi) - 1
    v = list(vec)
    if len(v) < deg:
        v.extend([_Q0] * (deg - len(v)))
    for i in range(len(v) - 1, deg - 1, -1):
        c = v[i]
        if c:
            v[i] = _Q0
            off = i - deg
            for j in range(deg):
                if phi[j]:
                    v[off + j] -= c * phi[j]
    return tuple(v[:deg])


class CycloNumber:
    """An element of Q(zeta_N) in canonical (reduced) power-basis form.

    Immutable; all arithmetic auto-embeds operands into the field of
    level lcm of the operand levels.  Instances are unhashable because
    mathematically equal values can carry different levels; hot paths
    needing dict keys use the raw ``coeffs`` tuple at a fixed level.
    """

    __slots__ = ("level", "coeffs")

    def __init__(self, level: int, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != euler_phi(level):
            raise ValueError("coefficient vector has wrong length for level")
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *args):
        raise AttributeError("CycloNumber is immutable")

    def __reduce__(self):
        return (CycloNumber, (self.level, self.coeffs))

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rational(cls, value, level: int = 1) -> "CycloNumber":
        q = Fraction(value)
        coeffs = [q] + [_Q0] * (euler_phi(level) - 1)
        return cls(level, coeffs)

    @classmethod
    def zero(cls, level: int = 1) -> "CycloNumber":
        return cls.from_rational(0, level)

    @classmethod
    def one(cls, level: int = 1) -> "CycloNumber":
        return cls.from_rational(1, level)

    @classmethod
    def zeta(cls, level: int, power: int = 1) -> "CycloNumber":
        """zeta_level ** power."""
        power %= level
        raw = [_Q0] * (power + 1)
        raw[power] = _Q1
        return cls(level, _reduce(raw, level))

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def embed(self, level: int) -> "CycloNumber":
        """Re-embed into Q(zeta_level); current level must divide level."""
        if level == self.level:
            return self
        if level % self.level != 0:
            raise LevelError(f"{self.level} does not divide {level}")
        t = level // self.level
        raw = [_Q0] * ((len(self.coeffs) - 1) * t + 1)
        for k, c in enumerate(self.coeffs):
            raw[k * t] = c
        return CycloNumber(level, _reduce(raw, level))

    def restrict(self, level: int) -> "CycloNumber":
        """Express the value in Q(zeta_level) for a divisor level.

        Raises LevelError when the value does not lie in the subfield.
        """
        if level == self.level:
            return self
        if self.level % level != 0:
            raise LevelError(f"{level} does not divide {self.level}")
        basis = [CycloNumber.zeta(level, k).embed(self.level).coeffs
                 for k in range(euler_phi(level))]
        sol = _solve_rational(basis, self.coeffs)
        if sol is None:
            raise LevelError("value does not lie in the requested subfield")
        return CycloNumber(level, sol)

    # -- arithmetic -----------------------------------------------------

    @staticmethod
    def _coerce(a: "CycloNumber", b) -> tuple["CycloNumber", "CycloNumber"]:
        if not isinstance(b, CycloNumber):
            b = CycloNumber.from_rational(b)
        if a.level == b.level:
            return a, b
        lev = math.lcm(a.level, b.level)
        return a.embed(lev), b.embed(lev)

    def __add__(self, other) -> "CycloNumber":
        a, b = self._coerce(self, other)
        return CycloNumber(a.level, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __sub__(self, other) -> "CycloNumber":
        a, b = self._coerce(self, other)
        return CycloNumber(a.level, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other) -> "CycloNumber":
        return (-self).__add__(other)

    def __neg__(self) -> "CycloNumber":
        return CycloNumber(self.level, [-c for c in self.coeffs])

    def __mul__(self, other) -> "CycloNumber":
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return CycloNumber(self.level, [c * q for c in self.coeffs])
        a, b = self._coerce(self, other)
        n = len(a.coeffs)
        raw = [_Q0] * (2 * n - 1)
        for i, ci in enumerate(a.coeffs):
            if ci:
                for j, cj in enumerate(b.coeffs):
                    if cj:
                        raw[i + j] += ci * cj
        return CycloNumber(a.level, _reduce(raw, a.level))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "CycloNumber":
        if k < 0:
            return self.inverse() ** (-k)
        out = CycloNumber.one(self.level)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> "CycloNumber":
        """Field inverse via the extended Euclidean algorithm mod Phi_N."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        phi = [Fraction(c) for c in cyclotomic_poly(self.level)]
        u = _poly_modinv(list(self.coeffs), phi)
        return CycloNumber(self.level, _reduce(u, self.level))

    def __truediv__(self, other) -> "CycloNumber":
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return CycloNumber(self.level, [c / q for c in self.coeffs])
        a, b = self._coerce(self, other)
        return a * b.inverse()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CycloNumber.from_rational(other)
        if not isinstance(other, CycloNumber):
            return NotImplemented
        a, b = self._coerce(self, other)
        return a.coeffs == b.coeffs

    __hash__ = None  # mathematically equal values may differ in level

    # -- reality and signs ------------------------------------------------

    def conjugate(self) -> "CycloNumber":
        n = self.level
        raw = [_Q0] * n
        raw[0] = self.coeffs[0]
        for k in range(1, len(self.coeffs)):
            raw[(n - k) % n] += self.coeffs[k]
        return CycloNumber(n, _reduce(raw, n))

    def is_real(self) -> bool:
        return self == self.conjugate()

    def _real_interval(self, prec: int):
        """Interval containing the value; requires a conjugation-fixed value.

        A conjugation-fixed element equals sum_k c_k cos(2 pi k / N) at
        the standard embedding, which is evaluated with outward rounding.
        """
        from mpmath import iv   # only here: most signs never need it

        old = iv.prec
        try:
            iv.prec = prec
            total = iv.mpf(0)
            two_pi = 2 * iv.pi
            n = self.level
            for k, c in enumerate(self.coeffs):
                if c:
                    frac = iv.mpf(c.numerator) / iv.mpf(c.denominator)
                    total += frac * iv.cos(two_pi * k / n)
            return total
        finally:
            iv.prec = old

    def _enclosure(self) -> tuple[Fraction, Fraction]:
        """Rationals lo <= value <= hi; requires a conjugation-fixed value.

        The value is sum_k c_k cos(2 pi k / N); each cosine is replaced by
        its cached enclosure, so hi - lo is about sum_k |c_k| 2^-63.
        """
        lo = hi = _Q0
        for c, (clo, chi) in zip(self.coeffs, _cos_enclosures(self.level)):
            lo += c * (clo if c > 0 else chi)
            hi += c * (chi if c > 0 else clo)
        return lo, hi

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1} of a real element.

        Zero is decided by the canonical form.  A nonzero value is
        decided by its rational enclosure when that excludes 0, and
        otherwise by interval evaluation with doubling precision (start
        64 bits, cap 4096).
        """
        if self.is_zero():
            return 0
        if not self.is_real():
            raise NotRealError("sign requested for a non-real value")
        lo, hi = self._enclosure()
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        prec = SIGN_PREC_START
        while prec <= SIGN_PREC_CAP:
            box = self._real_interval(prec)
            if box > 0:
                return 1
            if box < 0:
                return -1
            prec *= 2
        raise SignUndecidedError(
            f"interval evaluation did not separate {self!r} from zero")

    # -- text form (repr, and a round trip in the tests) ------------------

    def __str__(self) -> str:
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*z")
            else:
                parts.append(f"{c}*z^{k}")
        body = " + ".join(parts) if parts else "0"
        return f"{body}@{self.level}"

    def __repr__(self) -> str:
        return f"CycloNumber({self})"

    _TERM_RE = re.compile(r"^(-?\d+(?:/\d+)?)(?:\*z(?:\^(\d+))?)?$")

    @classmethod
    def parse(cls, text: str) -> "CycloNumber":
        body, _, level_s = text.rpartition("@")
        if not level_s or not body:
            raise ValueError(f"malformed cyclotomic literal: {text!r}")
        level = int(level_s)
        coeffs = [_Q0] * euler_phi(level)
        if body.strip() != "0":
            for term in body.split(" + "):
                m = cls._TERM_RE.match(term.strip())
                if not m:
                    raise ValueError(f"malformed term {term!r} in {text!r}")
                c = Fraction(m.group(1))
                k = int(m.group(2)) if m.group(2) else (1 if "z" in term else 0)
                coeffs[k] += c
        return cls(level, coeffs)


def _solve_rational(columns, target) -> tuple[Fraction, ...] | None:
    """Solve sum_j x_j col_j = target exactly; None when inconsistent."""
    ncols = len(columns)
    nrows = len(target)
    aug = [[Fraction(columns[j][i]) for j in range(ncols)] + [Fraction(target[i])]
           for i in range(nrows)]
    pivots = []
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if aug[r][col] != 0), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [v * inv for v in aug[row]]
        for r in range(nrows):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    for r in range(row, nrows):
        if aug[r][ncols] != 0:
            return None
    sol = [_Q0] * ncols
    for r, col in enumerate(pivots):
        sol[col] = aug[r][ncols]
    # free columns stay zero; re-verify since that choice is arbitrary
    for i in range(nrows):
        acc = sum((sol[j] * columns[j][i] for j in range(ncols)), _Q0)
        if acc != target[i]:
            return None
    return tuple(sol)


def _poly_divmod(a: list[Fraction], b: list[Fraction]):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    db = len(b) - 1
    while b[db] == 0:
        db -= 1
    q = [_Q0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        if a[i] != 0:
            f = a[i] / b[db]
            q[i - db] = f
            for j in range(db + 1):
                a[i - db + j] -= f * b[j]
    while a and a[-1] == 0:
        a.pop()
    return q, a


def _poly_modinv(a: list[Fraction], modulus: list[Fraction]) -> list[Fraction]:
    """Inverse of a modulo an irreducible polynomial, over Q."""
    r0, r1 = list(modulus), list(a)
    s0, s1 = [_Q0], [_Q1]
    while True:
        while r1 and r1[-1] == 0:
            r1.pop()
        if len(r1) == 1:
            c = r1[0]
            return [v / c for v in s1]
        if not r1:
            raise ZeroDivisionError("value is not invertible")
        q, r = _poly_divmod(r0, r1)
        s = _poly_sub(s0, _poly_mul(q, s1))
        r0, r1 = r1, r
        s0, s1 = s1, s


def _poly_mul(a, b):
    out = [_Q0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [_Q0] * (n - len(a))
    b = list(b) + [_Q0] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def cos_of_pi_over(m: int) -> CycloNumber:
    """cos(pi/m) as (zeta_2m + zeta_2m^-1) / 2 at level 2m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    z = CycloNumber.zeta(2 * m, 1)
    zbar = CycloNumber.zeta(2 * m, 2 * m - 1)
    return (z + zbar) * Fraction(1, 2)
