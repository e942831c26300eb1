"""Exact arithmetic in the cyclotomic integers Z[zeta_N].

A number is an integer vector: its coordinates in the power basis
1, z, ..., z^(phi(N)-1) of Z[zeta_N], reduced modulo the N-th
cyclotomic polynomial Phi_N, on the last axis of a numpy array.  The
form is canonical, so equality and zero tests compare coefficients.
Every exact number of the package has this form: root coordinates and
the doubled Coxeter form 2(alpha_i, alpha_j) = -(zeta^(N/2m) +
zeta^(-N/2m)) lie in Z[2 cos(pi/m)], a subring of Z[zeta_N] (coxeter),
and symmetrizer entries are sums of roots of unity (nichols, modlin).

reduction_matrix maps counts per power of zeta, that is Z[x]/(x^N - 1),
to the power basis; mul and regular_matrix give products, galois the
conjugates zeta -> zeta^j.  They broadcast over leading axes and work
on int64 arrays and on object arrays of Python ints alike; the latter
serve where entries outgrow int64 (norms, fraction-free elimination).

Signs of real elements are decided exactly: the zero test is the
coefficient comparison, and a nonzero value is separated from zero by
enclosures of the cosines it sums, multiples of 2^-64 summed as integer
numerators, or, when those are too wide, by interval arithmetic at
doubling precision.  A nonzero element of the field cannot vanish at
the standard embedding (its degree is below phi(N)), so the loop
terminates; the hard precision cap only exists to turn logic errors
into loud failures.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

SIGN_PREC_START = 64
SIGN_PREC_CAP = 4096

# pi cut after 37 decimals: 0 <= pi - _PI_LO / 10^37 < 10^-37
_PI_LO = 31415926535897932384626433832795028841
_COS_BITS = 64   # cosine enclosures are rounded outward to multiples of 2^-64
_COS_TERMS = 22  # for 0 <= x <= pi the first term left out, x^46/46!, < 2^-110


class NotRealError(ValueError):
    """Raised when a sign is requested for a non conjugation-fixed value."""


class SignUndecidedError(RuntimeError):
    """Raised when interval evaluation hits the precision cap.

    This cannot happen for a canonical nonzero element; seeing it means a
    bug upstream (e.g. a non-canonical representation slipped through).
    """


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
def _cos_enclosures(n: int) -> tuple[tuple[int, int], ...]:
    """Integers (lo, hi) with lo <= 2^_COS_BITS cos(2 pi k / n) <= hi for
    k < phi(n): the cosines rounded outward to multiples of 2^-_COS_BITS,
    as numerators.

    With a = min(k, n - k) / n, the angle x = 2 pi a lies in [0, pi], and
    x0 = 2 a _PI_LO / 10^37 is within 10^-37 of it, so
    |cos x - cos x0| < 10^-37.  The Taylor terms t_j = (-1)^j x0^(2j) / (2j)!
    alternate in sign and, from j = 1 on, shrink:
    |t_(j+1) / t_j| = x0^2 / ((2j+1)(2j+2)) < 1.  So the partial sum S
    through j = _COS_TERMS is within 2^-110 of cos x0, and cos x lies in
    [S - 2^-72, S + 2^-72].  S = num / den is summed exactly, by Horner's
    rule in integers: with y = x0^2 = p2 / q2,
    S = 1 - y/(1 2) (1 - y/(3 4) (1 - ...)).  Then the bounds
    2^64 (S -+ 2^-72) = (2^72 num -+ den) / (2^8 den) are rounded down
    and up by integer division.
    """
    out = []
    for k in range(euler_phi(n)):
        p2, q2 = (2 * min(k, n - k) * _PI_LO) ** 2, (n * 10 ** 37) ** 2
        num = den = 1
        for j in range(_COS_TERMS, 0, -1):
            m = (2 * j - 1) * (2 * j) * q2
            num, den = den * m - p2 * num, den * m
        top, scale = num << (_COS_BITS + 8), den << 8
        out.append(((top - den) // scale, -((-top - den) // scale)))
    return tuple(out)


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending degree, monic: x^n - 1 divided by
    Phi_d for each proper divisor d of n, exactly (each Phi_d is monic)."""
    if n < 1:
        raise ValueError("level must be positive")
    num = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n)[:-1]:
        den = cyclotomic_poly(d)
        k = len(den) - 1
        quot = [0] * (len(num) - k)
        for i in range(len(num) - 1, k - 1, -1):
            q = quot[i - k] = num[i]
            for j, c in enumerate(den):
                num[i - k + j] -= q * c
        if any(num[:k]):
            raise ArithmeticError("non-exact polynomial division")
        num = quot
    return tuple(num)


@lru_cache(maxsize=None)
def reduction_matrix(n: int) -> np.ndarray:
    """(n, phi(n)) int64 matrix whose row e is x^e mod Phi_n.

    Row e is x times row e - 1, with x^phi(n) replaced by the lower
    terms of the monic Phi_n.  A count array over Z[x]/(x^n - 1), one
    entry per power on its last axis, maps to the power basis as
    arr @ reduction_matrix(n).
    """
    poly = np.array(cyclotomic_poly(n)[:-1], dtype=np.int64)
    deg = len(poly)
    red = np.zeros((n, deg), dtype=np.int64)
    red[:deg] = np.eye(deg, dtype=np.int64)
    for e in range(deg, n):
        red[e, 1:] = red[e - 1, :-1]
        red[e] -= red[e - 1, -1] * poly
    red.flags.writeable = False
    return red


def mul(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """The product a b in Z[zeta_n], broadcast over leading axes."""
    phi = a.shape[-1]
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (2 * phi - 1,)
    raw = np.zeros(shape, dtype=np.result_type(a, b))
    for j in range(phi):
        raw[..., j:j + phi] += a * b[..., j, None]
    return raw @ reduction_matrix(n)[np.arange(2 * phi - 1) % n]


def regular_matrix(arr: np.ndarray, n: int) -> np.ndarray:
    """The integer (r phi, c phi) matrix of an (r, c, phi) matrix over
    Z[zeta_n], acting on stacked power-basis coordinates: block (i, j)
    is the matrix of multiplication by arr[i, j], whose column k is
    arr[i, j] z^k."""
    r, c, phi = arr.shape
    basis = np.eye(phi, dtype=np.int64)
    cols = mul(arr[..., None, :], basis, n)     # (r, c, k, phi)
    return cols.transpose(0, 3, 1, 2).reshape(r * phi, c * phi)


def galois(a: np.ndarray, n: int, j: int) -> np.ndarray:
    """The conjugate zeta -> zeta^j of a, for j prime to n (j = -1 is
    complex conjugation)."""
    phi = a.shape[-1]
    raw = np.zeros(a.shape[:-1] + (n,), dtype=a.dtype)
    raw[..., (j * np.arange(phi)) % n] = a
    return raw @ reduction_matrix(n)


def _enclosure(a, n: int) -> tuple[int, int]:
    """Integers lo <= 2^_COS_BITS value <= hi of a real a.

    The value is sum_k a_k cos(2 pi k / n); each cosine is replaced by
    its cached enclosure, so hi - lo is about 2 sum_k |a_k|.  The bounds
    on the value itself are lo and hi times 2^-_COS_BITS, with the same
    signs.
    """
    lo = hi = 0
    for c, (clo, chi) in zip(map(int, a), _cos_enclosures(n)):
        lo += c * (clo if c > 0 else chi)
        hi += c * (chi if c > 0 else clo)
    return lo, hi


def _real_interval(a, n: int, prec: int):
    """mpmath interval containing the value of a real a,
    sum_k a_k cos(2 pi k / n), evaluated with outward rounding."""
    from mpmath import iv   # only here: most signs never need it

    old = iv.prec
    try:
        iv.prec = prec
        total = iv.mpf(0)
        two_pi = 2 * iv.pi
        for k, c in enumerate(map(int, a)):
            if c:
                total += c * iv.cos(two_pi * k / n)
        return total
    finally:
        iv.prec = old


def sign(a: np.ndarray, n: int) -> int:
    """Exact sign in {-1, 0, +1} of a real element a of Z[zeta_n].

    Zero is decided by the canonical form.  A nonzero value is
    decided by its rational enclosure when that excludes 0, and
    otherwise by interval evaluation with doubling precision (start
    64 bits, cap 4096).
    """
    a = np.asarray(a)
    if not a.any():
        return 0
    if not np.array_equal(galois(a, n, -1), a):
        raise NotRealError("sign requested for a non-real value")
    lo, hi = _enclosure(a, n)
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    prec = SIGN_PREC_START
    while prec <= SIGN_PREC_CAP:
        box = _real_interval(a, n, prec)
        if box > 0:
            return 1
        if box < 0:
            return -1
        prec *= 2
    raise SignUndecidedError(
        f"interval evaluation did not separate {a.tolist()} at level {n} "
        "from zero")
