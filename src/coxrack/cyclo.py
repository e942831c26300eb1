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
numerators, or, when those are too wide, by the same enclosures at
doubling bit widths.  A nonzero element of the field cannot vanish at
the standard embedding (its degree is below phi(N)), and the width of
an enclosure halves with each added bit, so the refinement terminates.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


class NotRealError(ValueError):
    """Raised when a sign is requested for a non conjugation-fixed value."""


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("level must be positive")
    for p in prime_factors(n):
        n -= n // p
    return n


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


def _machin_pi(bits: int) -> tuple[int, int]:
    """Integers (num, den) with 0 <= pi - num / den < 2^-bits, from
    pi = 16 arctan(1/5) - 4 arctan(1/239) in multiples of 2^-w.

    Each term of arctan(1/x) = sum_j (-1)^j / ((2j+1) x^(2j+1)) is floored
    (nested floor divisions floor the whole quotient), off by less than
    1, up to the first that floors to 0; the alternating, shrinking tail
    is below 1 too.  So |2^w pi - mid| < err, and w grows until it fits.
    """
    w = bits
    while True:
        w += 16
        mid = err = 0
        for x, weight in ((5, 16), (239, -4)):
            power, j = (1 << w) // x, 0
            while power:
                term = power // (2 * j + 1)
                mid += weight * (-term if j % 2 else term)
                power //= x * x
                j += 1
            err += abs(weight) * (j + 1)
        if 2 * err <= 1 << (w - bits):
            return mid - err, 1 << w


@lru_cache(maxsize=None)
def _cos_enclosures(n: int, bits: int = 64
                    ) -> tuple[tuple[int, int], ...]:
    """Integers (lo, hi) with lo <= 2^bits cos(2 pi k / n) <= hi for
    k < phi(n): the cosines rounded outward to multiples of 2^-bits, as
    numerators.

    With a = min(k, n - k) / n, x = 2 pi a lies in [0, pi], and
    x0 = 2 a P / D, P / D from _machin_pi(b + 40), is within 2^-(b+40)
    of it.  The Taylor terms of cos x0 alternate in sign and shrink from
    x0^2 / 2 on (x0^2 < 3 * 4), so the partial sum S through the
    first J with 4^(2J+2) / (2J+2)! < 2^-(b+40) is within 2^-(b+40) of
    cos x0, and cos x lies in [S - 2^-(b+8), S + 2^-(b+8)].

    S = 1 - y/m_1 (1 - y/m_2 (1 - ...)), y = x0^2, m_j = (2j - 1) 2j, is
    summed by Horner's rule in multiples of 2^-F, F = b + 40, one floor
    a step: Y = floor(2^F y), U_J = 2^F, U_(j-1) = 2^F -
    floor(Y U_j / (m_j 2^F)).  The exact inner sums t_j (t_J = 1) lie
    in (0, 1] for j >= 1, as y < pi^2 < 12 <= m_(j+1), so the error of
    U_(j-1), in units of 2^-F, is below the step's factor bound
    Y / (m_j 2^F) times U_j's, plus 1/m_j <= 1/2 (from Y) plus 1 (the
    floor): err counts it up from U_J's 0, the floored product plus 3.
    lo and hi round (U_0 -+ (err + 2^32)) / 2^40 down and up.
    """
    F = bits + 40
    pi, pi_den = _machin_pi(F)
    terms = 1
    while 16 ** (terms + 1) << F >= math.factorial(2 * terms + 2):
        terms += 1
    one, q2 = 1 << F, (n * pi_den) ** 2
    out = []
    for k in range(euler_phi(n)):
        y = ((2 * min(k, n - k) * pi) ** 2 << F) // q2
        u, err = one, 0
        for j in range(terms, 0, -1):
            m = (2 * j - 1) * (2 * j) << F
            u, err = one - y * u // m, y * err // m + 3
        err += 1 << 32
        out.append(((u - err) >> 40, -((-u - err) >> 40)))
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
    arr[i, j] z^k.  Column k + 1 is z times column k, a shift with
    z^phi replaced by the lower terms of the monic Phi_n, as in
    reduction_matrix: O(r c phi^2) work."""
    r, c, phi = arr.shape
    poly = np.array(cyclotomic_poly(n)[:-1], dtype=np.int64)
    cols = np.empty((r, c, phi, phi), dtype=np.result_type(arr, poly))
    cols[:, :, 0] = arr                         # (r, c, k, phi)
    for k in range(1, phi):
        prev = cols[:, :, k - 1]
        cols[:, :, k, 0] = 0
        cols[:, :, k, 1:] = prev[..., :-1]
        cols[:, :, k] -= prev[..., -1:] * poly
    return cols.transpose(0, 3, 1, 2).reshape(r * phi, c * phi)


def galois(a: np.ndarray, n: int, j: int) -> np.ndarray:
    """The conjugate zeta -> zeta^j of a, for j prime to n (j = -1 is
    complex conjugation): zeta^k goes to zeta^(jk), the row jk mod n of
    reduction_matrix(n), for the phi(n) powers k of the basis."""
    return a @ reduction_matrix(n)[(j * np.arange(a.shape[-1])) % n]


def _enclosure(a, n: int, bits: int = 64) -> tuple[int, int]:
    """Integers lo <= 2^bits value <= hi of a real a.

    The value is sum_k a_k cos(2 pi k / n); each cosine is replaced by
    its cached enclosure, so hi - lo is about 2 sum_k |a_k|.  The bounds
    on the value itself are lo and hi times 2^-bits, with the same
    signs.
    """
    lo = hi = 0
    for c, (clo, chi) in zip(map(int, a), _cos_enclosures(n, bits)):
        lo += c * (clo if c > 0 else chi)
        hi += c * (chi if c > 0 else clo)
    return lo, hi


def sign(a: np.ndarray, n: int) -> int:
    """Exact sign in {-1, 0, +1} of a real element a of Z[zeta_n].

    Zero is decided by the canonical form.  A nonzero value is decided
    by its enclosure at 64 bits when that excludes 0, and otherwise at
    128, 256, ... bits: the value is not 0, and the enclosure's width,
    about 2 sum_k |a_k| 2^-bits, falls below its size.
    """
    a = np.asarray(a)
    if not a.any():
        return 0
    if not np.array_equal(galois(a, n, -1), a):
        raise NotRealError("sign requested for a non-real value")
    bits = 64
    while True:
        lo, hi = _enclosure(a, n, bits)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2
