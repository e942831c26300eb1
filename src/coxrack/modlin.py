"""Rank engines: dense linear algebra over GF(p) and over cyclotomic fields.

Symmetrizer ranks are computed over word-size prime fields chosen so a
fixed primitive k-th root of unity has an exact image.  Rank over GF(p)
can only undercount the characteristic-zero rank, never overcount;
exact ranks come from enough such primes (nichols.hilbert_coeffs).  The
exact cyclotomic eliminator rank_exact_cyclo is a test oracle.
"""

from __future__ import annotations

import numpy as np

from .cyclo import CycloNumber

PRIME_LOWER = 1 << 30
PRIME_UPPER = (1 << 31) - 1  # keeps products inside int64 during elimination
LIMB_BITS = 8                # matmul_mod splits its right factor into these
MATMUL_CHUNK = 1 << 13       # inner terms summed per float64 product


class PrimeGenerationError(RuntimeError):
    """No usable prime p = 1 (mod k) in the word-size window."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_one_mod(k: int, count: int = 2, lower: int = PRIME_LOWER) -> tuple[int, ...]:
    """Smallest `count` primes p > lower with p = 1 (mod k), deterministic."""
    out = []
    p = lower - (lower - 1) % k  # largest p <= lower with p = 1 mod k
    while len(out) < count:
        p += k
        if p > PRIME_UPPER:
            raise PrimeGenerationError(
                f"no prime p = 1 mod {k} below {PRIME_UPPER}")
        if is_prime(p):
            out.append(p)
    return tuple(out)


def _factorize(k: int) -> list[int]:
    out = []
    d = 2
    while d * d <= k:
        if k % d == 0:
            out.append(d)
            while k % d == 0:
                k //= d
        d += 1
    if k > 1:
        out.append(k)
    return out


def root_of_unity_mod(p: int, k: int) -> int:
    """Smallest residue of multiplicative order exactly k modulo p."""
    if (p - 1) % k != 0:
        raise ValueError(f"{k} does not divide {p} - 1")
    if k == 1:
        return 1
    primes = _factorize(k)
    for g in range(2, p):
        x = pow(g, (p - 1) // k, p)
        if x != 1 and all(pow(x, k // q, p) != 1 for q in primes):
            return x
    raise PrimeGenerationError(f"no order-{k} residue mod {p}")  # unreachable


def row_reduce_mod(a: np.ndarray, p: int, full: bool = False):
    """In-place row reduction mod p; returns (matrix, pivot column list).

    With full=True the result is the reduced row echelon form; otherwise
    only entries below each pivot are cleared (enough for ranks).
    """
    m, n = a.shape
    pivots: list[int] = []
    row = 0
    for col in range(n):
        if row == m:
            break
        hit = row + int(np.argmax(a[row:, col] != 0))
        if a[hit, col] == 0:
            continue
        if hit != row:
            a[[row, hit]] = a[[hit, row]]
        inv = pow(int(a[row, col]), p - 2, p)
        a[row, col:] = a[row, col:] * inv % p
        below = a[row + 1:, col] != 0
        if below.any():
            idx = np.nonzero(below)[0] + row + 1
            a[idx, col:] = (a[idx, col:] - np.outer(a[idx, col], a[row, col:])) % p
        if full:
            above = a[:row, col] != 0
            if above.any():
                idx = np.nonzero(above)[0]
                a[idx, col:] = (a[idx, col:]
                                - np.outer(a[idx, col], a[row, col:])) % p
        pivots.append(col)
        row += 1
    return a, pivots


def rank_mod(a: np.ndarray, p: int) -> int:
    work = np.array(a, dtype=np.int64) % p
    _, pivots = row_reduce_mod(work, p)
    return len(pivots)


def nullspace_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right nullspace mod p, one vector per row."""
    m, n = a.shape
    work = np.array(a, dtype=np.int64) % p
    work, pivots = row_reduce_mod(work, p, full=True)
    free = [c for c in range(n) if c not in set(pivots)]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for bi, fc in enumerate(free):
        basis[bi, fc] = 1
        for r, pc in enumerate(pivots):
            basis[bi, pc] = (-work[r, fc]) % p
    return basis


def solve_in_span_mod(d: np.ndarray, c: np.ndarray, p: int) -> np.ndarray:
    """Solve D X = C mod p for D with full column rank; raises if outside."""
    m, r = d.shape
    aug = np.concatenate([d, c], axis=1).astype(np.int64) % p
    aug, pivots = row_reduce_mod(aug, p, full=True)
    if len(pivots) < r or pivots[:r] != list(range(r)):
        raise ValueError("left block does not have full column rank")
    if len(pivots) > r:
        raise ValueError("right-hand side not in the span of the left block")
    return aug[:r, r:]


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact a @ b mod p on float64 BLAS, for residues of a prime p < 2^31.

    numpy's int64 product has no BLAS kernel.  Here b is split into 8-bit
    limbs, b = sum_l b_l 2^(8l), and each a @ b_l runs in float64 over at
    most 2^13 inner terms.  A term is below 2^31 * 2^8 = 2^39, so every
    partial sum is an integer below 2^52 and float64 holds it exactly,
    whatever order BLAS adds in.  The limb products are recombined in
    int64 by Horner's rule, reducing mod p between steps, and the chunks
    are summed mod p.
    """
    if p > PRIME_UPPER:
        raise ValueError(f"modulus {p} is above {PRIME_UPPER}")
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    nlimbs = -(-(p - 1).bit_length() // LIMB_BITS)
    mask = (1 << LIMB_BITS) - 1
    for lo in range(0, a.shape[1], MATMUL_CHUNK):
        af = a[:, lo:lo + MATMUL_CHUNK].astype(np.float64)
        bc = b[lo:lo + MATMUL_CHUNK]
        # from the top limb down: acc < p * 2^8 + 2^52 stays exact in int64
        acc = None
        for limb in reversed(range(nlimbs)):
            bl = ((bc >> (LIMB_BITS * limb)) & mask).astype(np.float64)
            part = (af @ bl).astype(np.int64)
            if acc is None:
                acc = part
            else:
                acc %= p
                acc <<= LIMB_BITS
                acc += part
        acc %= p
        out = acc if lo == 0 else (out + acc) % p
    return out


def rank_exact_cyclo(rows, level: int) -> int:
    """Rank over Q(zeta_level) by straightforward field elimination.

    Accepts a list of rows of CycloNumbers (small matrices).  Test oracle
    for the exact ranks of nichols.hilbert_coeffs.
    """
    work = [list(r) for r in rows]
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows)
                    if not work[r][col].is_zero()), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = work[rank][col].inverse()
        work[rank] = [v * inv for v in work[rank]]
        for r in range(rank + 1, nrows):
            f = work[r][col]
            if not f.is_zero():
                work[r] = [v - f * w for v, w in zip(work[r], work[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def zeta_reduction_matrix(k: int) -> np.ndarray:
    """(k, phi(k)) integer matrix expressing zeta_k^e in the power basis."""
    cols = []
    for e in range(k):
        z = CycloNumber.zeta(k, e)
        col = [int(c) for c in z.coeffs]
        if any(c.denominator != 1 for c in z.coeffs):
            raise AssertionError("zeta powers must reduce integrally")
        cols.append(col)
    return np.array(cols, dtype=np.int64)
