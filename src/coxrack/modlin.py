"""Rank engines: dense linear algebra over GF(p) and over cyclotomic fields.

Symmetrizer ranks are computed over word-size prime fields chosen so a
fixed primitive k-th root of unity has an exact image.  Rank over GF(p)
can only undercount the characteristic-zero rank, never overcount;
exact ranks come from enough such primes (nichols.hilbert_coeffs).
Elimination over GF(p) always ends in the reduced row echelon form,
which the ladder reads its letter matrices from and solve_in_span_mod
its solutions.  The exact rank over Q(zeta_k), rank_exact_cyclo, is a
test oracle: it takes the integer power-basis array of cyclo and
eliminates over Q.
"""

from __future__ import annotations

import numpy as np

from .cyclo import prime_factors, regular_matrix

PRIME_LOWER = 1 << 30
PRIME_UPPER = (1 << 31) - 1  # keeps products inside int64 during elimination
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


def root_of_unity_mod(p: int, k: int) -> int:
    """Smallest residue of multiplicative order exactly k modulo p."""
    if (p - 1) % k != 0:
        raise ValueError(f"{k} does not divide {p} - 1")
    if k == 1:
        return 1
    primes = prime_factors(k)
    for g in range(2, p):
        x = pow(g, (p - 1) // k, p)
        if x != 1 and all(pow(x, k // q, p) != 1 for q in primes):
            return x
    raise PrimeGenerationError(f"no order-{k} residue mod {p}")  # unreachable


def row_reduce_mod(a: np.ndarray, p: int):
    """In-place reduction mod p to the reduced row echelon form; returns
    (matrix, pivot column list)."""
    m, n = a.shape
    pivots: list[int] = []
    row = 0
    for col in range(n):
        if row == m:
            break
        nonzero = a[row:, col].nonzero()[0]
        if nonzero.size == 0:
            continue
        hit = row + int(nonzero[0])
        if hit != row:
            a[[row, hit]] = a[[hit, row]]
        inv = pow(int(a[row, col]), p - 2, p)
        a[row, col:] = a[row, col:] * inv % p
        # after the swap the nonzero entries below the pivot sit where
        # they did before it
        idx = np.concatenate((a[:row, col].nonzero()[0], nonzero[1:] + row))
        if idx.size:
            rest = a[idx, col:]
            rest -= rest[:, :1] * a[row, col:]
            a[idx, col:] = rest % p
        pivots.append(col)
        row += 1
    return a, pivots


def solve_in_span_mod(d: np.ndarray, c: np.ndarray, p: int) -> np.ndarray:
    """Solve D X = C mod p for D with full column rank; raises if outside."""
    m, r = d.shape
    aug = np.concatenate([d, c], axis=1).astype(np.int64) % p
    aug, pivots = row_reduce_mod(aug, p)
    if len(pivots) < r or pivots[:r] != list(range(r)):
        raise ValueError("left block does not have full column rank")
    if len(pivots) > r:
        raise ValueError("right-hand side not in the span of the left block")
    return aug[:r, r:]


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact a @ b mod p for residues of a prime p < 2^31, of matrices or
    of stacks of them as for np.matmul.

    Unless int64 holds the inner sums, the product runs on float64 BLAS
    in chunks of k <= 2^13 inner terms: b splits into L limbs of s bits,
    b = sum_l b_l 2^(sl), L the least with L k (p - 1) (2^s - 1) < 2^53,
    and a @ b = [a 2^(s(L-1)) mod p, .., a] @ [b_(L-1); ..; b_0] (mod p)
    is one product whose partial sums are integers below 2^53, which
    float64 holds exactly in any order of addition.
    """
    if p > PRIME_UPPER:
        raise ValueError(f"modulus {p} is above {PRIME_UPPER}")
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape[-1] * (p - 1) ** 2 < 1 << 63:    # int64 holds every sum
        return a @ b % p
    out = None
    pbits = (p - 1).bit_length()
    for lo in range(0, a.shape[-1], MATMUL_CHUNK):
        part_a = a[..., lo:lo + MATMUL_CHUNK]
        part_b = b[..., lo:lo + MATMUL_CHUNK, :]
        limbs = 1
        while limbs * part_a.shape[-1] * (p - 1) * (
                (1 << -(-pbits // limbs)) - 1) >= 1 << 53:
            limbs += 1
        bits = -(-pbits // limbs)
        left = np.concatenate([part_a * pow(2, bits * l, p) % p
                               for l in reversed(range(1, limbs))]
                              + [part_a], axis=-1)
        right = np.concatenate([part_b >> (bits * l) & ((1 << bits) - 1)
                                for l in reversed(range(limbs))], axis=-2)
        acc = np.matmul(left.astype(np.float64),
                        right.astype(np.float64)).astype(np.int64)
        acc %= p
        out = acc if out is None else (out + acc) % p
    return out


def rank_exact_cyclo(arr: np.ndarray, level: int) -> int:
    """Rank over Q(zeta_level) of an (m, n, phi) array of power-basis
    coordinates (small matrices; test oracle for the exact ranks of
    nichols.hilbert_coeffs).

    Replacing each entry by its phi x phi multiplication matrix writes
    the same map Q(zeta)^n -> Q(zeta)^m over Q, in the power basis.
    Its image has Q-dimension phi times its Q(zeta)-dimension, so the
    rank over Q divided by phi is the rank over Q(zeta).  That integer
    matrix is ranked by fraction-free (Bareiss) elimination in Python
    ints: every entry is a minor of the input (Sylvester's identity),
    so each division by the previous pivot is exact.
    """
    m, n, phi = arr.shape
    a = regular_matrix(np.asarray(arr, dtype=object), level)
    rank, prev = 0, 1
    for col in range(n * phi):
        nonzero = np.flatnonzero(a[rank:, col])
        if nonzero.size == 0:
            continue
        hit = rank + int(nonzero[0])
        a[[rank, hit]] = a[[hit, rank]]
        piv = a[rank, col]
        below = a[rank + 1:]
        a[rank + 1:] = (piv * below - below[:, col, None] * a[rank]) // prev
        prev = piv
        rank += 1
        if rank == m * phi:
            break
    return rank // phi
