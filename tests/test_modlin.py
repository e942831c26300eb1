"""Prime selection and the dense rank engines."""

import numpy as np
import pytest

from coxrack import modlin
from coxrack.cyclo import CycloNumber
from coxrack.modlin import (
    MATMUL_CHUNK,
    is_prime,
    matmul_mod,
    nullspace_mod,
    primes_one_mod,
    rank_exact_cyclo,
    root_of_unity_mod,
    row_reduce_mod,
    solve_in_span_mod,
    zeta_reduction_matrix,
)
from oracles import rank_mod


def test_is_prime_small():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                      53, 59]
    assert not is_prime(1) and not is_prime(2_147_483_647 * 3)
    assert is_prime(2_147_483_647)  # Mersenne prime 2^31 - 1


@pytest.mark.parametrize("k", [2, 6, 10, 14, 18])
def test_primes_one_mod(k):
    ps = primes_one_mod(k, count=2)
    assert len(ps) == 2 and ps[0] < ps[1]
    for p in ps:
        assert p > 1 << 30 and p % k == 1 and is_prime(p)
    # deterministic
    assert ps == primes_one_mod(k, count=2)


def test_root_of_unity_mod():
    for k in (2, 6, 10):
        (p, _) = primes_one_mod(k, count=2)
        w = root_of_unity_mod(p, k)
        assert pow(w, k, p) == 1
        for d in range(1, k):
            if k % d == 0:
                assert pow(w, d, p) != 1


def test_root_of_unity_mod_order_one(monkeypatch):
    assert root_of_unity_mod(7, 1) == 1

    # at a word-size prime, 1 comes back without a scan of the residues
    def no_scan(k):
        raise AssertionError("root_of_unity_mod scanned for k = 1")

    monkeypatch.setattr(modlin, "_factorize", no_scan)
    (p,) = primes_one_mod(1, count=1)
    assert root_of_unity_mod(p, 1) == 1


def test_rank_mod_against_rational_oracle():
    rng = np.random.default_rng(11)
    p = primes_one_mod(2, count=1)[0]
    from fractions import Fraction

    def rational_rank(a):
        rows = [[Fraction(int(v)) for v in row] for row in a]
        rank = 0
        ncols = len(rows[0])
        for col in range(ncols):
            piv = next((r for r in range(rank, len(rows))
                        if rows[r][col] != 0), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            inv = 1 / rows[rank][col]
            rows[rank] = [v * inv for v in rows[rank]]
            for r in range(len(rows)):
                if r != rank and rows[r][col] != 0:
                    f = rows[r][col]
                    rows[r] = [v - f * w for v, w in zip(rows[r], rows[rank])]
            rank += 1
        return rank

    for _ in range(20):
        m, n, inner = rng.integers(2, 7, 3)
        a = rng.integers(-4, 5, (m, inner)) @ rng.integers(-4, 5, (inner, n))
        assert rank_mod(a, p) == rational_rank(a)


def test_nullspace_mod():
    p = primes_one_mod(2, count=1)[0]
    a = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    basis = nullspace_mod(a, p)
    assert basis.shape[0] == 3 - rank_mod(a, p)
    for v in basis:
        assert not (a @ v % p).any()


def test_solve_in_span():
    p = primes_one_mod(2, count=1)[0]
    d = np.array([[1, 0], [1, 1], [0, 2]])
    x_true = np.array([[3, 1], [5, 0]])
    c = d @ x_true % p
    x = solve_in_span_mod(d, c, p)
    assert np.array_equal(x, x_true % p)
    with pytest.raises(ValueError):
        solve_in_span_mod(d, np.array([[1], [0], [0]]), p)


@pytest.mark.parametrize("k", [2, 6])
@pytest.mark.parametrize("inner", [1, MATMUL_CHUNK, MATMUL_CHUNK + 1])
def test_matmul_mod_exact(k, inner):
    rng = np.random.default_rng(inner + k)
    for p in primes_one_mod(k, count=2):
        top = np.full((3, inner), p - 1, dtype=np.int64)
        a = np.vstack([top, rng.integers(0, p, (2, inner))])
        b = np.hstack([np.full((inner, 2), p - 1, dtype=np.int64),
                       rng.integers(0, p, (inner, 2))])
        want = (a.astype(object) @ b.astype(object)) % p
        got = matmul_mod(a, b, p)
        assert got.dtype == np.int64
        assert np.array_equal(got, want.astype(np.int64))


def test_matmul_mod_empty_inner_dimension():
    p = primes_one_mod(2, count=1)[0]
    out = matmul_mod(np.zeros((2, 0), dtype=np.int64),
                     np.zeros((0, 3), dtype=np.int64), p)
    assert out.shape == (2, 3) and not out.any()


def test_row_reduce_full_rref():
    p = primes_one_mod(2, count=1)[0]
    a = np.array([[2, 4, 1], [1, 2, 0], [0, 0, 3]], dtype=np.int64)
    r, pivots = row_reduce_mod(a.copy() % p, p, full=True)
    assert pivots == [0, 2]
    for row_i, col in enumerate(pivots):
        assert r[row_i, col] == 1
        assert (r[:, col] != 0).sum() == 1


def test_rank_exact_cyclo():
    one = CycloNumber.one(10)
    z = CycloNumber.zeta(10)
    rows = [
        [one, z, z * z],
        [z, z * z, z ** 3],        # zeta * row 0
        [one, one, one],
    ]
    assert rank_exact_cyclo(rows, 10) == 2
    zero = CycloNumber.zero(10)
    assert rank_exact_cyclo([[zero, zero]], 10) == 0


def test_zeta_reduction_matrix():
    red = zeta_reduction_matrix(6)
    assert red.shape == (6, 2)
    # zeta_6^2 = zeta_6 - 1 under x^2 - x + 1
    assert list(red[2]) == [-1, 1]
    assert list(red[3]) == [-1, 0]
