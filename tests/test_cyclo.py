"""Exact arithmetic in Z[zeta_N]: reduction, products, conjugates, signs."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from coxrack.coxeter import build_group, preset_matrix
from coxrack.cyclo import (
    NotRealError,
    _cos_enclosures,
    _enclosure,
    cyclotomic_poly,
    euler_phi,
    galois,
    mul,
    reduction_matrix,
    regular_matrix,
    sign,
)
from coxrack import cyclo
from oracles import (
    cos_enclosures_by_fractions,
    cos_enclosures_exact,
    galois_by_scatter,
    regular_matrix_by_mul,
)


def numeric(a, n: int, dps: int = 50) -> complex:
    """Independent high-precision evaluation at zeta = e^(2 pi i / n)."""
    with mpmath.workdps(dps):
        z = mpmath.mpc(0)
        for k, c in enumerate(a):
            z += int(c) * mpmath.expjpi(mpmath.mpf(2 * k) / n)
        return complex(z)


def zeta(n: int, power: int = 1) -> np.ndarray:
    return np.array(reduction_matrix(n)[power % n])


def rational(q: int, n: int) -> np.ndarray:
    return q * zeta(n, 0)


def two_cos_pi_over(m: int, n: int) -> np.ndarray:
    """2 cos(pi/m) = zeta_n^(n/2m) + zeta_n^(-n/2m), for 2m dividing n."""
    e = n // (2 * m)
    return zeta(n, e) + zeta(n, -e)


def test_euler_phi_small():
    assert [euler_phi(n) for n in range(1, 13)] == \
        [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cyclotomic_polys():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    # product over divisors reassembles x^n - 1
    for n in (6, 10, 12, 30):
        prod = [Fraction(1)]
        for d in range(1, n + 1):
            if n % d == 0:
                phi_d = cyclotomic_poly(d)
                new = [Fraction(0)] * (len(prod) + len(phi_d) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi_d):
                        new[i + j] += a * b
                prod = new
        expect = [Fraction(0)] * (n + 1)
        expect[0], expect[n] = Fraction(-1), Fraction(1)
        assert prod == expect


def test_cos_trivial_values():
    # 2 cos(pi/m) for m = 1, 2, 3 is rational: -2, 0, 1
    assert list(two_cos_pi_over(1, 6)) == [-2, 0]
    assert not two_cos_pi_over(2, 4).any()
    assert list(two_cos_pi_over(3, 6)) == [1, 0]


def test_cos_pi_over_5_minimal_relation():
    # oracle: 50-digit numeric value of cos(pi/5)
    with mpmath.workdps(50):
        expected = complex(2 * mpmath.cos(mpmath.pi / 5))
    y = two_cos_pi_over(5, 10)
    got = numeric(y, 10)
    assert abs(got - expected) < 1e-40
    assert abs(got.real - 1.61803398) < 1e-8
    # 2cos(pi/5) is the golden ratio: y^2 - y - 1 = 0
    assert not (mul(y, y, 10) - y - rational(1, 10)).any()
    # cos(5t) = -1 at t = pi/5: y^5 - 5y^3 + 5y = 2 cos(5t) = -2
    y2 = mul(y, y, 10)
    y3 = mul(y2, y, 10)
    y5 = mul(y3, y2, 10)
    assert not (y5 - 5 * y3 + 5 * y + rational(2, 10)).any()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 30, 60])
def test_reduction_and_product_match_evaluation(n):
    # every row of the reduction matrix, and products of random vectors,
    # against mpmath at zeta = e^(2 pi i / n)
    red = reduction_matrix(n)
    assert red.shape == (n, euler_phi(n)) and red.dtype == np.int64
    with mpmath.workdps(30):
        for e in range(n):
            want = complex(mpmath.expjpi(mpmath.mpf(2 * e) / n))
            assert abs(numeric(red[e], n) - want) < 1e-20
    rng = np.random.default_rng(n)
    a = rng.integers(-9, 10, (4, euler_phi(n)))
    b = rng.integers(-9, 10, (4, euler_phi(n)))
    prod = mul(a, b, n)
    for x, y, xy in zip(a, b, prod):
        # complex doubles: a wrong coefficient would be off by about 1
        assert abs(numeric(xy, n) - numeric(x, n) * numeric(y, n)) < 1e-9
    # object arrays of Python ints give the same result
    assert mul(a.astype(object), b, n).tolist() == prod.tolist()


def test_arith_examples():
    half = two_cos_pi_over(3, 6)           # 2 cos(pi/3) = 1
    assert list(half + half) == [2, 0]
    x = two_cos_pi_over(7, 14) + zeta(14, 2)
    assert not mul(x, 0 * x, 14).any()
    u = two_cos_pi_over(5, 10)
    # golden-ratio identity, cross-checked at 50 digits
    assert np.array_equal(mul(u, u, 10), u + rational(1, 10))
    with mpmath.workdps(50):
        lhs = complex(mpmath.mpf(4) * mpmath.cos(mpmath.pi / 5) ** 2)
    assert abs(numeric(mul(u, u, 10), 10) - lhs) < 1e-40


def test_sign_examples():
    assert sign(np.zeros(4, dtype=np.int64), 12) == 0
    assert sign(two_cos_pi_over(3, 6) - rational(2, 6), 6) == -1
    # oracle: 1.618... > 1
    assert sign(two_cos_pi_over(5, 10) - rational(1, 10), 10) == 1
    with pytest.raises(NotRealError):
        sign(zeta(5), 5)


def test_sign_is_multiplicative():
    n = 840  # hosts 2 cos(pi/m) for m = 4, 5, 7, 12
    values = [
        2 * two_cos_pi_over(5, n) - rational(1, n),
        two_cos_pi_over(7, n) - rational(2, n),
        rational(-3, n),
        two_cos_pi_over(4, n),
        rational(0, n),
        -3 * two_cos_pi_over(12, n),
    ]
    for a in values:
        for b in values:
            assert sign(mul(a, b, n), n) == sign(a, n) * sign(b, n)


@pytest.mark.parametrize("n", list(range(1, 25)) + [60])
def test_cos_enclosures_contain_cosines(n):
    # 64 bits, and the refined widths that take pi from Machin's formula
    with mpmath.workdps(100):
        for bits in (64, 128, 256):
            for k, (lo, hi) in enumerate(_cos_enclosures(n, bits)):
                # numerators over 2^bits
                assert type(lo) is type(hi) is int
                cos = mpmath.cos(2 * mpmath.pi * k / n) * 2 ** bits
                assert mpmath.mpf(lo) <= cos <= mpmath.mpf(hi)
                assert 0 <= hi - lo < 4


SIGN_PRESETS = ["A1", "A2", "A3", "A4", "B2", "B3", "D4", "F4", "H3", "H4",
                "E6", "I2(5)", "I2(6)", "I2(7)", "I2(8)", "I2(12)"]


def test_cos_enclosures_match_fraction_formula():
    # the same bounds as the Fraction arithmetic they replace, so every
    # sign is decided as before: at each level below 121 and each level
    # of a preset the tests or the benchmark build
    names = SIGN_PRESETS + ["D5", "E7", "E8", "I2(4)", "I2(129)"]
    levels = set(range(1, 121)) | {preset_matrix(m).global_level
                                   for m in names}
    for n in sorted(levels):
        assert _cos_enclosures(n) == cos_enclosures_by_fractions(n), n


ALL_LEVELS = tuple(range(1, 61))


@pytest.mark.parametrize("bits,levels", [
    (64, ALL_LEVELS), (128, ALL_LEVELS), (256, (7, 23, 60)), (1024, (23,)),
    pytest.param(256, ALL_LEVELS, marks=pytest.mark.slow),
    pytest.param(1024, ALL_LEVELS, marks=pytest.mark.slow),
], ids=["64", "128", "256-some", "1024-some", "256-all", "1024-all"])
def test_fixed_point_enclosures_hold_the_exact_sums(bits, levels):
    # the exact-fraction sum's enclosure at 64 more bits, rescaled, lies
    # inside the fixed-point one: its counted rounding bound holds
    for n in levels:
        exact = cos_enclosures_exact(n, bits + 64)
        for (lo, hi), (elo, ehi) in zip(_cos_enclosures(n, bits), exact):
            assert lo << 64 <= elo <= ehi <= hi << 64, (n, bits)


@pytest.mark.parametrize("name", SIGN_PRESETS)
def test_enclosure_decides_root_coordinates(name):
    # every distinct root coordinate and every difference of two of them
    g = build_group(preset_matrix(name))
    coords = np.unique(g.pos_roots.reshape(-1, g.pos_roots.shape[-1]), axis=0)
    values = list(coords) + [a - b for a in coords for b in coords
                             if not np.array_equal(a, b)]
    for v in values:
        if not v.any():
            continue
        lo, hi = _enclosure(v, g.level)
        assert lo > 0 or hi < 0, v
        with mpmath.workdps(80):
            value = sum(int(c) * mpmath.cos(2 * mpmath.pi * k / g.level)
                        for k, c in enumerate(v))
        assert (lo > 0) == (value > 0), v


def test_sign_within_1e_25_of_zero_falls_back_to_intervals(monkeypatch):
    num, den = 2738920419207, 4392887279057
    with mpmath.workdps(80):
        gap = mpmath.cos(2 * mpmath.pi / 7) - mpmath.mpf(num) / den
        assert -1e-25 < gap < 0
    calls = []
    cos_enclosures = cyclo._cos_enclosures

    def spy(n, bits=64):
        calls.append(bits)
        return cos_enclosures(n, bits)

    monkeypatch.setattr(cyclo, "_cos_enclosures", spy)
    # den (zeta_7 + zeta_7^6) - 2 num = 2 den (cos(2 pi / 7) - num / den)
    v = den * (zeta(7) + zeta(7, 6)) - rational(2 * num, 7)
    lo, hi = _enclosure(v, 7)
    assert lo < 0 < hi
    assert sign(v, 7) == -1 and sign(-v, 7) == 1
    assert calls and max(calls) > 64


def test_conjugation_and_reality():
    z = zeta(7)
    zbar = galois(z, 7, -1)
    assert np.array_equal(zbar, zeta(7, 6))
    with pytest.raises(NotRealError):
        sign(z, 7)
    assert sign(z + zbar, 7) == 1            # 2 cos(2 pi / 7) > 0
    assert np.array_equal(mul(z, zbar, 7), rational(1, 7))
    # the product of all conjugates is the norm, a rational integer
    y = zeta(7) + rational(2, 7)
    norm = y
    for j in range(2, 7):
        norm = mul(norm, galois(y, 7, j), 7)
    assert not norm[1:].any() and norm[0] == 43  # Phi_7(-2) = 43


def test_galois_gather_matches_scatter():
    # the phi(n) gathered rows of reduction_matrix give what the n-wide
    # scatter and the n x phi product gave: on every level 1-60, for six
    # units each, -1 first, on int64 and on Python-int object arrays
    rng = np.random.default_rng(20241020)
    for n in range(1, 61):
        units = [j for j in range(-1, 3 * n) if math.gcd(j, n) == 1][:6]
        a = rng.integers(-50, 50, size=(3, euler_phi(n)))
        for j in units:
            want = galois_by_scatter(a, n, j)
            assert np.array_equal(galois(a, n, j), want), (n, j)
            big = a.astype(object) * 10 ** 20
            assert np.array_equal(galois(big, n, j), want.astype(object)
                                  * 10 ** 20), (n, j)


def test_regular_matrix_shift_matches_mul():
    # the companion shift gives the matrices the products by each basis
    # vector gave: on every level 1-60, on int64 and on object arrays of
    # Python ints past int64
    rng = np.random.default_rng(20261020)
    for n in range(1, 61):
        a = rng.integers(-50, 50, size=(2, 3, euler_phi(n)))
        want = regular_matrix_by_mul(a, n)
        got = regular_matrix(a, n)
        assert got.dtype == np.int64 and np.array_equal(got, want), n
        big = a.astype(object) * 10 ** 20
        got = regular_matrix(big, n)
        assert got.dtype == object, n
        assert got.tolist() == regular_matrix_by_mul(big, n).tolist(), n


def test_zeta_powers():
    z = zeta(12)
    acc = rational(1, 12)
    for k in range(1, 13):
        acc = mul(acc, z, 12)
        assert np.array_equal(acc, zeta(12, k))
    assert np.array_equal(acc, rational(1, 12))


def test_cos_matches_embedding_to_requested_precision():
    # the Coxeter form of I2(m) holds -2 cos(pi/m) at level 2m
    for m in (2, 3, 4, 5, 6, 7, 9, 12):
        b = preset_matrix(f"I2({m})").gram()
        assert b.shape == (2, 2, euler_phi(2 * m))
        with mpmath.workdps(60):
            want = complex(-2 * mpmath.cos(mpmath.pi / m))
        got = numeric(b[0, 1], 2 * m, dps=60)
        assert abs(got.imag) < 1e-50
        assert abs(got.real - want.real) < 1e-50
        assert np.array_equal(b[0, 0], rational(2, 2 * m))
