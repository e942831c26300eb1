"""Exact cyclotomic arithmetic: constructors, arithmetic, signs, text form."""

from fractions import Fraction

import mpmath
import pytest

from coxrack.coxeter import build_group, preset_matrix
from coxrack.cyclo import (
    CycloNumber,
    LevelError,
    NotRealError,
    _cos_enclosures,
    cos_of_pi_over,
    cyclotomic_poly,
    euler_phi,
)


def numeric(x: CycloNumber, dps: int = 50) -> complex:
    """Independent high-precision evaluation at the standard embedding."""
    with mpmath.workdps(dps):
        z = mpmath.mpc(0)
        for k, c in enumerate(x.coeffs):
            z += mpmath.mpf(c.numerator) / c.denominator * mpmath.expjpi(
                mpmath.mpf(2 * k) / x.level)
        return complex(z)


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
    assert cos_of_pi_over(2).is_zero()
    assert cos_of_pi_over(3) == Fraction(1, 2)
    assert cos_of_pi_over(1) == -1


def test_cos_pi_over_5_minimal_relation():
    # oracle: 50-digit numeric value of cos(pi/5)
    with mpmath.workdps(50):
        expected = complex(mpmath.cos(mpmath.pi / 5))
    c = cos_of_pi_over(5)
    got = numeric(c)
    assert abs(got - expected) < 1e-40
    assert abs(got.real - 0.80901699) < 1e-8
    # 2cos(pi/5) is the golden ratio: x^2 - x - 1 = 0
    u = c * 2
    assert (u * u - u - 1).is_zero()
    # lifted quintic relation behind "16x^4 - 20x^2 + 5": cos(5t) at t=pi/5
    assert (c**5 * 16 - c**3 * 20 + c * 5 + 1).is_zero()


def test_arith_examples():
    third = cos_of_pi_over(3)
    assert third + third == 1
    x = cos_of_pi_over(7) + CycloNumber.zeta(5)
    assert (x * CycloNumber.zero()).is_zero()
    u = cos_of_pi_over(5) * 2
    # golden-ratio identity, cross-checked at 50 digits
    assert u * u == u + 1
    with mpmath.workdps(50):
        lhs = complex(mpmath.mpf(4) * mpmath.cos(mpmath.pi / 5) ** 2)
        rhs = complex(2 * mpmath.cos(mpmath.pi / 5) + 1)
    assert abs(lhs - rhs) < 1e-45
    assert abs(numeric(u * u) - lhs) < 1e-40


def test_mixed_level_arithmetic():
    a = cos_of_pi_over(3)        # level 6
    b = cos_of_pi_over(4)        # level 8
    s = a + b
    with mpmath.workdps(40):
        want = complex(mpmath.cos(mpmath.pi / 3) + mpmath.cos(mpmath.pi / 4))
    assert abs(numeric(s) - want) < 1e-30
    assert s.level == 24


def test_sign_examples():
    assert CycloNumber.zero(12).sign() == 0
    assert (cos_of_pi_over(3) - 1).sign() == -1
    # oracle: 0.809... > 0.5
    assert (cos_of_pi_over(5) - Fraction(1, 2)).sign() == 1
    with pytest.raises(NotRealError):
        CycloNumber.zeta(5).sign()


def test_sign_is_multiplicative():
    values = [
        cos_of_pi_over(5) - Fraction(1, 2),
        cos_of_pi_over(7) - 1,
        CycloNumber.from_rational(Fraction(-3, 7)),
        cos_of_pi_over(4),
        CycloNumber.zero(8),
        cos_of_pi_over(12) * -3,
    ]
    for a in values:
        for b in values:
            assert (a * b).sign() == a.sign() * b.sign()


@pytest.mark.parametrize("n", list(range(1, 25)) + [60])
def test_cos_enclosures_contain_cosines(n):
    with mpmath.workdps(100):
        for k, (lo, hi) in enumerate(_cos_enclosures(n)):
            cos = mpmath.cos(2 * mpmath.pi * k / n)
            assert mpmath.mpf(lo.numerator) / lo.denominator <= cos
            assert cos <= mpmath.mpf(hi.numerator) / hi.denominator
            assert 0 <= hi - lo < Fraction(1, 2 ** 62)


SIGN_PRESETS = ["A1", "A2", "A3", "A4", "B2", "B3", "D4", "F4", "H3", "H4",
                "E6", "I2(5)", "I2(6)", "I2(7)", "I2(8)", "I2(12)"]


@pytest.mark.parametrize("name", SIGN_PRESETS)
def test_enclosure_decides_root_coordinates(name):
    # every distinct root coordinate and every difference of two of them
    g = build_group(preset_matrix(name))
    coords = list({c.coeffs: c for beta in g.pos_roots for c in beta}.values())
    values = coords + [a - b for a in coords for b in coords if a != b]
    for v in values:
        if v.is_zero():
            continue
        lo, hi = v._enclosure()
        box = v._real_interval(256)
        assert lo > 0 or hi < 0, v
        assert (lo > 0) == (box > 0) and (hi < 0) == (box < 0), v


def test_sign_within_1e_25_of_zero_falls_back_to_intervals(monkeypatch):
    cos_2pi_7 = (CycloNumber.zeta(7) + CycloNumber.zeta(7, 6)) * Fraction(1, 2)
    close = Fraction(2738920419207, 4392887279057)
    with mpmath.workdps(80):
        gap = mpmath.cos(2 * mpmath.pi / 7) - mpmath.mpf(close.numerator) \
            / close.denominator
        assert -1e-25 < gap < 0
    calls = []
    real_interval = CycloNumber._real_interval

    def spy(self, prec):
        calls.append(prec)
        return real_interval(self, prec)

    monkeypatch.setattr(CycloNumber, "_real_interval", spy)
    v = cos_2pi_7 - close
    lo, hi = v._enclosure()
    assert lo < 0 < hi
    assert v.sign() == -1 and (-v).sign() == 1
    assert calls and max(calls) > 64


def test_embed_round_trip():
    vals = [cos_of_pi_over(5), cos_of_pi_over(3), CycloNumber.zeta(6, 5),
            CycloNumber.from_rational(Fraction(7, 3), 4)]
    for v in vals:
        m = v.level * 6
        up = v.embed(m)
        assert up.level == m
        back = up.restrict(v.level)
        assert back.coeffs == v.coeffs and back.level == v.level
    with pytest.raises(LevelError):
        CycloNumber.zeta(5).restrict(1)


def test_conjugation_and_reality():
    z = CycloNumber.zeta(7)
    assert not z.is_real()
    real_part = (z + z.conjugate()) * Fraction(1, 2)
    assert real_part.is_real()
    assert (z * z.conjugate()) == 1


def test_inverse_and_division():
    vals = [cos_of_pi_over(5), CycloNumber.zeta(7) + 2,
            CycloNumber.from_rational(Fraction(-5, 3), 6)]
    for v in vals:
        assert v * v.inverse() == 1
        assert (v / v) == 1
    with pytest.raises(ZeroDivisionError):
        CycloNumber.zero(4).inverse()


def test_zeta_powers():
    z = CycloNumber.zeta(12)
    acc = CycloNumber.one(12)
    for k in range(1, 13):
        acc = acc * z
        assert acc == CycloNumber.zeta(12, k)
    assert acc == 1


def test_text_round_trip():
    vals = [
        CycloNumber.zero(8),
        cos_of_pi_over(5),
        cos_of_pi_over(7) - Fraction(22, 7),
        CycloNumber.zeta(12, 7) * Fraction(-3, 5) + 4,
    ]
    for v in vals:
        w = CycloNumber.parse(str(v))
        assert w.level == v.level and w.coeffs == v.coeffs


def test_cos_matches_embedding_to_requested_precision():
    for m in (2, 3, 4, 5, 6, 7, 9, 12):
        c = cos_of_pi_over(m)
        with mpmath.workdps(60):
            want = complex(mpmath.cos(mpmath.pi / m))
        got = numeric(c, dps=60)
        assert abs(got.imag) < 1e-50
        assert abs(got.real - want.real) < 1e-50
