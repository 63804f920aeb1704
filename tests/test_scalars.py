import math
import random

import pytest

from _oracles import gamma_half
from valcalc.scalars import ONE, PI, Rat, Scalar, ZERO, rational


def random_scalar(rng, allow_zero=True):
    t = {}
    for _ in range(rng.randrange(0, 4)):
        t[rng.randrange(-3, 4)] = Rat(rng.randrange(-9, 10), rng.randrange(1, 8))
    s = Scalar(t)
    if not allow_zero and s.is_zero():
        return ONE
    return s


def test_construction_drops_zeros():
    s = Scalar({0: Rat(0), 2: Rat(3)})
    assert s.terms == {2: Rat(3)}
    assert ZERO.is_zero()
    assert not ONE.is_zero()


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(200):
        a = random_scalar(rng)
        b = random_scalar(rng)
        c = random_scalar(rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO


def test_int_coercion():
    assert ONE + 1 == rational(2)
    assert 2 * PI == Scalar.of(2, pi=1)
    assert PI - PI == 0
    assert rational(3) == 3
    assert hash(rational(3)) == hash(3)
    assert hash(rational(1, 2)) == hash(Rat(1, 2))


def test_division_exact():
    rng = random.Random(11)
    for _ in range(100):
        a = random_scalar(rng)
        b = Scalar({rng.randrange(-3, 4): Rat(rng.choice([-1, 1]) * rng.randrange(1, 10),
                                             rng.randrange(1, 8))})
        assert (a * b) / b == a
    assert (PI * PI) / PI == PI
    assert rational(1) / PI == Scalar.of(1, pi=-1)
    assert ZERO / (3 * PI) == ZERO
    # only the units c * pi^k are divisors, even where a quotient exists
    with pytest.raises(ValueError):
        (rational(2) * PI + rational(2)) / (PI + 1)


def test_division_failures():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ValueError):
        ONE / (PI + 1)
    with pytest.raises(ValueError):
        (PI ** 2 + 1) / (PI + 1)
    with pytest.raises(ValueError):
        (PI ** 2 - 1) / (PI - 1)
    with pytest.raises(ValueError):
        ZERO / (PI + 1)
    with pytest.raises(ValueError):
        (PI + 1) ** -1


def test_powers():
    assert PI ** 0 == ONE
    assert PI ** 3 == Scalar.of(1, pi=3)
    assert PI ** -2 == Scalar.of(1, pi=-2)
    assert (2 * PI) ** -1 == Scalar.of(1, 2, pi=-1)
    x = rational(1, 2) + PI
    assert x ** 2 == x * x


def test_float_value():
    assert float(PI) == pytest.approx(math.pi)
    s = Scalar.of(3, 4, pi=2) + rational(-1, 2)
    assert float(s) == pytest.approx(0.75 * math.pi ** 2 - 0.5)
    with pytest.raises(TypeError):
        Scalar({0: 0.5})


def test_format_canonical():
    assert str(rational(17, 4)) == "17/4"
    assert str(rational(-3, 4)) == "-3/4"
    assert str(Scalar.of(3, 4, pi=1)) == "3/4*pi"
    assert str(Scalar.of(1, 2, pi=-1)) == "1/2*pi^-1"
    assert str(ZERO) == "0"
    assert str(PI) == "pi"
    assert str(-PI) == "-pi"
    assert str(2 * PI ** 2) == "2*pi^2"
    assert str(rational(1) + PI + rational(-1, 3) * PI ** 2) == "1 + pi - 1/3*pi^2"


def test_rational_coefficients_stored_as_given():
    c = Rat(3, 7)
    s = Scalar({1: c, 0: 2})
    assert s.terms[1] is c
    assert s.terms[0] == 2 and type(s.terms[0]) is Rat
    with pytest.raises(TypeError):
        Scalar({0: 0.5})
    with pytest.raises(TypeError):
        Scalar({0: c, 1: 1.0})


def test_gamma_half():
    assert gamma_half(1) == (1, 1)
    assert gamma_half(2) == (1, 0)
    assert gamma_half(3) == (Rat(1, 2), 1)
    assert gamma_half(4) == (1, 0)
    assert gamma_half(6) == (2, 0)
    assert gamma_half(7) == (Rat(15, 8), 1)
    with pytest.raises(ValueError):
        gamma_half(0)
    # Gamma(m + 1/2) / sqrt(pi) = (2m)! / (4^m m!), compared cross-multiplied
    # so that the large arguments skip a gcd of the unreduced ratio
    for two_a in [*range(1, 400), 2 ** 15 + 1, 2 ** 16 + 7]:
        r, h = gamma_half(two_a)
        if two_a % 2 == 0:
            assert (r, h) == (math.factorial(two_a // 2 - 1), 0)
            continue
        m = (two_a - 1) // 2
        assert h == 1 and r.denominator == 1 << m
        assert r.numerator * 4 ** m * math.factorial(m) == r.denominator * math.factorial(2 * m)
