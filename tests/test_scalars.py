import random
from fractions import Fraction

import pytest

from freeaut import DomainError, ContextError, FpElement, PrimeField, QQ, field_from_name
from freeaut.scalars import is_prime


def test_is_prime_small_cases():
    primes = {2, 3, 5, 7, 11, 13, 97, 7919}
    for n in range(-2, 100):
        assert is_prime(n) == (n in primes or (n > 1 and all(n % d for d in range(2, n))))
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 - 2)


def test_prime_field_rejects_composites():
    with pytest.raises(DomainError):
        PrimeField(1)
    with pytest.raises(DomainError):
        PrimeField(91)
    PrimeField(2)
    PrimeField(101)


PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981


def test_is_prime_strong_pseudoprimes():
    # psi_12 is a strong pseudoprime to every prime base up to 37; base 41
    # exposes it.  psi_13 fools all bases up to 41, so is_prime refuses to
    # answer from there on rather than guess.
    assert 399165290221 * 798330580441 == PSI_12
    assert not is_prime(PSI_12)
    with pytest.raises(DomainError):
        PrimeField(PSI_12)
    assert not is_prime(PSI_13 - 1)
    for n in (PSI_13, PSI_13 + 2, 2**89 - 1):
        with pytest.raises(DomainError):
            is_prime(n)
    with pytest.raises(DomainError):
        field_from_name(f"fp:{PSI_13}")


def test_fp_arithmetic_basics():
    f7 = PrimeField(7)
    a, b = f7(3), f7(5)
    assert a + b == f7(1)
    assert a - b == f7(5)
    assert a * b == f7(1)
    assert a / b == a * b.inverse()
    assert -a == f7(4)
    assert a ** 3 == f7(6)
    assert a ** -1 == a.inverse()
    assert bool(f7(0)) is False and bool(a) is True
    assert a == 3 and a == 10
    assert 1 + a == f7(4) and 1 - a == f7(5) and 2 * a == f7(6) and 1 / a == a.inverse()


def test_fp_modulus_mix_rejected():
    with pytest.raises(ContextError):
        PrimeField(7)(1) + PrimeField(11)(1)


def test_field_axioms_random_samples():
    rng = random.Random(7)
    for field in (QQ, PrimeField(7), PrimeField(2)):
        one = field.one
        for _ in range(500):
            if field is QQ:
                a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            else:
                p = field.characteristic
                a, b, c = (field(rng.randrange(p)) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            if a:
                assert a * (one / a) == one


def test_fraction_coercion_in_prime_field():
    f7 = PrimeField(7)
    assert f7(Fraction(1, 2)) == f7(4)
    assert f7(10) == f7(3)
    assert f7(f7(3)) == f7(3)
    with pytest.raises(DomainError):
        f7(Fraction(1, 7))
    with pytest.raises(ContextError):
        f7(PrimeField(11)(3))


def test_prime_field_sqrt():
    for p in (3, 7, 13, 17, 101, 97):
        fp = PrimeField(p)
        squares = {(fp(v) * fp(v)).value for v in range(p)}
        for v in range(p):
            r = fp.sqrt(fp(v))
            if v in squares:
                assert r is not None and r * r == fp(v)
            else:
                assert r is None
    f2 = PrimeField(2)
    assert f2.sqrt(f2(1)) == f2(1)
    assert f2.sqrt(f2(0)) == f2(0)


def test_rational_sqrt():
    assert QQ.sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert QQ.sqrt(Fraction(0)) == 0
    assert QQ.sqrt(Fraction(2)) is None
    assert QQ.sqrt(Fraction(-1)) is None


def test_field_from_name():
    assert field_from_name("q") is QQ
    assert field_from_name("fp:7") == PrimeField(7)
    with pytest.raises(DomainError):
        field_from_name("fp:6")
    with pytest.raises(DomainError):
        field_from_name("r")


def test_field_name_and_characteristic():
    assert QQ.name == "q" and QQ.characteristic == 0
    f5 = PrimeField(5)
    assert f5.name == "fp:5" and f5.characteristic == 5
    assert str(f5(9)) == "4"
    assert repr(FpElement(3, 7)) == "FpElement(3, 7)"
