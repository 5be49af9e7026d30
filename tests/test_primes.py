import random

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from abcid.primes import is_probable_prime, random_prime_in_interval, safe_prime


def test_agrees_with_sympy_small_range():
    for n in range(2, 3000):
        assert is_probable_prime(n) == sympy.isprime(n), n


@given(st.integers(min_value=2, max_value=1 << 64))
@settings(max_examples=200)
def test_agrees_with_sympy_random(n):
    assert is_probable_prime(n) == sympy.isprime(n)


def test_safe_prime_shape():
    rng = random.Random(5)
    p = safe_prime(128, rng)
    assert p.bit_length() == 128
    assert p % 4 == 3
    assert sympy.isprime(p) and sympy.isprime((p - 1) // 2)


def test_safe_prime_deterministic_under_seed():
    assert safe_prime(96, random.Random(9)) == safe_prime(96, random.Random(9))


def test_prime_in_interval():
    rng = random.Random(11)
    lo, hi = 1 << 596, (1 << 596) + (1 << 120)
    e = random_prime_in_interval(lo, hi, rng)
    assert lo <= e <= hi
    assert is_probable_prime(e)


def test_prime_in_interval_small():
    rng = random.Random(3)
    for _ in range(20):
        e = random_prime_in_interval(1024, 1056, rng)
        assert e in (1031, 1033, 1039, 1049, 1051)

