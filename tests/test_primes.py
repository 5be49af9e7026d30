import math
import random

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from abcid import primes
from abcid.primes import is_probable_prime, random_prime_in_interval, safe_prime

E_LO, E_HI = 1 << 596, (1 << 596) + (1 << 120)


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
    e = random_prime_in_interval(E_LO, E_HI, rng)
    assert E_LO <= e <= E_HI
    assert is_probable_prime(e)


def test_prime_in_interval_small():
    rng = random.Random(3)
    for _ in range(20):
        e = random_prime_in_interval(1024, 1056, rng)
        assert e in (1031, 1033, 1039, 1049, 1051)


def _dlp_log2_bound(k: int, t: int) -> float:
    """log2 of the least Damgard-Landrock-Pomerance (1993) bound on the
    chance that a random odd k-bit number passing t random Miller-Rabin
    bases is composite (Theorems 2 and 3; HAC Fact 4.48 (ii)-(iv))."""
    bounds = [math.inf]
    if 3 <= t <= k / 9 and k >= 21:
        bounds.append(1.5 * math.log2(k) + t - 0.5 * math.log2(t) + 2 * (2 - math.sqrt(t * k)))
    if k / 9 <= t <= k / 4 and k >= 21:
        bounds.append(math.log2(
            7 / 20 * k * 2.0 ** (-5 * t)
            + k**3.75 / 7 * 2.0 ** (-k / 2 - 2 * t)
            + 12 * k * 2.0 ** (-k / 4 - 3 * t)
        ))
    if t >= k / 4 and k >= 21:
        bounds.append(math.log2(k**3.75 / 7) - k / 2 - 2 * t)
    return min(bounds)


def test_round_table_meets_2_to_minus_128():
    rows = primes._ROUNDS
    assert [bits for bits, _ in rows] == sorted((bits for bits, _ in rows), reverse=True)
    assert rows[-1][0] == 82  # the fixed witnesses are exact up to 81 bits
    tops = [4096] + [bits - 1 for bits, _ in rows[:-1]]
    for (bits, t), top in zip(rows, tops):
        for k in range(bits, top + 1):
            assert _dlp_log2_bound(k, t) <= -128, (k, t)


def _bases_tried(monkeypatch, n: int) -> list[int]:
    """Miller-Rabin bases `is_probable_prime(n)` runs; asserts it accepts n."""
    calls = []
    real = primes._miller_rabin_round

    def counted(n, a, d, r):
        calls.append(a)
        return real(n, a, d, r)

    monkeypatch.setattr(primes, "_miller_rabin_round", counted)
    assert is_probable_prime(n) == sympy.isprime(n), n
    monkeypatch.undo()
    return calls


def test_confirming_a_597_bit_e_takes_11_rounds(monkeypatch):
    e = random_prime_in_interval(E_LO, E_HI, random.Random(11))
    bases = _bases_tried(monkeypatch, e)
    assert len(bases) == 11 and bases[0] == 2


def test_second_sieve_edges_agree_with_sympy(monkeypatch):
    e = random_prime_in_interval(E_LO, E_HI, random.Random(11))
    for n in (2003, 16381, 2003**2, 2003 * 2011, 16369 * 16381):
        _bases_tried(monkeypatch, n)
    assert _bases_tried(monkeypatch, 2003 * e) == []  # trial division rejects it
    assert random_prime_in_interval(2003, 2003, random.Random(1)) == 2003
