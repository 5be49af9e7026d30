import copy
import math
import multiprocessing
import pickle
import random
from collections import Counter

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from abcid import primes
from abcid.anoncred import PROFILES
from abcid.primes import PrimePool, is_probable_prime, random_prime_in_interval, safe_prime

from conftest import TOY_PARAMS

E_LO, E_HI = PROFILES[1024].e_interval  # 2^596 and 2^596 + 2^120 at every profile


def test_agrees_with_sympy_small_range():
    # Covers the wheel's own primes 3..13 and its wrap at 15015.
    for n in range(2, 20000):
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


@pytest.mark.parametrize("lo, hi, allowed", [
    (2, 2, {2}),  # an odd draw never hits 2
    (24, 28, set()),
    (1024, 1056, {1031, 1033, 1039, 1049, 1051}),
    (E_LO, E_HI, {E_LO + 0x82A6C6F6724BA08329C05B09E80319}),  # as drawn before the cap
], ids=["only-2", "no-prime", "narrow", "e-interval"])
def test_prime_in_interval_terminates(lo, hi, allowed):
    if not allowed:
        with pytest.raises(ValueError, match="no prime"):
            random_prime_in_interval(lo, hi, random.Random(11))
    else:
        assert random_prime_in_interval(lo, hi, random.Random(11)) in allowed


def test_size_and_interval_preconditions():
    with pytest.raises(ValueError, match="at least 8 bits"):
        safe_prime(7, random.Random(1))
    with pytest.raises(ValueError, match="empty interval"):
        random_prime_in_interval(5, 4, random.Random(1))


def test_prime_in_interval_uniform_from_odd_lo():
    """An odd `lo` is drawn as often as every other odd value."""
    rng = random.Random(5)
    counts = Counter(random_prime_in_interval(1031, 1040, rng) for _ in range(30_000))
    assert sorted(counts) == [1031, 1033, 1039]
    assert all(9_000 < c < 11_000 for c in counts.values()), counts


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


def _record_pow(monkeypatch) -> list[int]:
    """Patches the builtin `pow` that `primes` calls to record each modulus."""
    moduli = []
    real = pow

    def recorded(base, exp, mod):
        moduli.append(mod)
        return real(base, exp, mod)

    monkeypatch.setattr(primes, "pow", recorded, raising=False)
    return moduli


def test_sampling_e_folds_every_round(monkeypatch):
    folded = 0
    real = primes._fold_pow

    def counted(a, d, n):
        nonlocal folded
        folded += 1
        return real(a, d, n)

    moduli = _record_pow(monkeypatch)
    monkeypatch.setattr(primes, "_fold_pow", counted)
    random_prime_in_interval(E_LO, E_HI, random.Random(11))
    assert folded >= 11  # the prime's own rounds, after any composites'
    assert [m for m in moduli if m.bit_length() > 81] == []


def _fold_limit(k: int) -> int:
    """Most bits c may have for `_fold_pow` to keep 2^k + c's residues in
    [0, 2^(k+1)): 2 * bits(c) + 2 <= k."""
    return (k - 2) // 2


@st.composite
def _fold_cases(draw):
    """(a, d, n): n = 2^k + c with c up to one bit past `_fold_limit(k)`."""
    k = draw(st.integers(min_value=8, max_value=2100))
    c_bits = draw(st.integers(min_value=0, max_value=_fold_limit(k) + 1))
    n = (1 << k) + (draw(st.integers(1 << c_bits >> 1, (1 << c_bits) - 1)) if c_bits else 0)
    a = draw(st.sampled_from([2, n - 2]) | st.integers(min_value=0, max_value=n - 1))
    return a, draw(st.integers(min_value=1, max_value=n)), n


@given(_fold_cases())
@example((2, E_LO - 1, E_LO))
@example((E_HI - 2, E_HI - 1, E_HI))
@settings(max_examples=150, deadline=None)
def test_fold_pow_agrees_with_pow(case):
    a, d, n = case
    assert primes._fold_pow(a, d, n) == pow(a, d, n)


@pytest.mark.parametrize("k", [primes._FOLD_MIN_BITS, 596, 597, 2048])
def test_pow_takes_each_modulus_the_fold_does_not_fit(monkeypatch, k):
    moduli = _record_pow(monkeypatch)
    at, past = (1 << k) + (1 << _fold_limit(k)) - 1, (1 << k) + (1 << _fold_limit(k)) + 1
    small = (1 << (primes._FOLD_MIN_BITS - 1)) + 1
    for n in (at, past, small):
        primes._miller_rabin_round(n, 3, n - 1, 0)
    assert moduli == [past, small]


def test_second_sieve_edges_agree_with_sympy(monkeypatch):
    e = random_prime_in_interval(E_LO, E_HI, random.Random(11))
    for n in (2003, 16381, 2003**2, 2003 * 2011, 16369 * 16381):
        _bases_tried(monkeypatch, n)
    assert _bases_tried(monkeypatch, 2003 * e) == []  # trial division rejects it
    assert random_prime_in_interval(2003, 2003, random.Random(1)) == 2003


def test_wheel_marks_exactly_the_units():
    assert list(primes._COPRIME) == [math.gcd(r, primes._WHEEL) == 1 for r in range(primes._WHEEL)]


class _Probe(Exception):
    """Stops `safe_prime` after one candidate; args[0] says whether it got
    as far as a modular exponentiation."""


def _reaches_pow(low_bits: int, bits: int) -> bool:
    class OneDraw:
        drawn = False

        def getrandbits(self, k):
            if self.drawn:
                raise _Probe(False)
            self.drawn = True
            return low_bits % (1 << k)

    def stop(*args):
        raise _Probe(True)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primes, "pow", stop, raising=False)
        try:
            safe_prime(bits, OneDraw())
        except _Probe as probe:
            return probe.args[0]
    raise AssertionError("unreachable")


_STEER = [1, 3, 5, 7, 11, 13, 17, 1999, *sympy.primerange(2000, 2100), *sympy.primerange(16000, 1 << 14)]


@given(
    st.integers(min_value=8, max_value=300),
    st.integers(min_value=0),
    st.sampled_from(_STEER),
    st.booleans(),
)
@example(bits=15, j=1856, f=16001, in_p=False)  # q = 16001 and 2q + 1 are prime
@example(bits=14, j=14, f=12347, in_p=True)  # 2q + 1 = 12347 and q are prime
@settings(max_examples=300, deadline=None)
def test_filters_reject_only_composites(bits, j, f, in_p):
    """Whatever `safe_prime` discards before its pre-check has q or 2q + 1
    composite (by sympy), so the pre-check or Miller-Rabin discarded it
    too, and the prime returned for a seed cannot change. Unless f is 1,
    the candidate is steered so that f divides q, or 2q + 1 if `in_p`."""
    top = 0b11 << (bits - 3)  # safe_prime's candidates are q = top + 2j + 1
    j %= 1 << (bits - 4)
    if f > 1:
        a, b = (4, 2 * top + 3) if in_p else (2, top + 1)  # f | a*j + b
        j -= (a * j + b) * pow(a, -1, f) % f
        j += f if j < 0 else 0
    q = top + 2 * j + 1
    assume(q.bit_length() == bits - 1)
    if not _reaches_pow(2 * j + 1, bits):
        assert not (sympy.isprime(q) and sympy.isprime(2 * q + 1)), q


def test_safe_prime_reaches_pow_less(monkeypatch):
    moduli = _record_pow(monkeypatch)
    counts = []
    for s in (1, 2, 3):
        moduli.clear()
        safe_prime(256, random.Random(s))
        counts.append(len(moduli))
    # Before the wheel and the second gcd stage: [139, 286, 619].
    assert counts == [106, 208, 424]


@given(
    st.integers(min_value=0, max_value=1 << 80),
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=3, max_value=300),
)
@example(half=0, width=200, bound=300)  # candidates 1, 3, 5, ... include the sieving primes
@settings(max_examples=150, deadline=None)
def test_window_sieve_keeps_exactly_the_candidates_without_a_small_factor(half, width, bound):
    start = 2 * half + 1
    odd_primes = list(primes._odd_primes(bound))
    assert odd_primes == list(sympy.primerange(3, bound))
    survivors = list(primes._sieve_window(start, width, odd_primes))
    assert survivors == sorted(set(survivors))
    for j in range(width):
        has_factor = any((start + 2 * j) % p == 0 for p in odd_primes)
        assert (j in survivors) != has_factor, (start, j)


def test_pool_sieves_by_the_odd_primes_below_its_bound():
    assert primes.SMALL_PRIMES == list(sympy.primerange(2, 2000))
    assert sum(1 for _ in primes._odd_primes(primes.POOL_BOUND)) == sympy.primepi(primes.POOL_BOUND) - 1
    assert primes.POOL_WINDOW <= 1 << 16  # every offset fits 2 bytes


def _rounds_per_candidate(monkeypatch) -> Counter:
    """Counts the Miller-Rabin rounds run on each candidate from now on."""
    rounds = Counter()
    real = primes._miller_rabin_round

    def counted(n, a, d, r):
        rounds[n] += 1
        return real(n, a, d, r)

    monkeypatch.setattr(primes, "_miller_rabin_round", counted)
    return rounds


def test_pooled_e_are_distinct_primes_each_confirmed_by_11_rounds(monkeypatch):
    rounds = _rounds_per_candidate(monkeypatch)
    pool, rng = PrimePool(), random.Random(30)
    first = random_prime_in_interval(E_LO, E_HI, copy.copy(rng))
    assert random_prime_in_interval(E_LO, E_HI, rng, pool) == first  # the first draw sieves nothing
    assert pool._left == ()
    pooled = [random_prime_in_interval(E_LO, E_HI, rng, pool) for _ in range(12)]
    assert len({first, *pooled}) == 13
    for e in pooled:
        assert pool._start <= e < pool._start + 2 * primes.POOL_WINDOW
        assert E_LO <= e <= E_HI and e % 2 == 1 and sympy.isprime(e)
        assert rounds[e] == 11


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))])
def test_a_copied_pool_starts_empty(clone):
    pool, rng = PrimePool(), random.Random(33)
    pool.draw(E_LO, E_HI, rng)
    pool.draw(E_LO, E_HI, rng)
    twin = clone(pool)
    assert (twin._asked, twin._left) == (False, ())
    assert len(pool._left) > 5000


def test_an_emptied_pool_takes_a_fresh_window(monkeypatch):
    monkeypatch.setattr(primes, "POOL_WINDOW", 64)  # about 6 survivors, and a prime in 1 window of 3
    pool, rng = PrimePool(), random.Random(31)
    pool.draw(E_LO, E_HI, rng)
    starts, drawn = set(), []
    for _ in range(8):
        drawn.append(pool.draw(E_LO, E_HI, rng))
        starts.add(pool._start)
    assert len(set(drawn)) == 8 and all(sympy.isprime(e) for e in drawn)
    assert len(starts) > 1
    assert all(any(s <= e < s + 128 for s in starts) for e in drawn)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_intervals_narrower_than_a_window_skip_the_pool(seed):
    pool = PrimePool()
    toy = TOY_PARAMS.e_interval
    assert toy[1] - toy[0] < primes.POOL_WINDOW
    for _ in range(3):
        assert random_prime_in_interval(*toy, random.Random(seed), pool) == random_prime_in_interval(
            *toy, random.Random(seed)
        )
    with pytest.raises(ValueError, match="no prime"):
        random_prime_in_interval(24, 28, random.Random(seed), pool)
    assert not pool._asked


def test_a_forked_child_draws_from_a_new_window():
    pool, rng = PrimePool(), random.Random(32)
    pool.draw(E_LO, E_HI, rng)
    pool.draw(E_LO, E_HI, rng)
    parent_start = pool._start
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    # Same rng state, same survivors: without the pid check the child would
    # draw exactly the e that the parent draws next.
    child = ctx.Process(target=lambda: send.send((pool.draw(E_LO, E_HI, rng), pool._start)))
    child.start()
    assert recv.poll(60)
    child_e, child_start = recv.recv()
    child.join(60)
    assert child.exitcode == 0
    assert child_start != parent_start
    assert not parent_start <= child_e < parent_start + 2 * primes.POOL_WINDOW
    assert pool.draw(E_LO, E_HI, rng) != child_e and pool._start == parent_start
