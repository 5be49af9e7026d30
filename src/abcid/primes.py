"""Number theory for the strong-RSA credential group.

Plain Python integers throughout, so everything here is reproducible on
any platform. Primality is Miller-Rabin with witnesses derived
deterministically from the candidate, which keeps seeded key generation
bit-stable. A round's exponentiation is builtin ``pow()``, except for a
modulus of at least `_FOLD_MIN_BITS` bits of the form 2^k + c with a small
c, such as the signature prime e = 2^596 + x: `_fold_pow` reduces each of
its products by shifts and one short multiply instead of a long division.

A signature prime e is drawn uniformly from its interval, or, for a key
that signs again, from a `PrimePool`: a window of the interval sieved once
for many signatures, whose survivors the same Miller-Rabin test confirms
(Brandt and Damgard, CRYPTO 1992).
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import random
import threading
from typing import Iterable, Iterator


def _odd_primes(bound: int) -> Iterator[int]:
    """The odd primes below `bound`, in order, sieved over odd numbers only."""
    flags = bytearray([1]) * (bound // 2)  # flags[i] stands for 2i + 1
    flags[0] = 0
    for i in range(1, (math.isqrt(bound) + 1) // 2):
        if flags[i]:
            p = 2 * i + 1
            flags[p * p // 2 :: p] = bytes(len(range(p * p // 2, len(flags), p)))
    return itertools.compress(range(1, bound, 2), flags)


SMALL_PRIMES = [2, *_odd_primes(2000)]
_SMALL_PRIME_SET = frozenset(SMALL_PRIMES)
_SMALL_PRIME_PRODUCT = math.prod(SMALL_PRIMES)

# _COPRIME[r] is 1 when gcd(r, _WHEEL) == 1: one table lookup rejects a
# multiple of 3..13 before any gcd. Slices, not math.gcd: import cost.
_WHEEL = 3 * 5 * 7 * 11 * 13
_COPRIME = bytearray([1]) * _WHEEL
for _p in SMALL_PRIMES[1:6]:
    _COPRIME[::_p] = bytes(len(range(0, _WHEEL, _p)))

# Deterministic for all n < 3.3e24 (Sorenson & Webster), so up to 81 bits.
_FIXED_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# (min bits, random bases): from Damgard-Landrock-Pomerance 1993, Theorems
# 2-3, a random odd candidate of any length in a row's range that passes
# this many random bases is composite with probability at most 2^-128.
_ROUNDS = ((595, 10), (505, 12), (210, 29), (82, 55))


@functools.cache  # built on first use, not at import: about 3 ms
def _second_sieve() -> int:
    return math.prod(p for p in _odd_primes(1 << 14) if p > SMALL_PRIMES[-1])


# Below about 450 bits builtin pow was as fast as `_fold_pow` (CPython 3.10-3.13).
_FOLD_MIN_BITS = 512
_FOLD_WINDOW = 5  # sliding-window width: a table of 16 odd powers


def _fold_pow(a: int, d: int, n: int) -> int:
    """pow(a, d, n) for 0 <= a < n, d >= 1 and n = 2^k + c, by sliding
    windows over a's odd powers (HAC Alg. 14.85).

    As 2^k = -c (mod n), a product t folds to (t mod 2^k) - (t >> k)*c.
    Every operand lies in [0, 2^(k+1)), so a product t is below 2^(2k+2).
    The first fold leaves it in (-4c * 2^k, 2^k), and the second in
    [0, 2^k + 4c^2), inside [0, 2^(k+1)) again when 2*bits(c) + 2 <= k
    (HAC Alg. 14.47; Solinas 1999). One % n at the end reduces the result.
    """
    k = n.bit_length() - 1
    c = n - (1 << k)
    low = (1 << k) - 1
    sq = a * a
    sq = (sq & low) - (sq >> k) * c
    sq = (sq & low) - (sq >> k) * c
    odd = [a]  # a, a^3, ..., a^(2^w - 1)
    for _ in range((1 << (_FOLD_WINDOW - 1)) - 1):
        t = odd[-1] * sq
        t = (t & low) - (t >> k) * c
        odd.append((t & low) - (t >> k) * c)
    bits = bin(d)[2:]
    j = bits.rfind("1", 0, _FOLD_WINDOW) + 1
    x = odd[int(bits[:j], 2) >> 1]
    while j < len(bits):
        i = bits.find("1", j)  # the next window starts at a 1 and ends at one
        end = bits.rfind("1", i, i + _FOLD_WINDOW) + 1 if i >= 0 else len(bits)
        for _ in range(end - j):
            t = x * x
            t = (t & low) - (t >> k) * c
            x = (t & low) - (t >> k) * c
        if i >= 0:
            t = x * odd[int(bits[i:end], 2) >> 1]
            t = (t & low) - (t >> k) * c
            x = (t & low) - (t >> k) * c
        j = end
    return x % n


def _miller_rabin_round(n: int, a: int, d: int, r: int) -> bool:
    k = n.bit_length() - 1
    if k >= _FOLD_MIN_BITS and 2 * (n - (1 << k)).bit_length() + 2 <= k:
        x = _fold_pow(a, d, n)
    else:
        x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin, deterministic per candidate: exact up to 81 bits, then
    base 2 plus `_ROUNDS` bases seeded from n. Sized for the random candidates
    this package draws itself; not a test for adversarial input, such as an
    `e` received from an issuer. A round exponentiates by `_fold_pow` when n
    has at least `_FOLD_MIN_BITS` bits and is 2^k + c with 2*bits(c) + 2 <= k,
    as every candidate e is, and by builtin pow otherwise, as for safe-prime
    candidates; the verdict is the same either way."""
    if n < 2 or (n > 13 and not _COPRIME[n % _WHEEL]) or not _survives_sieve(n):
        return False
    if n <= SMALL_PRIMES[-1]:  # the filter alone is exact below 2000
        return True
    if math.gcd(n, _second_sieve()) not in (1, n):
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if n.bit_length() <= 81:
        return all(_miller_rabin_round(n, a, d, r) for a in _FIXED_WITNESSES)
    if not _miller_rabin_round(n, 2, d, r):
        return False
    seeded = random.Random(n)
    t = next(t for bits, t in _ROUNDS if n.bit_length() >= bits)
    return all(_miller_rabin_round(n, seeded.randrange(2, n - 1), d, r) for _ in range(t))


def _survives_sieve(n: int) -> bool:
    """False when a small prime other than n itself divides n."""
    return n in _SMALL_PRIME_SET or math.gcd(n, _SMALL_PRIME_PRODUCT) == 1


def safe_prime(bits: int, rng: random.Random) -> int:
    """Random safe prime p = 2p' + 1 with exactly `bits` bits.

    p' odd forces p = 3 (mod 4), which the scheme relies on. A candidate
    is discarded when a prime below 2^14 divides p or p' (the wheel, then
    the two gcd stages) before any modular exponentiation. Each stage only
    rejects what the pre-check or Miller-Rabin would, so the prime returned
    for a seed does not depend on them.
    """
    if bits < 8:
        raise ValueError("safe prime size must be at least 8 bits")
    while True:
        # Top two bits forced so products of two such primes keep full size.
        q = rng.getrandbits(bits - 3) | (0b11 << (bits - 3)) | 1
        r = q % _WHEEL
        if not (_COPRIME[r] and _COPRIME[(2 * r + 1) % _WHEEL]):
            continue
        p = 2 * q + 1
        if not (_survives_sieve(q) and _survives_sieve(p)):
            continue
        second = _second_sieve()
        if math.gcd(q, second) not in (1, q) or math.gcd(p, second) not in (1, p):
            continue
        # Cheap pre-check: 2^q mod p in {1, p-1} is implied for safe p.
        if pow(2, q, p) not in (1, p - 1):
            continue
        if is_probable_prime(q) and is_probable_prime(p):
            return p


def random_prime_in_interval(lo: int, hi: int, rng: random.Random, pool: PrimePool | None = None) -> int:
    """Uniformly sampled odd prime in [lo, hi]. After 64 draws per bit of
    `hi` find none (a chance below 2^-260 where primes are as dense as near
    hi), the least prime in [lo, hi]; ValueError if there is none.

    With a `pool`, from its second draw on and for an interval at least two
    windows wide, a prime from the pool's window instead: one the pool has
    not handed out before, tested by the same `is_probable_prime`. Narrower
    intervals, such as those of toy parameters, always take the draws above.
    """
    if hi < lo:
        raise ValueError("empty interval")
    if pool is not None and hi - lo >= 2 * POOL_WINDOW:
        e = pool.draw(lo, hi, rng)
        if e is not None:
            return e
    for _ in range(64 * hi.bit_length()):
        # From an even start every odd value in [lo, hi] has two draws,
        # itself and the even number below it, so an odd lo is not halved.
        e = rng.randrange(lo & ~1, hi + 1) | 1
        if e <= hi and is_probable_prime(e):
            return e
    e = next((n for n in range(lo, hi + 1) if is_probable_prime(n)), None)
    if e is None:
        raise ValueError(f"no prime in [{lo}, {hi}]")
    return e


# A pool's window: POOL_WINDOW odd candidates, sieved by every odd prime below
# POOL_BOUND. About 9.0% survive (2e^-γ / ln POOL_BOUND), so a window near 2^596
# holds about 5,900 survivors and 317 primes: a draw tests about 19 per prime.
POOL_WINDOW = 1 << 16  # offsets fit 2 bytes
POOL_BOUND = 1 << 18

# One lock for every pool; a forked child takes a new one, as the copy it
# inherits may be held by a thread that did not follow it into the child.
_pool_lock = threading.Lock()


def _new_pool_lock() -> None:
    global _pool_lock
    _pool_lock = threading.Lock()


os.register_at_fork(after_in_child=_new_pool_lock)


def _sieve_window(start: int, width: int, primes: Iterable[int]) -> memoryview:
    """Offsets j in [0, width) of the odd candidates start + 2j that no
    prime in `primes` (odd primes, start odd) divides, ascending, as
    2-byte integers: width <= 2^16. A candidate equal to one of `primes`
    is removed like its multiples. A memoryview, not array("H"): importing
    `array` alone raised a 1024-bit gate process's peak RSS by 0.1-0.3 MB."""
    flags = bytearray([1]) * width
    zeros = bytes((width - 1) // 3 + 1)  # the most that one p >= 3 clears
    for p in primes:
        j = (p - start % p) * ((p + 1) >> 1) % p  # start + 2j = 0 (mod p)
        if j < width:
            flags[j::p] = zeros[: (width - 1 - j) // p + 1]
    left = memoryview(bytearray(2 * flags.count(1))).cast("H")
    for k, j in enumerate(itertools.compress(range(width), flags)):
        left[k] = j
    return left


class PrimePool:
    """Distinct odd primes from one interval, for an owner that asks for many.

    The pool keeps one window: `POOL_WINDOW` odd candidates at a uniformly
    random odd offset inside [lo, hi], sieved once by every odd prime below
    `POOL_BOUND`. A draw removes a uniformly random untried survivor under a
    lock and returns it only if `is_probable_prime` accepts it, so the pool
    never hands out one candidate twice. It takes a fresh window when it has
    none left, when asked for another interval, and in a process other than
    the one that sieved it, so a forked child never repeats its parent's
    candidates. Two windows overlap with probability below 2^-100 over an
    interval as wide as e's. Its first draw returns None and sieves nothing,
    so an owner that asks once, like a key that signs once, pays nothing.
    """

    def __init__(self) -> None:
        self._asked = False
        self._built_for = None  # (pid, lo, hi) of the window
        self._start = 0  # the window's first candidate
        self._left = ()  # untried survivors, each j standing for start + 2j

    def __reduce__(self):
        """A copy, deep copy or unpickled pool starts empty, so two pools
        never hold the same survivors."""
        return PrimePool, ()

    def draw(self, lo: int, hi: int, rng: random.Random) -> int | None:
        """A prime in [lo, hi] that this pool has not handed out, or None
        on the pool's first draw. The interval must hold a window."""
        while True:
            with _pool_lock:
                if not self._asked:
                    self._asked = True
                    return None
                if self._built_for != (os.getpid(), lo, hi) or not self._left:
                    self._fill(lo, hi, rng)
                left = self._left
                i = rng.randrange(len(left))
                e = self._start + 2 * left[i]
                left[i] = left[-1]
                self._left = left[:-1]
            if is_probable_prime(e):
                return e

    def _fill(self, lo: int, hi: int, rng: random.Random) -> None:
        first = lo | 1
        starts = (hi - 2 * (POOL_WINDOW - 1) - first) // 2 + 1  # odd starts whose window ends by hi
        self._start = first + 2 * rng.randrange(starts)
        self._left = _sieve_window(self._start, POOL_WINDOW, _odd_primes(POOL_BOUND))
        self._built_for = (os.getpid(), lo, hi)
