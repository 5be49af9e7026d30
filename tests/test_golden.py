"""Seeded outputs pinned by hashes: 512-bit issuance and presentation on
fixed primes, the seeded safe-prime search, and the 1024-bit profile's
sampling of the signature prime e.

Uses only the public API, so the same file runs against any revision that
has `PrimePool`.
"""

import random
from hashlib import sha256

from abcid.anoncred import (
    PROFILES,
    begin_issuance,
    complete_credential,
    holder_keygen,
    issue,
    present,
    setup_issuer_from_primes,
)
from abcid.gate import reference_fixture
from abcid.primes import PrimePool, is_probable_prime, random_prime_in_interval, safe_prime

from conftest import make_claims, metadata

CTX = "library|audio|song1|read"

# Two 256-bit safe primes, so that the golden key below does not depend on
# how the prime search walks its candidates.
GOLDEN_P = 97780798206516696165200836525154805657215297726328121266478335946734339086327
GOLDEN_Q = 89350475309887533445599869384550063540115056740090470884927006644745426614099
# SHA-256 over the repr of the seeded outputs below. Optimisations of the
# arithmetic must reproduce them bit for bit; only a change to the scheme
# itself, or to the shape of its outputs, may change this value. The key
# signs 3 times, so its 2nd and 3rd e come from its prime pool.
GOLDEN_SHA256 = "973f5aad11e5e7f49f426eabe2a4ec07c2cd87c15c6dd234a6bffe85c56bce5b"
# The same outputs with every e drawn without a pool, as before pools
# existed: the pools changed nothing but the e they draw.
GOLDEN_UNPOOLED_SHA256 = "dbc6ba56c8a2fab8bf723a86c42deb3d2d35fa4a0fa42235b3d40db64c2ee352"


def _golden_outputs() -> list:
    pk, sk = setup_issuer_from_primes(
        3, GOLDEN_P, GOLDEN_Q, PROFILES[512], random.Random(4040), "golden"
    )
    rng = random.Random(4041)
    outputs = [pk, pk.digest()]
    for holder in range(3):
        hs = holder_keygen(rng)
        claims = make_claims((f"g{holder}a", f"g{holder}b", f"g{holder}c"), "golden")
        nonce = rng.getrandbits(128).to_bytes(16, "big")
        req, state = begin_issuance(pk, hs, nonce, rng)
        pre = issue(sk, pk, req, claims, metadata("golden", f"g{holder}"), rng)
        cred = complete_credential(pre, state, hs)
        outputs += [hs, req, state, pre, cred]
        for disclose in ((), (2,), (1, 3)):
            outputs.append(present(pk, cred, hs, disclose, nonce, CTX, rng))
    return outputs


def test_seeded_outputs_match_golden_hash():
    assert sha256(repr(_golden_outputs()).encode()).hexdigest() == GOLDEN_SHA256


def test_seeded_outputs_without_pools_match_unpooled_hash(monkeypatch):
    monkeypatch.setattr(PrimePool, "draw", lambda self, lo, hi, rng: None)
    assert sha256(repr(_golden_outputs()).encode()).hexdigest() == GOLDEN_UNPOOLED_SHA256


# SHA-256 over the repr of seeded safe primes and the key digests of the
# 512-bit reference fixture. Filters in front of the prime search may only
# skip candidates it would reject anyway; only a change to how candidates
# are drawn may change this value.
KEY_SEARCH_SHA256 = "c6ae0adc4026710c38a70e89a7061dbe1db1cb5c03c1742d65aa11a2adf78d23"


def test_seeded_key_search_matches_golden_hash():
    outputs = [safe_prime(256, random.Random(s)) for s in (1, 2, 3)]
    outputs.append(safe_prime(512, random.Random(20260101)))
    fx = reference_fixture(seed=20260101, l_n=512)
    outputs += [fx.public_key(issuer).digest() for issuer in sorted(fx.issuer_keys)]
    assert sha256(repr(outputs).encode()).hexdigest() == KEY_SEARCH_SHA256


# SHA-256 over the repr of seeded signature primes e at the 1024-bit profile
# and of the verdicts on 2,000 seeded odd candidates from e's interval. A
# faster primality test must draw and test the same candidates with the same
# witnesses; only a change to how e is drawn or confirmed may change it.
E_SAMPLING_SHA256 = "3c33dab143a5d1d48ce39a274a7a8ce63928f8fdbde5d641c98bd440b9362930"


def test_seeded_e_sampling_matches_golden_hash():
    lo, hi = PROFILES[1024].e_interval
    outputs = [random_prime_in_interval(lo, hi, random.Random(s)) for s in range(1, 33)]
    rng = random.Random(596)
    outputs.append([is_probable_prime(rng.randrange(lo, hi) | 1) for _ in range(2000)])
    assert sha256(repr(outputs).encode()).hexdigest() == E_SAMPLING_SHA256
