"""Seeded 512-bit issuance and presentation outputs, pinned by one hash.

Uses only the public API, so the same file runs against any revision.
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

from conftest import make_claims, metadata

CTX = "library|audio|song1|read"

# Two 256-bit safe primes, so that the golden key below does not depend on
# how the prime search walks its candidates.
GOLDEN_P = 97780798206516696165200836525154805657215297726328121266478335946734339086327
GOLDEN_Q = 89350475309887533445599869384550063540115056740090470884927006644745426614099
# SHA-256 over the repr of the seeded outputs below. Optimisations of the
# arithmetic must reproduce them bit for bit; only a change to the scheme
# itself may change this value.
GOLDEN_SHA256 = "ffafb57bc9af83e1b529ea0f00cae35ec9c4879117aa1bf0bcdc3372c23fc1aa"


def test_seeded_outputs_match_golden_hash():
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
    assert sha256(repr(outputs).encode()).hexdigest() == GOLDEN_SHA256
