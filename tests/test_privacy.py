"""Privacy harness: the issuer, who may share notes with a verifier, is the
adversary.

Each case is one issuer strategy. The issuer gives two holders the same
claims under the session 512-bit key, and each holder makes one show with
the same disclosure, nonce and context. Every byte a verifier or a log sees
outside `a_prime` and `proof` must then be the same for both holders, or the
issuer could name the holder of a show. Nor may a distinguisher that holds
the issuer's secret key and the issuance transcripts name the holder of a
show more often than chance allows. A case for a known hole carries a
strict xfail that names its ROADMAP item; the fix removes the mark.
"""

import math
import random

import pytest

from abcid import wire
from abcid.anoncred import (
    AbcError,
    begin_issuance,
    complete_credential,
    encode_attribute,
    holder_keygen,
    issue,
    present,
    verify_presentation,
)
from abcid.model import replace

from conftest import make_claims, metadata

NONCE = b"\x05" * 16
CTX = "library|audio|song1|read"
HOLDERS = (1, 2)


def _leaves(doc, path=()):
    """(path, value) for every leaf of a presentation document, which nests
    objects only."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, (*path, key))
    else:
        yield path, doc


def _show(issuer512, holder: int, schema_id: str) -> dict:
    """The JSON of one verified show by `holder`, disclosing claims 1 and 2 of 3."""
    pk, sk = issuer512
    rng = random.Random(holder)
    hs = holder_keygen(rng)
    req, state = begin_issuance(pk, hs, NONCE, rng)
    claims = make_claims(("member", "over_18", "reader"), pk.issuer_id, schema_id=schema_id)
    cred = complete_credential(issue(sk, pk, req, claims, metadata(pk.issuer_id, "c_same"), rng), state, hs)
    pres = present(pk, cred, hs, {1, 2}, NONCE, CTX, rng)
    verify_presentation(pk, pres, NONCE, CTX)
    return wire.presentation_to_json(pres)


# Each issuer strategy is the claim schema id it writes for holder h.
@pytest.mark.parametrize("schema_id_of", [
    pytest.param(lambda h: "test_v1", id="honest"),
    pytest.param(lambda h: f"h{h:04d}", id="per_holder_schema_id"),
])
def test_two_holders_shows_agree_outside_a_prime_and_proof(issuer512, schema_id_of):
    seen = [
        {path: value for path, value in _leaves(_show(issuer512, h, schema_id_of(h)))
         if path[0] not in ("a_prime", "proof")}
        for h in HOLDERS
    ]
    assert seen[0] == seen[1]


TRIALS = 12
REQUESTS_PER_TRIAL = 4
# P(at least 10 of 12 right) = 79/4096, about 1.9%, for a coin-flipping guesser.
MAX_RIGHT = 9


def _tag_r0(pk):
    """The tagged key: R_0 -> n - R_0. Every base stays in the group, so the
    key passes its own checks, yet R_0 leaves QR_n."""
    return replace(pk, R=(pk.n - pk.R[0], *pk.R[1:]))


def _symbol(x: int, p: int) -> int:
    """Legendre symbol of x mod p by Euler's criterion: 1 or p - 1."""
    return pow(x, (p - 1) // 2, p)


def _issue_lambda_root(sk, pk, req, claims, rng):
    """`issue`, with A taken as Q^(1/e mod lambda(n)), lambda(n) = 2p'q'.
    That root holds for any unit Q. On an honest key Q is a square and A
    does not change; on the tagged key every holder completes, whatever k."""
    pre = issue(sk, pk, req, claims, metadata(pk.issuer_id, "c_same"), rng)
    n = pk.n
    terms = [(req.U, 1), (pk.S, pre.v_dprime), *zip(pk.R[1:], (encode_attribute(c, pk.params) for c in claims))]
    Q = pk.Z * pow(math.prod(pow(b, x, n) for b, x in terms), -1, n) % n
    return replace(pre, A=pow(Q, pow(pre.e, -1, 2 * sk.group_order), n))


def _guess_is_right(pk, sk, holders: random.Random, b: int, coin: random.Random) -> bool | None:
    """One trial, or None when a holder refuses the key or its credential.

    The issuer takes REQUESTS_PER_TRIAL requests and signs two whose U
    differ in Legendre symbol mod p, if two do. Holder b shows; the
    distinguisher names the holder whose U matches A' in symbol mod p, or
    flips a coin on a tie."""
    claims = make_claims(("member", "over_18", "reader"), pk.issuer_id)
    secrets = [holder_keygen(holders) for _ in range(REQUESTS_PER_TRIAL)]
    try:
        requests = [begin_issuance(pk, hs, NONCE, holders) for hs in secrets]
    except AbcError:
        return None
    symbols = [_symbol(req.U, sk.p) for req, _ in requests]
    picked = next(((i, j) for i in range(len(symbols)) for j in range(i) if symbols[i] != symbols[j]), (0, 1))
    try:
        creds = [
            complete_credential(_issue_lambda_root(sk, pk, requests[i][0], claims, holders), requests[i][1], secrets[i])
            for i in picked
        ]
    except AbcError:
        return None
    show = present(pk, creds[b], secrets[picked[b]], {1, 2}, NONCE, CTX, holders)
    verify_presentation(pk, show, NONCE, CTX)
    matches = [x for x in (0, 1) if symbols[picked[x]] == _symbol(show.a_prime, sk.p)]
    return (matches[0] if len(matches) == 1 else coin.getrandbits(1)) == b


# Each issuer strategy is the key it publishes.
@pytest.mark.parametrize("key_of", [
    pytest.param(lambda pk: pk, id="honest"),
    pytest.param(_tag_r0, id="tagged_key", marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1")),
])
def test_distinguisher_names_the_holder_no_better_than_chance(issuer512, key_of):
    pk, sk = issuer512
    pk = key_of(pk)
    # b, the holders and the coin each draw from their own stream, so no
    # draw of one leaks into another.
    challenger, holders, coin = random.Random(1), random.Random(2), random.Random(3)
    right = 0
    for _ in range(TRIALS):
        outcome = _guess_is_right(pk, sk, holders, challenger.getrandbits(1), coin)
        if outcome is None:
            return  # the holder protected itself
        right += outcome
    assert right <= MAX_RIGHT
