"""Privacy harness: the issuer, who may share notes with a verifier, is the
adversary.

Each case is one issuer strategy. The issuer gives two holders the same
claims under the session 512-bit key, and each holder makes one show with
the same disclosure, nonce and context. Every byte a verifier or a log sees
outside `a_prime` and `proof` must then be the same for both holders, or the
issuer could name the holder of a show. A case for a known hole carries a
strict xfail that names its ROADMAP item; the fix removes the mark.
"""

import random

import pytest

from abcid import wire
from abcid.anoncred import begin_issuance, complete_credential, holder_keygen, issue, present, verify_presentation

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
    pytest.param(lambda h: f"h{h:04d}", id="per_holder_schema_id",
                 marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 4")),
])
def test_two_holders_shows_agree_outside_a_prime_and_proof(issuer512, schema_id_of):
    seen = [
        {path: value for path, value in _leaves(_show(issuer512, h, schema_id_of(h)))
         if path[0] not in ("a_prime", "proof")}
        for h in HOLDERS
    ]
    assert seen[0] == seen[1]
