"""Random (structurally valid, cryptographically meaningless) instances for
serialization round-trip tests."""

from __future__ import annotations

import random
import string
from datetime import date, timedelta

from abcid.anoncred import (
    Credential,
    CredentialMetadata,
    HolderSecret,
    Presentation,
    PresentationProof,
)
from abcid.model import Attribute, Claim
from abcid.policy import DAYS, AttrTerm, Policy, TimeWindow
from abcid.wallet import Wallet


def rand_token(rng: random.Random, max_len: int = 10) -> str:
    first = rng.choice(string.ascii_lowercase)
    rest = "".join(
        rng.choice(string.ascii_lowercase + string.digits + "_")
        for _ in range(rng.randrange(0, max_len))
    )
    return first + rest


def rand_text(rng: random.Random, max_len: int = 12) -> str:
    alphabet = string.printable + "äöüλ中"
    return "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, max_len)))


def rand_claim(rng: random.Random) -> Claim:
    return Claim(
        attribute=Attribute(rand_token(rng), rand_text(rng)),
        issuer_id=rand_token(rng),
        schema_id=rand_token(rng) if rng.random() < 0.7 else "",
    )


def rand_metadata(rng: random.Random, credential_id: str | None = None) -> CredentialMetadata:
    issued = date(2020, 1, 1) + timedelta(days=rng.randrange(0, 3000))
    return CredentialMetadata(
        issuer_id=rand_token(rng),
        schema_id=rand_token(rng),
        issued_at=issued,
        expires_at=issued + timedelta(days=rng.randrange(1, 999)) if rng.random() < 0.5 else None,
        credential_id=credential_id if credential_id is not None else rand_token(rng),
    )


def rand_credential(rng: random.Random, credential_id: str | None = None) -> Credential:
    return Credential(
        A=rng.getrandbits(512),
        e=rng.getrandbits(596) | (1 << 596),
        v=rng.getrandbits(1100),
        claims=tuple(rand_claim(rng) for _ in range(rng.randrange(1, 5))),
        metadata=rand_metadata(rng, credential_id),
    )


def rand_presentation(rng: random.Random) -> Presentation:
    total = rng.randrange(1, 6)
    disclosed_idx = sorted(rng.sample(range(1, total + 1), rng.randrange(0, total + 1)))
    hidden_idx = [i for i in range(1, total + 1) if i not in disclosed_idx]
    return Presentation(
        a_prime=rng.getrandbits(512),
        disclosed={i: rand_claim(rng) for i in disclosed_idx},
        proof=PresentationProof(
            c=rng.getrandbits(256),
            s_e=rng.getrandbits(900),
            s_v=rng.getrandbits(1500) * rng.choice((1, -1)),
            s_k=rng.getrandbits(590),
            s_m={i: rng.getrandbits(590) for i in hidden_idx},
        ),
        nonce=rng.getrandbits(128).to_bytes(16, "big"),
        context=rand_text(rng),
        issuer_id=rand_token(rng),
    )


def rand_wallet(rng: random.Random) -> Wallet:
    creds = [rand_credential(rng, credential_id=f"c{i}") for i in range(rng.randrange(0, 6))]
    labels = {c.metadata.credential_id: rand_text(rng) for c in creds if rng.random() < 0.5}
    return Wallet(
        holder_secret=HolderSecret(rng.getrandbits(256)),
        credentials=creds,
        labels=labels,
    )


def rand_policy(rng: random.Random) -> Policy:
    terms = {
        AttrTerm(rand_token(rng), rand_text(rng) if rng.random() < 0.4 else None)
        for _ in range(rng.randrange(1, 5))
    }
    window = days = None
    if rng.random() < 0.6:
        start = rng.randrange(0, 1439)
        window = TimeWindow(start, rng.randrange(start + 1, 1441))
    if rng.random() < 0.6:
        days = frozenset(rng.sample(DAYS, rng.randrange(1, 8)))
    return Policy(
        subject_attrs=frozenset(terms),
        action=rand_token(rng),
        domain_id=rand_token(rng),
        resource_type=rand_token(rng) if rng.random() < 0.5 else None,
        resource_name=rand_text(rng) if rng.random() < 0.5 else None,
        window=window,
        days=days,
    )
