import random
from datetime import date

import pytest
from hypothesis import strategies as st

from abcid.anoncred import (
    CredentialMetadata,
    SystemParams,
    begin_issuance,
    complete_credential,
    holder_keygen,
    issue,
    setup_issuer,
    setup_issuer_from_primes,
)
from abcid.model import Attribute, Claim

# Insecure scale-model profile over n = 23 * 47 = 1081; lets tests check
# the arithmetic against hand-computable numbers. It derives l_e = 37 and l_v = 55.
TOY_PARAMS = SystemParams(l_n=11, l_m=8, l_e_prime=5, l_stat=8, l_h=16)
TOY_P, TOY_Q = 23, 47


def toy_issuer(seed: int = 1, L: int = 2, issuer_id: str = "toyissuer"):
    rng = random.Random(seed)
    return setup_issuer_from_primes(L, TOY_P, TOY_Q, TOY_PARAMS, rng, issuer_id)


@pytest.fixture(scope="session")
def issuer512():
    """One 512-bit issuer for three-claim credentials, shared by the suite."""
    rng = random.Random(512512)
    return setup_issuer(3, 512, rng, "lab")


@pytest.fixture(scope="session")
def issued512(issuer512):
    """A completed three-claim credential plus its holder secret."""
    pk, sk = issuer512
    rng = random.Random(777)
    hs = holder_keygen(rng)
    claims = make_claims(("member", "over_18", "reader"), "lab")
    nonce = rng.getrandbits(128).to_bytes(16, "big")
    req, state = begin_issuance(pk, hs, nonce, rng)
    pre = issue(sk, pk, req, claims, metadata("lab", "cred_demo"), rng)
    cred = complete_credential(pre, state, hs)
    return pk, sk, hs, cred


@pytest.fixture(scope="session")
def ref_fx():
    from abcid.gate import reference_fixture

    return reference_fixture()


def make_claims(names, issuer_id: str, value: str = "true", schema_id: str = "test_v1"):
    return tuple(
        Claim(attribute=Attribute(name, value), issuer_id=issuer_id, schema_id=schema_id)
        for name in names
    )


def metadata(issuer_id: str, credential_id: str = "", schema_id: str = "test_v1"):
    return CredentialMetadata(
        issuer_id=issuer_id,
        schema_id=schema_id,
        issued_at=date(2026, 1, 1),
        credential_id=credential_id,
    )


# -- hypothesis strategies ----------------------------------------------------

attr_names = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)
attr_values = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12
)
attributes_st = st.builds(Attribute, name=attr_names, value=attr_values)
issuer_ids = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True)
claims_st = st.builds(Claim, attribute=attributes_st, issuer_id=issuer_ids)
