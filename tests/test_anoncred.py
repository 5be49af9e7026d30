import copy
import math
import random
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from datetime import date, datetime, timedelta
from hashlib import sha256
from threading import Barrier

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import legendre_symbol

import oracle
from abcid import anoncred, gate, hashing, primes, wire
from abcid.anoncred import (
    AbcError,
    ContextMismatch,
    EncodingError,
    Equation,
    IssuanceRequest,
    IssuerSecretKey,
    LengthCheckFailed,
    NonceMismatch,
    PROFILES,
    ParameterError,
    Presentation,
    PresentationProof,
    ProofInvalid,
    SignatureInvalid,
    SystemParams,
    _WINDOW,
    _chain_bits,
    _issue_challenge,
    _mexp,
    _odd_powers,
    _present_challenge,
    _straus,
    _width,
    begin_issuance,
    complete_credential,
    encode_attribute,
    equations_hold,
    holder_keygen,
    issue,
    present,
    presentation_equation,
    setup_issuer,
    setup_issuer_from_primes,
    signature_holds,
    verify_issuance_request,
    verify_presentation,
)
from abcid.hashing import challenge_from_digest
from abcid.model import Claim, claim_bytes, fields, replace
from abcid.policy import AccessRequest
from abcid.primes import random_prime_in_interval
from abcid.wallet import Wallet, wallet_save

from conftest import TOY_P, TOY_PARAMS, TOY_Q, make_claims, metadata, toy_issuer

NONCE = b"\x07" * 16
CTX = "library|audio|song1|read"


def toy_credential(seed=3, disclose_claims=("a5", "a6")):
    pk, sk = toy_issuer(seed)
    rng = random.Random(seed + 100)
    hs = holder_keygen(rng, TOY_PARAMS.l_m)
    claims = make_claims(disclose_claims, "toyissuer")
    req, state = begin_issuance(pk, hs, NONCE, rng)
    pre = issue(sk, pk, req, claims, metadata("toyissuer", "c_toy"), rng)
    return pk, sk, hs, req, pre, complete_credential(pre, state, hs), rng


# -- setup ---------------------------------------------------------------------

def test_setup_rejects_unknown_modulus_size():
    with pytest.raises(ParameterError):
        setup_issuer(2, 777, random.Random(0))


def test_setup_keys_are_quadratic_residues(issuer512):
    pk, sk = issuer512
    assert pk.n == sk.p * sk.q
    assert pk.n.bit_length() == 512
    for x in (pk.S, pk.Z, *pk.R):
        assert 2 <= x <= pk.n - 2
        assert legendre_symbol(x, sk.p) == legendre_symbol(x, sk.q) == 1


def test_setup_deterministic_under_seed():
    a = setup_issuer(2, 512, random.Random(42), "iss")
    b = setup_issuer(2, 512, random.Random(42), "iss")
    assert a == b


def test_key_digest_is_computed_once(issuer512, monkeypatch):
    """A key object hashes itself on its first `digest()` only."""
    want = issuer512[0].digest()
    pk = replace(issuer512[0])
    calls = []
    monkeypatch.setattr(anoncred, "transcript_hash", lambda elems: calls.append(elems) or hashing.transcript_hash(elems))
    assert pk.digest() == pk.digest() == want
    assert len(calls) == 1


def test_setup_from_primes_validates():
    rng = random.Random(0)
    with pytest.raises(ParameterError):
        setup_issuer_from_primes(2, TOY_P, TOY_P, TOY_PARAMS, rng)
    with pytest.raises(ParameterError):
        setup_issuer_from_primes(2, 29, TOY_Q, TOY_PARAMS, rng)  # 29 % 4 == 1
    with pytest.raises(ParameterError):
        setup_issuer_from_primes(0, TOY_P, TOY_Q, TOY_PARAMS, rng)


@pytest.mark.parametrize("p, q, message", [
    (1, TOY_P * TOY_Q, "exceed 3"),  # p*q == n, yet the group order would be 0
    (3, TOY_Q, "exceed 3"),
    (TOY_P, TOY_P, "must differ"),
    (TOY_P, 29, "3 \\(mod 4\\)"),
])
def test_secret_key_checks_itself(p, q, message):
    with pytest.raises(ParameterError, match=message):
        IssuerSecretKey(p=p, q=q)


@pytest.mark.parametrize("L, issuer_id", [(0, "clinic"), (2, "Clinic"), (2, ""), (2, "my clinic")])
def test_setup_rejects_bad_issuer_before_prime_search(monkeypatch, L, issuer_id):
    def no_search(*args):
        raise AssertionError("prime search started")

    monkeypatch.setattr("abcid.primes.safe_prime", no_search)
    with pytest.raises(ParameterError):
        setup_issuer(L, 2048, random.Random(0), issuer_id)
    with pytest.raises(ParameterError):
        setup_issuer_from_primes(L, TOY_P, TOY_Q, TOY_PARAMS, random.Random(0), issuer_id)


def test_params_relations_enforced():
    with pytest.raises(ParameterError, match="l_m <= 257"):
        SystemParams(l_n=11, l_m=258, l_e_prime=5, l_stat=8, l_h=16)
    with pytest.raises(ParameterError, match="l_h <= 256"):  # longer than the SHA-256 digest it is cut from
        SystemParams(l_n=11, l_m=10, l_e_prime=5, l_stat=8, l_h=300)


@pytest.mark.parametrize("params, l_e, l_v", [
    (PROFILES[512], 597, 1188),
    (PROFILES[1024], 597, 1700),
    (PROFILES[2048], 597, 2724),
    (TOY_PARAMS, 37, 55),
], ids=["512", "1024", "2048", "toy"])
def test_params_derive_l_e_and_l_v(params, l_e, l_v):
    """Each is the least length its relation allows: l_e > l_stat + l_h +
    max(l_m + 4, l_e' + 2) and l_v >= l_n + l_m + l_h + 2*l_stat + 4."""
    assert (params.l_e, params.l_v) == (l_e, l_v)
    with pytest.raises(ValueError):
        replace(params, l_e=l_e + 1)
    with pytest.raises(ValueError):
        replace(params, l_v=l_v + 1)


def test_challenge_is_cut_from_the_digest():
    d = sha256(b"transcript").digest()
    assert challenge_from_digest(d, 256) == int.from_bytes(d, "big")
    assert challenge_from_digest(d, 16) == int.from_bytes(d[:2], "big")
    with pytest.raises(ValueError, match="challenge longer than digest"):
        challenge_from_digest(d, 257)


# -- holder keys and attribute encoding ------------------------------------------

def test_holder_keygen_range_and_determinism():
    ks = {holder_keygen(random.Random(1), 256).k for _ in range(3)}
    assert len(ks) == 1
    assert holder_keygen(random.Random(1), 256) != holder_keygen(random.Random(2), 256)
    for seed in range(20):
        k = holder_keygen(random.Random(seed), 256).k
        assert 1 <= k < 1 << 256


def test_encode_attribute_is_truncated_hash():
    (claim,) = make_claims(("over_18",), "gov")
    m = encode_attribute(claim, TOY_PARAMS)
    expected = int.from_bytes(sha256(claim_bytes(claim)).digest(), "big") >> (256 - 7)
    assert m == expected
    assert m < 1 << (TOY_PARAMS.l_m - 1)
    (other,) = make_claims(("over_21",), "gov")
    assert encode_attribute(other, TOY_PARAMS) != m
    with pytest.raises(EncodingError, match="not a claim"):
        encode_attribute(claim.attribute, TOY_PARAMS)


# -- issuance against the straight-line oracle ------------------------------------

def test_commitment_matches_oracle():
    pk, _ = toy_issuer()
    rng = random.Random(5)
    hs = holder_keygen(rng, TOY_PARAMS.l_m)
    req, state = begin_issuance(pk, hs, NONCE, rng)
    assert req.U == oracle.commitment_value(pk.n, pk.S, pk.R[0], state.v_prime, hs.k)
    verify_issuance_request(pk, req)  # completeness


def test_issue_signature_matches_oracle():
    pk, sk, hs, req, pre, cred, _ = toy_credential()
    ms = [encode_attribute(c, TOY_PARAMS) for c in cred.claims]
    assert pre.A == oracle.issue_signature_part(
        pk.n, sk.p, sk.q, pk.Z, pk.S, pk.R, req.U, pre.e, pre.v_dprime, ms
    )
    assert oracle.signature_check_value(pk.n, cred.A, cred.e, cred.v, hs.k, pk.S, pk.R, ms) == pk.Z


def test_issuance_request_tampering_rejected():
    pk, sk = toy_issuer()
    p = pk.params
    rng = random.Random(8)
    hs = holder_keygen(rng, TOY_PARAMS.l_m)
    req, _ = begin_issuance(pk, hs, NONCE, rng)
    for mutant in (
        replace(req, s_v=req.s_v + 1),
        replace(req, s_k=req.s_k + 1),
        replace(req, U=req.U + 1),
        replace(req, c=req.c ^ 1),
        replace(req, nonce=b"\x00" * 16),
        replace(req, U=1),  # U out of range
        replace(req, U=pk.n - 1),
        replace(req, s_v=-req.s_v),
        replace(req, s_k=1 << (p.l_m + p.l_stat + p.l_h + 1)),  # one bit over the bound
        replace(req, U=sk.p),  # shares a factor with n: no inverse
    ):
        with pytest.raises(ProofInvalid):
            verify_issuance_request(pk, mutant)


def test_issue_rejects_bad_proof_and_wrong_claim_count():
    pk, sk = toy_issuer()
    rng = random.Random(9)
    hs = holder_keygen(rng, TOY_PARAMS.l_m)
    req, _ = begin_issuance(pk, hs, NONCE, rng)
    claims = make_claims(("a5", "a6"), "toyissuer")
    with pytest.raises(ProofInvalid):
        issue(sk, pk, replace(req, s_k=req.s_k + 1), claims, metadata("toyissuer"), rng)
    with pytest.raises(EncodingError):
        issue(sk, pk, req, claims[:1], metadata("toyissuer"), rng)


def test_a_fresh_key_samples_its_first_e_without_a_pool(issued512):
    """A key object's first signature draws e as `random_prime_in_interval`
    does from the same rng state; its second comes from the key's pool."""
    pk, sk, hs, _ = issued512
    fresh = replace(sk)
    rng = random.Random(41)
    claims = make_claims(("member", "over_18", "reader"), "lab")
    req, _ = begin_issuance(pk, hs, NONCE, rng)
    for first in (True, False):
        stateless = random_prime_in_interval(*pk.params.e_interval, copy.copy(rng))
        pre = issue(fresh, pk, req, claims, metadata("lab"), rng)
        assert (pre.e == stateless) == first
        assert (vars(fresh)["_e_pool"]._left == ()) == first


@pytest.mark.parametrize("window", [primes.POOL_WINDOW, 1024])
def test_one_key_signing_from_threads_never_repeats_e(issuer512, monkeypatch, window):
    """Two signatures on one e under one key forge a third, so 8 threads
    that issue 25 credentials each under one key get 200 distinct e. A
    stand-in for Miller-Rabin that passes about half the pool's survivors
    keeps each draw cheap and still sends threads back for another; `issue`
    signs on any e that shares no factor with p'q'. The small window runs
    dry every few draws, so threads also race to refill it."""
    monkeypatch.setattr(primes, "is_probable_prime", lambda n: n % 4 == 1)
    monkeypatch.setattr(primes, "POOL_WINDOW", window)
    pk, sk = issuer512
    fresh = replace(sk)
    hs = holder_keygen(random.Random(42))
    claims = make_claims(("member", "over_18", "reader"), "lab")
    req, _ = begin_issuance(pk, hs, NONCE, random.Random(43))
    start = Barrier(8, timeout=60)

    def signatures(seed):
        rng = random.Random(seed)
        start.wait()
        return [issue(fresh, pk, req, claims, metadata("lab"), rng).e for _ in range(25)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            es = [e for thread in pool.map(signatures, range(8), timeout=300) for e in thread]
    finally:
        sys.setswitchinterval(interval)
    assert len(set(es)) == 200


def test_issue_refuses_secret_key_of_another_modulus():
    """A secret key that does not factor the public key's n is refused
    before e is drawn; it would sign a pre-credential that no holder accepts."""
    pk, sk = toy_issuer()
    rng = random.Random(9)
    hs = holder_keygen(rng, TOY_PARAMS.l_m)
    req, _ = begin_issuance(pk, hs, NONCE, rng)
    claims = make_claims(("a5", "a6"), "toyissuer")
    state = rng.getstate()
    with pytest.raises(ParameterError, match="does not belong"):
        issue(IssuerSecretKey(p=TOY_P, q=59), pk, req, claims, metadata("toyissuer"), rng)
    assert rng.getstate() == state
    issue(sk, pk, req, claims, metadata("toyissuer"), rng)


def test_complete_rejects_forged_signature():
    from abcid.anoncred import HolderIssuanceState

    pk, sk, hs, req, pre, cred, rng = toy_credential(seed=4)
    state = HolderIssuanceState(v_prime=cred.v - pre.v_dprime, pk=pk)
    assert complete_credential(pre, state, hs) == cred  # the honest pre passes
    with pytest.raises(SignatureInvalid):
        complete_credential(replace(pre, A=pre.A + 1), state, hs)


def test_complete_checks_e_interval():
    pk, sk, hs, req, pre, cred, rng = toy_credential(seed=6)
    from abcid.anoncred import HolderIssuanceState

    state = HolderIssuanceState(v_prime=cred.v - pre.v_dprime, pk=pk)
    with pytest.raises(SignatureInvalid):
        complete_credential(replace(pre, e=3), state, hs)


def test_complete_rejects_even_e():
    """Soundness harness: an issuer that signs with an even e can return
    -A instead of A. The CL equation still holds, since (-A)^e = A^e, but
    -A is a non-residue mod the issuer's p, which tags every show of the
    credential for the issuer. The holder must refuse it."""
    pk, sk = setup_issuer(1, 512, random.Random(7), "tagger")
    rng = random.Random(8)
    hs = holder_keygen(rng)
    claims = make_claims(("member",), "tagger")
    req, state = begin_issuance(pk, hs, NONCE, rng)
    pre = issue(sk, pk, req, claims, metadata("tagger"), rng)
    Q = pow(pre.A, pre.e, pk.n)  # = Z / (U S^v'' R_1^m_1), a quadratic residue
    even_e = next(e for e in range(pre.e + 1, pre.e + 1000, 2) if math.gcd(e, sk.group_order) == 1)
    assert pk.params.e_interval[0] <= even_e <= pk.params.e_interval[1]
    tagged = pk.n - pow(Q, pow(even_e, -1, sk.group_order), pk.n)
    v = state.v_prime + pre.v_dprime
    ms = [encode_attribute(c, pk.params) for c in claims]
    assert signature_holds(pk, tagged, even_e, v, hs.k, ms)
    assert legendre_symbol(tagged, sk.p) == -1
    with pytest.raises(SignatureInvalid, match="e is even"):
        complete_credential(replace(pre, A=tagged, e=even_e), state, hs)


def test_complete_rejects_extra_claim(issuer512):
    """Soundness harness: the CL equation has one base per claim the key
    signs, so a claim appended to a pre-credential would enter the wallet
    unsigned. Completion refuses it, and so does a show of a credential
    edited the same way."""
    pk, sk = issuer512
    rng = random.Random(9)
    hs = holder_keygen(rng)
    req, state = begin_issuance(pk, hs, NONCE, rng)
    pre = issue(sk, pk, req, make_claims(("member", "over_18", "reader"), "lab"), metadata("lab"), rng)
    extra = make_claims(("admin",), "lab")
    with pytest.raises(SignatureInvalid, match="exactly 3 claims, got 4"):
        complete_credential(replace(pre, claims=pre.claims + extra), state, hs)
    cred = complete_credential(pre, state, hs)
    with pytest.raises(EncodingError, match="exactly 3 claims, got 4"):
        present(pk, replace(cred, claims=cred.claims + extra), hs, {1}, NONCE, CTX, rng)


def test_credential_metadata_names_the_key_issuer(issuer512):
    """Soundness harness: metadata naming another issuer would send every
    show to another key, and put a string the issuer chose in front of the
    verifier. The issuer does not sign such metadata, the holder refuses
    it, and a show names the key's issuer whatever the metadata says."""
    pk, sk = issuer512
    rng = random.Random(10)
    hs = holder_keygen(rng)
    req, state = begin_issuance(pk, hs, NONCE, rng)
    claims = make_claims(("member", "over_18", "reader"), "lab")
    with pytest.raises(EncodingError, match="under its own id"):
        issue(sk, pk, req, claims, metadata("labx"), rng)
    pre = issue(sk, pk, req, claims, metadata("lab"), rng)
    foreign = replace(pre.metadata, issuer_id="holder_4711")
    with pytest.raises(SignatureInvalid, match="belongs to 'lab'"):
        complete_credential(replace(pre, metadata=foreign), state, hs)
    cred = replace(complete_credential(pre, state, hs), metadata=foreign)
    pres = present(pk, cred, hs, {1}, NONCE, CTX, rng)
    assert pres.issuer_id == "lab"
    assert verify_presentation(pk, pres, NONCE, CTX) == {claims[0]}


@pytest.mark.parametrize("kwargs", [
    {"issuer_id": 7},
    {"schema_id": None},
    {"credential_id": None},
    {"issued_at": "2026-01-01"},
    {"issued_at": datetime(2026, 1, 1, 12)},
    {"expires_at": "c1"},  # CredentialMetadata(issuer, schema, issued_at, "c1"): a positional slip
    {"expires_at": datetime(2027, 1, 1)},
])
def test_credential_metadata_checks_field_types(kwargs):
    """A positional slip or a datetime fails at construction, not later on
    the wire, where a datetime would come back as a bare date."""
    good = metadata("lab", "c1")
    assert replace(good, expires_at=date(2027, 1, 1)).expires_at == date(2027, 1, 1)
    with pytest.raises(ValueError):
        replace(good, **kwargs)


def test_complete_rejects_claims_of_another_issuer():
    """Soundness harness: `issue` certifies only claims under the key's own
    id, but an issuer can sign others with its secret key directly. The
    signature holds, yet no show that discloses such a claim verifies, so
    the holder refuses the credential at completion."""
    pk, sk = toy_issuer(seed=33, L=3)
    rng = random.Random(34)
    hs = holder_keygen(rng, pk.params.l_m)
    req, state = begin_issuance(pk, hs, NONCE, rng)
    foreign = make_claims(("q1", "q2", "q3"), "otherissuer")
    with pytest.raises(EncodingError, match="only claims under its own id"):
        issue(sk, pk, req, foreign, metadata(pk.issuer_id), rng)
    pre = issue(sk, pk, req, make_claims(("q1", "q2", "q3"), pk.issuer_id), metadata(pk.issuer_id), rng)
    ms = [encode_attribute(c, pk.params) for c in foreign]
    A = oracle.issue_signature_part(pk.n, sk.p, sk.q, pk.Z, pk.S, pk.R, req.U, pre.e, pre.v_dprime, ms)
    forged = replace(pre, A=A, claims=foreign)
    assert signature_holds(pk, A, pre.e, state.v_prime + pre.v_dprime, hs.k, ms)
    with pytest.raises(SignatureInvalid, match="a claim names another issuer"):
        complete_credential(forged, state, hs)


# -- presentation --------------------------------------------------------------

def test_present_full_and_empty_disclosure(issued512):
    pk, _, hs, cred = issued512
    rng = random.Random(11)
    full = present(pk, cred, hs, {1, 2, 3}, NONCE, CTX, rng)
    got = verify_presentation(pk, full, NONCE, CTX)
    assert got == frozenset(cred.claims)
    assert full.proof.s_m == {}  # nothing hidden beyond (e, v, k)

    nothing = present(pk, cred, hs, set(), NONCE, CTX, rng)
    assert verify_presentation(pk, nothing, NONCE, CTX) == frozenset()
    assert set(nothing.proof.s_m) == {1, 2, 3}


def test_present_rejects_bad_indices(issued512):
    pk, _, hs, cred = issued512
    rng = random.Random(12)
    with pytest.raises(IndexError):
        present(pk, cred, hs, {0, 1}, NONCE, CTX, rng)
    with pytest.raises(IndexError):
        present(pk, cred, hs, {4}, NONCE, CTX, rng)


def test_presentations_are_pairwise_fresh(issued512):
    pk, _, hs, cred = issued512
    rng = random.Random(13)
    p1 = present(pk, cred, hs, {1}, NONCE, CTX, rng)
    p2 = present(pk, cred, hs, {1}, NONCE, CTX, rng)
    assert p1.a_prime != p2.a_prime
    for name in ("T", "s_e", "s_v", "s_k"):
        assert getattr(p1.proof, name) != getattr(p2.proof, name)
    for i in p1.proof.s_m:
        assert p1.proof.s_m[i] != p2.proof.s_m[i]


def test_present_deterministic_under_seed(issued512):
    pk, _, hs, cred = issued512
    a = present(pk, cred, hs, {2}, NONCE, CTX, random.Random(99))
    b = present(pk, cred, hs, {2}, NONCE, CTX, random.Random(99))
    assert a == b


def test_verify_nonce_and_context_binding(issued512):
    pk, _, hs, cred = issued512
    pres = present(pk, cred, hs, {1}, NONCE, CTX, random.Random(14))
    with pytest.raises(NonceMismatch):
        verify_presentation(pk, pres, b"\x08" * 16, CTX)
    with pytest.raises(ContextMismatch):
        verify_presentation(pk, pres, NONCE, "library|audio|song2|read")


def test_verify_rejects_single_field_perturbations(issued512):
    pk, sk, hs, cred = issued512
    pres = present(pk, cred, hs, {1, 3}, NONCE, CTX, random.Random(15))
    proof = pres.proof
    mutants = [
        replace(pres, a_prime=pres.a_prime + 1),
        replace(pres, proof=replace(proof, T=proof.T ^ 1)),
        replace(pres, proof=replace(proof, s_e=proof.s_e + 1)),
        replace(pres, proof=replace(proof, s_v=proof.s_v + 1)),
        replace(pres, proof=replace(proof, s_k=proof.s_k + 1)),
        replace(pres, proof=replace(proof, s_m={2: proof.s_m[2] + 1})),
        replace(pres, a_prime=0),  # A' out of range
        replace(pres, a_prime=pk.n),
        replace(pres, proof=replace(proof, T=pk.n)),  # T out of range
        replace(pres, a_prime=sk.p),  # no unit mod n
    ]
    for mutant in mutants:
        with pytest.raises(ProofInvalid):
            verify_presentation(pk, mutant, NONCE, CTX)


def _no_exponentiation(*args):
    raise AssertionError("exponentiation reached")


def test_bad_values_refused_before_any_exponentiation(issued512, monkeypatch):
    """Each verifier checks U, the request's challenge, A' and T against
    their ranges before its one exponentiation: a group element must be a
    unit in [2, n-2], so none of these reaches `_mexp` or `pow`. So do a
    show's negative responses, and a pre-credential's A and v'', whose
    length would otherwise set the holder's cost."""
    pk, sk, hs, cred = issued512
    rng = random.Random(40)
    req, state = begin_issuance(pk, hs, NONCE, rng)
    pres = present(pk, cred, hs, {1}, NONCE, CTX, rng)
    pre = issue(sk, pk, req, cred.claims, metadata("lab", "cred_hostile"), rng)
    monkeypatch.setattr(anoncred, "_mexp", _no_exponentiation)
    monkeypatch.setattr(anoncred, "pow", _no_exponentiation, raising=False)
    for mutant in (replace(req, U=sk.p), replace(req, c=1 << pk.params.l_h)):
        with pytest.raises(ProofInvalid):
            verify_issuance_request(pk, mutant)
    mutants = [replace(pres, a_prime=sk.p), replace(pres, a_prime=pk.n - 1)]
    mutants += [replace(pres, proof=replace(pres.proof, T=t)) for t in (sk.q, 0, 1, pk.n - 1)]
    for mutant in mutants:
        with pytest.raises(ProofInvalid, match="is not a unit"):
            verify_presentation(pk, mutant, NONCE, CTX)
    proof = pres.proof
    negated = [replace(proof, **{label: -getattr(proof, label)}) for label in ("s_e", "s_v", "s_k")]
    negated += [replace(proof, s_m={**proof.s_m, i: -s}) for i, s in proof.s_m.items()]
    for mutant in negated:
        for check in (verify_presentation, presentation_equation):
            with pytest.raises(LengthCheckFailed):
                check(pk, replace(pres, proof=mutant), NONCE, CTX)
    hostile = [replace(pre, A=a) for a in (0, 1, pk.n - 1, pk.n, sk.p)]
    hostile += [replace(pre, v_dprime=v) for v in (-1, 1 << pk.params.l_v, 1 << 100_000)]
    for mutant in hostile:
        with pytest.raises(SignatureInvalid):
            complete_credential(mutant, state, hs)


def test_short_nonce_refused(issued512):
    pk, _, hs, cred = issued512
    rng = random.Random(41)
    with pytest.raises(ParameterError, match="nonce must be 16 bytes"):
        begin_issuance(pk, hs, NONCE[:15], rng)
    with pytest.raises(ParameterError, match="nonce must be 16 bytes"):
        present(pk, cred, hs, {1}, NONCE[:15], CTX, rng)


def _leaf_paths(doc, path=()):
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        yield path
        return
    for key, value in items:
        yield from _leaf_paths(value, path + (key,))


def _mutated(path, value: str | None) -> str:
    """Another value of the same shape: hex integers plus one, the nonce
    with one digit changed, dates one day later, a null date set, any
    other string with a character appended."""
    if value is None:
        return "2027-01-01"
    if path == ("nonce",):
        return value[:-1] + ("1" if value[-1] == "0" else "0")
    if value.lstrip("-").startswith("0x"):
        return wire.int_to_hex(wire.hex_to_int(value) + 1)
    if re.fullmatch(r"\d{4}-\d{2}-\d{2}", value):
        return (date.fromisoformat(value) + timedelta(days=1)).isoformat()
    return value + "x"


def _leaf_mutants(doc):
    """(path, copy of doc with that one leaf mutated) for every leaf."""
    for path in _leaf_paths(doc):
        mutant = copy.deepcopy(doc)
        *outer, leaf = path
        node = mutant
        for key in outer:
            node = node[key]
        node[leaf] = _mutated(path, node[leaf])
        yield path, mutant


def test_presentation_has_no_survivors(issued512):
    """Soundness harness: change one leaf of a real presentation document at
    a time. A field the signature and the challenge do not cover would
    survive; a show discloses only attributes, which both cover, so none does."""
    pk, _, hs, cred = issued512
    doc = wire.presentation_to_json(present(pk, cred, hs, {1, 3}, NONCE, CTX, random.Random(18)))
    mutants = dict(_leaf_mutants(doc))
    survivors = set()
    for path, mutant in mutants.items():
        try:
            verify_presentation(pk, wire.presentation_from_json(mutant), NONCE, CTX)
        except (wire.FormatError, AbcError):
            continue
        survivors.add(path)
    assert survivors == set()
    assert len(mutants) == 13


def test_pre_credential_survivors_are_schema_ids_and_metadata(issuer512):
    """Soundness harness: change one leaf of a real pre-credential, or
    append or drop a claim, and complete it. The signature covers each
    claim's name, value and issuer, and the holder checks the metadata's
    issuer against the key; what survives is the claims' schema ids and
    the rest of the credential metadata, which nothing signs yet."""
    pk, sk = issuer512
    rng = random.Random(19)
    hs = holder_keygen(rng)
    req, state = begin_issuance(pk, hs, NONCE, rng)
    claims = make_claims(("member", "over_18", "reader"), "lab")
    doc = wire.pre_credential_to_json(issue(sk, pk, req, claims, metadata("lab", "cred_pre"), rng))
    mutants = dict(_leaf_mutants(doc))
    mutants["claim appended"] = {**doc, "claims": doc["claims"] + doc["claims"][:1]}
    mutants["claim dropped"] = {**doc, "claims": doc["claims"][1:]}
    assert len(mutants) == 22
    survivors = set()
    for path, mutant in mutants.items():
        try:
            complete_credential(wire.pre_credential_from_json(mutant), state, hs)
        except (wire.FormatError, AbcError):
            continue
        survivors.add(path)
    assert survivors == {
        *(("claims", i, "schema_id") for i in range(3)),
        *(("metadata", key) for key in ("schema_id", "issued_at", "expires_at", "credential_id")),
    }


def test_issuance_request_has_no_survivors(issuer512):
    """Soundness harness: change one leaf of a real issuance request; the
    request proof covers every field, the nonce included."""
    pk, _ = issuer512
    rng = random.Random(20)
    req, _ = begin_issuance(pk, holder_keygen(rng), NONCE, rng)
    mutants = dict(_leaf_mutants(wire.request_to_json(req)))
    assert len(mutants) == 5
    survivors = set()
    for path, mutant in mutants.items():
        try:
            verify_issuance_request(pk, wire.request_from_json(mutant))
        except (wire.FormatError, AbcError):
            continue
        survivors.add(path)
    assert survivors == set()


def test_verify_rejects_swapped_disclosed_value(issued512):
    """A swapped value fails the proof; a disclosed map holding anything but
    int -> Attribute, such as a whole claim, is refused when built."""
    pk, _, hs, cred = issued512
    pres = present(pk, cred, hs, {1, 2, 3}, NONCE, CTX, random.Random(16))
    (lie,) = make_claims(("member",), "lab", value="false")
    swapped = dict(pres.disclosed)
    swapped[1] = lie.attribute
    with pytest.raises(ProofInvalid):
        verify_presentation(pk, replace(pres, disclosed=swapped), NONCE, CTX)
    for malformed in ({1: cred.claims[0]}, {"1": cred.claims[0].attribute}):
        with pytest.raises(ValueError, match="disclosed"):
            replace(pres, disclosed=malformed)


def test_verify_length_bounds(issued512):
    pk, _, hs, cred = issued512
    p = pk.params
    pres = present(pk, cred, hs, {1}, NONCE, CTX, random.Random(17))
    huge = 1 << (p.l_m + p.l_stat + p.l_h + 2)
    with pytest.raises(LengthCheckFailed):
        verify_presentation(
            pk, replace(pres, proof=replace(pres.proof, s_k=huge)), NONCE, CTX
        )
    with pytest.raises(LengthCheckFailed):
        verify_presentation(
            pk,
            replace(pres, proof=replace(pres.proof, s_v=-(1 << (p.l_v + p.l_stat + p.l_h + 2)))),
            NONCE,
            CTX,
        )


def test_verify_rejects_malformed_index_sets(issued512):
    pk, _, hs, cred = issued512
    pres = present(pk, cred, hs, {1}, NONCE, CTX, random.Random(18))
    # Index 0 neither disclosable nor hideable; layouts must be 1..N.
    bad_hidden = dict(pres.proof.s_m)
    bad_hidden[0] = 1
    with pytest.raises(ProofInvalid):
        verify_presentation(
            pk, replace(pres, proof=replace(pres.proof, s_m=bad_hidden)), NONCE, CTX
        )
    gap = {i + 7: s for i, s in pres.proof.s_m.items()}
    with pytest.raises(ProofInvalid):
        verify_presentation(pk, replace(pres, proof=replace(pres.proof, s_m=gap)), NONCE, CTX)


def test_non_transferability(issued512):
    pk, _, hs, cred = issued512
    thief = holder_keygen(random.Random(4242))
    assert thief.k != hs.k
    pres = present(pk, cred, thief, {1}, NONCE, CTX, random.Random(19))
    with pytest.raises(ProofInvalid):
        verify_presentation(pk, pres, NONCE, CTX)


def test_ownership_term_is_load_bearing(issued512):
    """Negative control: dropping R0^s_k from the equation breaks honest
    transcripts, so verification really does check key ownership."""
    pk, _, hs, cred = issued512
    pres = present(pk, cred, hs, {1, 2, 3}, NONCE, CTX, random.Random(20))
    n = pk.n
    proof = pres.proof
    c = _present_challenge(pk, pres.a_prime, proof.T, pres.disclosed, NONCE, CTX)
    ms = {i: encode_attribute(cl, pk.params) for i, cl in enumerate(cred.claims, start=1)}
    divisor = 1
    for i, m in ms.items():
        divisor = divisor * pow(pk.R[i], m, n) % n
    z_d = pk.Z * pow(divisor, -1, n) % n
    e_offset = 1 << (pk.params.l_e - 1)  # s_e answers for e - 2^(l_e-1)
    with_k = pow(pres.a_prime, proof.s_e + c * e_offset, n) * pow(pk.S, proof.s_v, n) % n
    t_no_k = with_k * pow(z_d, -c, n) % n
    t_with_k = with_k * pow(pk.R[0], proof.s_k, n) % n * pow(z_d, -c, n) % n
    assert t_with_k == proof.T
    assert t_no_k not in (proof.T, n - proof.T)


def test_verify_issuer_id_binding(issued512):
    pk, _, hs, cred = issued512
    pres = present(pk, cred, hs, {1}, NONCE, CTX, random.Random(21))
    with pytest.raises(ProofInvalid):
        verify_presentation(pk, replace(pres, issuer_id="imposter"), NONCE, CTX)


def test_completeness_smoke_512(issuer512):
    pk, sk = issuer512
    rng = random.Random(22)
    for round_ in range(3):
        hs = holder_keygen(rng)
        claims = make_claims((f"x{round_}", f"y{round_}", f"z{round_}"), "lab")
        nonce = rng.getrandbits(128).to_bytes(16, "big")
        req, state = begin_issuance(pk, hs, nonce, rng)
        pre = issue(sk, pk, req, claims, metadata("lab", f"c{round_}"), rng)
        cred = complete_credential(pre, state, hs)
        disclose = {1 + round_ % 3}
        pres = present(pk, cred, hs, disclose, nonce, CTX, rng)
        got = verify_presentation(pk, pres, nonce, CTX)
        assert got == frozenset(cred.claims[i - 1] for i in disclose)


# -- fixed-base tables and CRT signing ------------------------------------------

def _exponents(bits):
    """Exponents around a table of `bits` bits: edge values, 2^k +- 1, values
    that fit, values one bit too long for the table, and negative values."""
    return st.one_of(
        st.sampled_from([0, 1]),
        st.integers(1, bits).flatmap(lambda k: st.sampled_from([(1 << k) - 1, (1 << k) + 1])),
        st.integers(0, (1 << bits) - 1),
        st.integers(1 << bits, (1 << (bits + 1)) - 1),
        st.integers(-(1 << bits), -1),
    )


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_mexp_matches_pow(issuer512, data):
    pk, _ = issuer512
    n = pk.n
    tables = pk._tables
    table_bits = {base: _WINDOW * len(table) for base, table in tables.items()}
    other = data.draw(st.integers(2, n - 2), label="non-key base")
    # int(str(S)) is a separate object equal to S; S + n is congruent to S
    # but has no table.
    bases = [pk.S, *pk.R, pow(pk.Z, -1, n), int(str(pk.S)), pk.S + n, other]
    terms = data.draw(
        st.lists(
            st.sampled_from(bases).flatmap(
                lambda b: st.tuples(st.just(b), _exponents(table_bits.get(b, table_bits[pk.S])))
            ),
            max_size=6,
        ),
        label="terms",
    )
    assert _mexp(pk, terms) == _mexp(pk, terms, {}) == math.prod(pow(b, e, n) for b, e in terms) % n


def test_mexp_table_boundary_and_errors(issuer512):
    pk, sk = issuer512
    n = pk.n
    assert _mexp(pk, []) == 1
    assert pk._tables.keys() == {pk._z_inv, pk.S, *pk.R}
    for base, table in pk._tables.items():
        bits = _WINDOW * len(table)
        for exp in (0, 1, (1 << bits) - 1, 1 << bits, -1, -(1 << bits)):
            assert _mexp(pk, [(base, exp)]) == pow(base, exp, n)
    for bad in (0, sk.p, sk.q * 5):
        with pytest.raises(ValueError):
            _mexp(pk, [(pk.S, 3), (bad, -1)])


def test_mexp_chain_at_each_width_threshold(issuer512):
    """Terms on rows of `_width` odd powers share one `_straus` chain. On
    both sides of each length where `_width` grows, it matches `pow`."""
    pk, _ = issuer512
    n = pk.n
    thresholds = [bits for bits in range(1, 2000) if _width(bits + 1) > _width(bits)]
    assert thresholds == [6, 24, 80, 240, 672, 1792]
    rng = random.Random(81)
    for t in thresholds:
        for bits in (t, t + 1):
            top = 1 << (bits - 1)
            terms = [(pk.S, (1 << bits) - 1), (rng.randrange(2, n - 1), top | rng.getrandbits(bits - 1)), (pk.R[0], top)]
            rows = [(_odd_powers(b, _width(e.bit_length()), n), e) for b, e in terms]
            assert _straus(rows, n) == math.prod(pow(b, e, n) for b, e in terms) % n


# -- the batch's squaring chain -------------------------------------------------

C = _chain_bits(PROFILES[512])


def _lhs(n, terms):
    return math.prod(pow(b, e, n) for b, e in terms) % n


def _pow_batch(pk, equations, weights):
    """The reference for `equations_hold`: prod_j (LHS_j / T_j)^(2 d_j) == 1, by `pow` alone."""
    n = pk.n
    return math.prod(pow(_lhs(n, terms) * pow(T, -1, n), 2 * d, n) for (terms, T), d in zip(equations, weights)) % n == 1


def _equation(pk, terms, T, eps=1):
    """An equation over `terms` and one more base, chosen so that LHS = eps T."""
    return Equation([*terms, (eps * T * pow(_lhs(pk.n, terms), -1, pk.n) % pk.n, 1)], T)


def _weights(seed, count):
    rng = random.Random(seed)
    return [rng.getrandbits(80) for _ in range(count)]


@pytest.fixture(scope="module")
def lab_shows(issued512):
    """Twenty honest shows of the session credential, with varied disclosure."""
    pk, _, hs, cred = issued512
    return [present(pk, cred, hs, {1 + i % 3, 1 + i % 2}, NONCE, CTX, random.Random(900 + i)) for i in range(20)]


@pytest.mark.parametrize("bits", [C - 1, C, C + 1, 2 * C + 1])
@given(data=st.data())
@settings(max_examples=3, deadline=None)
def test_batch_chain_at_chunk_edges(issuer512, lab_shows, bits, data):
    """A bundle whose S, R_0 and Z^-1 sums each have `bits` bits agrees with
    `pow`: the sums end at a chunk's edge, and at 2C + 1 bits the chunk bases
    of R_0 and Z^-1 lie past their tables' ends."""
    pk, _ = issuer512
    n = pk.n
    shows = [presentation_equation(pk, pres, NONCE, CTX) for pres in lab_shows[:3]]
    weights = [1, *data.draw(st.lists(st.integers(0, (1 << 80) - 1), min_size=3, max_size=3), label="weights")]
    terms = []
    for base in (pk.S, pk.R[0], pk._z_inv):
        target = data.draw(st.integers(1 << (bits - 1), (1 << bits) - 1), label="sum")
        others = sum(d * e for (ts, _), d in zip(shows, weights[1:]) for b, e in ts if b == base)
        terms.append((base, target - others))
    eps = data.draw(st.sampled_from([1, n - 1, 2]), label="eps")
    bundle = [_equation(pk, terms, data.draw(st.integers(2, n - 2), label="T"), eps), *shows]
    assert equations_hold(pk, bundle, weights) == _pow_batch(pk, bundle, weights) == (eps != 2)


def test_batch_of_twenty_runs_past_the_shortened_table(issuer512, lab_shows):
    """Twenty shows raise S to a sum longer than its table covers, and the
    batch still agrees with `pow`."""
    pk, _ = issuer512
    equations = [presentation_equation(pk, pres, NONCE, CTX) for pres in lab_shows]
    weights = _weights(82, 20)
    s_sum = sum(d * e for (terms, _), d in zip(equations, weights) for b, e in terms if b == pk.S)
    assert s_sum.bit_length() > _WINDOW * len(pk._tables[pk.S])
    assert equations_hold(pk, equations, weights) and _pow_batch(pk, equations, weights)
    equations[7] = Equation(equations[7].terms, 2 * equations[7].T % pk.n)  # the reference's product times 4^-d_7
    assert not equations_hold(pk, equations, weights)


@pytest.fixture(scope="module")
def negative_s_v_show(issued512):
    """A show made without `present`, with r_v < 0, so that s_v < 0 while
    its equation holds."""
    pk, _, hs, cred = issued512
    p, n = pk.params, pk.n
    rng = random.Random(83)
    r_A = rng.getrandbits(p.l_n + p.l_stat)
    a_prime = cred.A * pow(pk.S, r_A, n) % n
    r_e = rng.getrandbits(p.l_e_prime + p.l_stat + p.l_h)
    r_v = -rng.getrandbits(p.l_v + p.l_stat + p.l_h)
    r_k = rng.getrandbits(p.l_m + p.l_stat + p.l_h)
    T = pow(a_prime, r_e, n) * pow(pk.S, r_v, n) * pow(pk.R[0], r_k, n) % n
    disclosed = {i: claim.attribute for i, claim in enumerate(cred.claims, start=1)}
    c = _present_challenge(pk, a_prime, T, disclosed, NONCE, CTX)
    proof = PresentationProof(
        T=T,
        s_e=r_e + c * (cred.e - p.e_interval[0]),
        s_v=r_v + c * (cred.v - cred.e * r_A),
        s_k=r_k + c * hs.k,
        s_m={},
    )
    return Presentation(a_prime, disclosed, proof, NONCE, CTX, pk.issuer_id)


def test_batch_with_a_negative_s_v(issued512, lab_shows, negative_s_v_show, monkeypatch):
    """A show with s_v < 0 is refused with LengthCheckFailed before any
    exponentiation, although its equation holds, so it never joins a batch;
    `equations_hold` refuses a bundle whose S sum is negative."""
    pk, _, _, _ = issued512
    p, n = pk.params, pk.n
    pres = negative_s_v_show
    proof = pres.proof
    assert proof.s_v < 0
    c = _present_challenge(pk, pres.a_prime, proof.T, pres.disclosed, NONCE, CTX)
    ms = {i: encode_attribute(Claim(a, pk.issuer_id), p) for i, a in pres.disclosed.items()}
    args = (n, pk.S, pk.Z, pk.R, pres.a_prime, proof.s_e, proof.s_v, proof.s_k, {}, ms, c, p.l_e)
    assert oracle.presentation_commitment(*args) == proof.T
    with monkeypatch.context() as m:
        for name in ("_mexp", "_straus", "pow"):
            m.setattr(anoncred, name, _no_exponentiation, raising=False)
        for check in (verify_presentation, presentation_equation):
            with pytest.raises(LengthCheckFailed, match="s_v"):
                check(pk, pres, NONCE, CTX)
    terms = [(pres.a_prime, proof.s_e + c * p.e_interval[0]), (pk.S, proof.s_v), (pk.R[0], proof.s_k)]
    terms += [(pk.R[i], c * m) for i, m in ms.items()] + [(pk._z_inv, c)]
    equations = [Equation(terms, proof.T), presentation_equation(pk, lab_shows[0], NONCE, CTX)]
    weights = [1 << 79, 1]
    assert proof.s_v * weights[0] + dict(equations[1].terms)[pk.S] < 0
    with pytest.raises(ParameterError, match="negative"):
        equations_hold(pk, equations, weights)


class _NegatedFirstRv(random.Random):
    """Negates its first draw of r_v's length, so that the first s_v
    `present` computes is negative."""

    negated = False

    def getrandbits(self, k):
        x = super().getrandbits(k)
        p = PROFILES[512]
        if k == p.l_v + p.l_stat + p.l_h and not self.negated:
            self.negated = True
            return -x
        return x


def test_present_redraws_a_negative_s_v(issued512):
    """`present` never sends s_v < 0: it draws r_v again."""
    pk, _, hs, cred = issued512
    rng = _NegatedFirstRv(23)
    pres = present(pk, cred, hs, {1}, NONCE, CTX, rng)
    assert rng.negated and pres.proof.s_v >= 0
    assert verify_presentation(pk, pres, NONCE, CTX) == {cred.claims[0]}


def test_checked_shows_cost_at_most_one_pow_or_one_chain(issued512, lab_shows, negative_s_v_show, monkeypatch):
    """Cost ceilings at 512 bits, counted by test doubles of `pow` and
    `_straus`: verifying a show makes one `pow`, on A' and of at most
    l_e + l_h = 853 bits, and no chain; a bundle of 2-4 shows that pass
    `presentation_equation` runs one chain of at most `_chain_bits`
    squarings. Both hold for honest shows and for shows with every
    response at its upper bound; a show with s_v < 0 is refused."""
    pk, _, _, _ = issued512
    p = pk.params

    def top(bits):
        return (1 << (bits + 1)) - 1

    def at_bound(pres):
        short = top(p.l_m + p.l_stat + p.l_h)
        proof = replace(
            pres.proof,
            s_e=top(p.l_e_prime + p.l_stat + p.l_h),
            s_v=top(p.l_v + p.l_stat + p.l_h),
            s_k=short,
            s_m=dict.fromkeys(pres.proof.s_m, short),
        )
        return replace(pres, proof=proof)

    honest = lab_shows[:4]
    for pres in honest:
        verify_presentation(pk, pres, NONCE, CTX)  # builds the key's tables first
    pows, chains = [], []
    straus = anoncred._straus

    def counted_straus(terms, n):
        terms = list(terms)
        chains.append(max((e.bit_length() for _, e in terms), default=0))
        return straus(terms, n)

    monkeypatch.setattr(anoncred, "pow", lambda *args: pows.append(args[1].bit_length()) or pow(*args), raising=False)
    monkeypatch.setattr(anoncred, "_straus", counted_straus)
    for shows, valid in ((honest, True), ([at_bound(pres) for pres in honest], False)):
        for pres in shows:
            pows.clear()
            chains.clear()
            if valid:
                assert verify_presentation(pk, pres, NONCE, CTX)
            else:
                with pytest.raises(ProofInvalid):
                    verify_presentation(pk, pres, NONCE, CTX)
            assert len(pows) == 1 and pows[0] <= p.l_e + p.l_h == 853 and not chains
        for k in (2, 3, 4):
            equations = []
            for pres in [*shows[:k], negative_s_v_show]:
                try:
                    equations.append(presentation_equation(pk, pres, NONCE, CTX))
                except LengthCheckFailed:
                    assert pres is negative_s_v_show
            chains.clear()
            assert equations_hold(pk, equations, [(1 << p.l_stat) - 1] * len(equations)) == valid
            assert len(equations) == k and len(chains) == 1 and chains[0] <= C


def test_failed_bundle_costs_one_chain_and_one_pow_per_show(issued512, lab_shows, monkeypatch):
    """Cost ceiling of a failed batch at 512 bits, counted by the test
    doubles above: four same-key shows, one with s_k + 1, make `gate.access`
    run one chain, which fails, with its one inversion, and then one `pow`
    per show as it checks them one by one. The rejections are those of
    checking one by one."""
    pk, _, _, _ = issued512
    p = pk.params
    honest = lab_shows[:4]
    bundle = [*honest[:2], replace(honest[2], proof=replace(honest[2].proof, s_k=honest[2].proof.s_k + 1)), honest[3]]
    one_by_one = []
    for idx, pres in enumerate(bundle):
        try:
            verify_presentation(pk, pres, NONCE, CTX)
        except AbcError as exc:
            one_by_one.append((idx, exc.code))
    assert one_by_one == [(2, "ProofInvalid")]
    registry = gate.Registry({"library": gate.DomainSpec("library", {"lab"})}, {"lab": pk})
    req = AccessRequest("read", "audio", "song1", "library", datetime(2026, 8, 3, 9))
    assert gate.access(registry, "library", req, honest, NONCE).presentation_errors == ()  # fills the key's rows

    pows, chains = [], []
    straus = anoncred._straus

    def counted_straus(terms, n):
        terms = list(terms)
        chains.append(max((e.bit_length() for _, e in terms), default=0))
        return straus(terms, n)

    monkeypatch.setattr(anoncred, "pow", lambda *args: pows.append(args[1]) or pow(*args), raising=False)
    monkeypatch.setattr(anoncred, "_straus", counted_straus)
    out = gate.access(registry, "library", req, bundle, NONCE)
    assert out.presentation_errors == tuple(one_by_one)
    assert len(chains) == 1 and chains[0] <= C
    exponents = [e for e in pows if e != -1]
    assert len(pows) - len(exponents) == 1  # the chain's P^-1
    assert len(exponents) <= len(bundle) and max(e.bit_length() for e in exponents) <= p.l_e + p.l_h


@pytest.mark.parametrize("slot", ["a_prime", "T"])
@pytest.mark.parametrize("which", ["S", "R_0"])
@pytest.mark.parametrize("eps", [1, 2])
def test_batch_with_a_show_on_a_key_base(issuer512, lab_shows, slot, which, eps):
    """A show whose A' or T equals S or R_0: its exponent joins that key
    base's sum, and the batch still agrees with `pow`."""
    pk, _ = issuer512
    base = pk.S if which == "S" else pk.R[0]
    shown = lab_shows[0]
    (_, a_exp), *rest = presentation_equation(pk, shown, NONCE, CTX).terms
    a_prime, T = (base, shown.proof.T) if slot == "a_prime" else (shown.a_prime, base)
    equations = [_equation(pk, [(a_prime, a_exp), *rest], T, eps)]
    equations += [presentation_equation(pk, pres, NONCE, CTX) for pres in lab_shows[1:3]]
    weights = _weights(84, 3)
    assert equations_hold(pk, equations, weights) == _pow_batch(pk, equations, weights) == (eps == 1)


def test_batch_with_a_zero_weight(issuer512, lab_shows):
    """A weight of 0 takes its equation out of the batch, true or false."""
    pk, _ = issuer512
    equations = [presentation_equation(pk, pres, NONCE, CTX) for pres in lab_shows[:3]]
    equations[1] = Equation(equations[1].terms, 2 * equations[1].T % pk.n)
    weights = _weights(85, 3)
    for weight, holds in ((0, True), (weights[1], False)):
        weights[1] = weight
        assert equations_hold(pk, equations, weights) == _pow_batch(pk, equations, weights) == holds


def test_key_with_bad_base_is_refused(issuer512):
    """A base that is not a unit, or lies outside [2, n-2], is refused when
    the key is built, and a key document holding one does not load."""
    pk, sk = issuer512
    bad_bases = [("Z", "z", sk.p), ("S", "s", 1), ("R", "r", (pk.n - 1, *pk.R[1:]))]
    for attr, key, value in bad_bases:
        with pytest.raises(ParameterError, match="unit mod n"):
            replace(pk, **{attr: value})
        doc = wire.public_key_to_json(pk)
        doc[key] = [wire.int_to_hex(r) for r in value] if key == "r" else wire.int_to_hex(value)
        with pytest.raises(wire.FormatError, match="unit mod n"):
            wire.public_key_from_json(doc)


@pytest.mark.parametrize("L", [1, 2, 3])
def test_toy_keys_have_unit_bases(L):
    """Key generation redraws a base that is not a unit, even at toy size,
    where about one key in fourteen would otherwise draw one."""
    for seed in range(1, 200):
        pk, _ = toy_issuer(seed=seed, L=L)
        assert all(math.gcd(b, pk.n) == 1 for b in (pk.S, pk.Z, *pk.R))


def test_honest_toy_holders_are_never_refused():
    """At toy size U or A' can come out as ±1, which the group rule refuses;
    the holder redraws v' or r_A then. Without the redraw these four
    holders' requests are refused, and 7 of these 2000 shows."""
    for seed in (175, 324, 337, 391):
        pk, _ = toy_issuer(seed)
        rng = random.Random(seed)
        req, _ = begin_issuance(pk, holder_keygen(rng, TOY_PARAMS.l_m), NONCE, rng)
        verify_issuance_request(pk, req)
    pk, sk = toy_issuer(5, L=2)
    rng = random.Random(5)
    hs = holder_keygen(rng, TOY_PARAMS.l_m)
    req, state = begin_issuance(pk, hs, NONCE, rng)
    pre = issue(sk, pk, req, make_claims(("a5", "a6"), pk.issuer_id), metadata(pk.issuer_id, "c_toy"), rng)
    cred = complete_credential(pre, state, hs)
    for _ in range(2000):
        verify_presentation(pk, present(pk, cred, hs, {1}, NONCE, CTX, rng), NONCE, CTX)
    # A' of a non-unit A is never a unit: no redraw helps, and the show is refused.
    forged = present(pk, replace(cred, A=TOY_P), hs, {1}, NONCE, CTX, rng)
    with pytest.raises(ProofInvalid):
        verify_presentation(pk, forged, NONCE, CTX)


def _non_residue_request(pk, hs, nonce, rng):
    """An issuance request for U = -S^v' R0^k, which is not a quadratic
    residue mod n. Its proof still verifies when the challenge is even,
    because then U^-c = (S^v' R0^k)^-c."""
    p = pk.params
    while True:
        v_prime = rng.getrandbits(p.l_n + p.l_stat)
        U = pk.n - oracle.commitment_value(pk.n, pk.S, pk.R[0], v_prime, hs.k)
        r_v = rng.getrandbits(p.l_n + 2 * p.l_stat + p.l_h)
        r_k = rng.getrandbits(p.l_m + p.l_stat + p.l_h)
        T = oracle.commitment_value(pk.n, pk.S, pk.R[0], r_v, r_k)
        c = _issue_challenge(pk, U, T, nonce)
        if c % 2 == 0 and 2 <= U <= pk.n - 2:
            return IssuanceRequest(U=U, c=c, s_v=r_v + c * v_prime, s_k=r_k + c * hs.k, nonce=nonce)


@pytest.mark.parametrize("size", ["toy", 512])
def test_crt_signature_on_non_residue_commitment(issuer512, size):
    pk, sk = toy_issuer(seed=31, L=3) if size == "toy" else issuer512
    rng = random.Random(32)
    hs = holder_keygen(rng, pk.params.l_m)
    req = _non_residue_request(pk, hs, NONCE, rng)
    assert not legendre_symbol(req.U, sk.p) == legendre_symbol(req.U, sk.q) == 1
    claims = make_claims(("q1", "q2", "q3"), pk.issuer_id)
    pre = issue(sk, pk, req, claims, metadata(pk.issuer_id, "c_nqr"), rng)
    ms = [encode_attribute(c, pk.params) for c in claims]
    assert pre.A == oracle.issue_signature_part(
        pk.n, sk.p, sk.q, pk.Z, pk.S, pk.R, req.U, pre.e, pre.v_dprime, ms
    )


def _count_pow(monkeypatch):
    """Record every `pow` call made inside abcid.anoncred from now on."""
    calls = []

    def counting_pow(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(anoncred, "pow", counting_pow, raising=False)
    return calls


def test_repeat_show_raises_only_fixed_bases(issued512, monkeypatch):
    """A second show of a credential makes no variable-base exponentiation;
    a verify on a warm key makes exactly one, A'^(s_e + c*2^(l_e-1))."""
    pk, _, hs, cred = issued512
    cred = replace(cred)
    rng = random.Random(28)
    verify_presentation(pk, present(pk, cred, hs, {1}, NONCE, CTX, rng), NONCE, CTX)
    calls = _count_pow(monkeypatch)
    pres = present(pk, cred, hs, {2}, NONCE, CTX, rng)
    assert calls == []
    verify_presentation(pk, pres, NONCE, CTX)
    assert len(calls) == 1 and calls[0][0] == pres.a_prime


def _a_table(pk, cred):
    p = pk.params
    return pk._table(cred.A, p.l_e_prime + p.l_stat + p.l_h)


def test_credential_table_stays_in_memory(issued512, tmp_path):
    """The first show builds a table of A on the credential alone: wallet
    and presentation bytes do not change, the shared key collects no A,
    and neither completing nor verifying builds a table. A batch of four
    shows caches rows of the key's own bases only, never of an A' or T."""
    pk, sk, hs, cred = issued512
    fresh = replace(pk)
    rng = random.Random(30)
    req, state = begin_issuance(fresh, hs, NONCE, rng)
    pre = issue(sk, fresh, req, cred.claims, metadata(pk.issuer_id, "c_table"), rng)
    new = complete_credential(pre, state, hs)
    assert "_a_tables" not in vars(new)
    wallet_save(Wallet(hs, [new]), tmp_path / "before.json")
    shows = [wire.presentation_to_json(present(fresh, new, hs, {1}, NONCE, CTX, random.Random(31))) for _ in range(2)]
    assert shows[0] == shows[1]
    assert vars(new)["_a_tables"] == {pk.n: _a_table(pk, new)}
    wallet_save(Wallet(hs, [new]), tmp_path / "after.json")
    assert (tmp_path / "after.json").read_bytes() == (tmp_path / "before.json").read_bytes()
    verify_presentation(fresh, wire.presentation_from_json(shows[0]), NONCE, CTX)
    assert vars(new)["_a_tables"].keys() == {pk.n}
    assert vars(fresh).keys() - {f.name for f in fields(fresh)} == {"_tables", "_z_inv", "_digest"}
    assert new.A not in fresh._tables
    registry = gate.Registry({"library": gate.DomainSpec("library", {"lab"})}, {"lab": fresh})
    req = AccessRequest("read", "audio", "song1", "library", datetime(2026, 8, 3, 9))
    four = [present(fresh, new, hs, {1 + i % 3}, NONCE, CTX, random.Random(32 + i)) for i in range(4)]
    out = gate.access(registry, "library", req, four, NONCE)
    assert out.presentation_errors == () and out.verified == set(new.claims)
    assert vars(fresh).keys() - {f.name for f in fields(fresh)} == {"_tables", "_z_inv", "_digest", "_rows"}
    assert fresh._rows and {base for base, _ in fresh._rows} <= {fresh._z_inv, fresh.S, *fresh.R}


def test_credential_table_per_modulus():
    """Shown under a second key with another n, a credential gets a second
    table; the first is never applied mod the other n."""
    pk, _, hs, _, _, cred, rng = toy_credential()
    other, _ = setup_issuer_from_primes(pk.L, TOY_P, 59, TOY_PARAMS, rng, pk.issuer_id)
    warm = replace(cred)
    present(pk, warm, hs, {1}, NONCE, CTX, rng)
    shows = [present(other, c, hs, {1}, NONCE, CTX, random.Random(33)) for c in (warm, replace(cred))]
    assert shows[0] == shows[1]
    assert vars(warm)["_a_tables"] == {pk.n: _a_table(pk, cred), other.n: _a_table(other, cred)}


def test_one_credential_shown_from_threads(issued512):
    pk, _, hs, cred = issued512
    fresh = replace(cred)  # the threads race to build its table
    start = Barrier(4, timeout=60)

    def rounds(seed):
        rng = random.Random(seed)
        start.wait()
        return [
            verify_presentation(pk, present(pk, fresh, hs, {1 + r % 3}, NONCE, CTX, rng), NONCE, CTX)
            for r in range(5)
        ]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(rounds, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert results == [[frozenset({cred.claims[r % 3]}) for r in range(5)]] * 4
    assert vars(fresh)["_a_tables"] == {pk.n: _a_table(pk, cred)}


def test_fresh_key_shared_across_threads(issued512):
    pk, _, hs, cred = issued512
    fresh = replace(pk)
    assert "_tables" not in vars(fresh)  # the threads race to build them
    start = Barrier(4, timeout=60)

    def rounds(seed):
        rng = random.Random(seed)
        start.wait()
        shown = []
        for r in range(5):
            pres = present(fresh, cred, hs, {1 + r % 3}, NONCE, CTX, rng)
            shown.append(verify_presentation(fresh, pres, NONCE, CTX))
        return shown

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(rounds, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert results == [[frozenset({cred.claims[r % 3]}) for r in range(5)]] * 4


def test_batch_rows_filled_from_threads(issuer512, lab_shows):
    """Threads racing to fill a fresh key's row cache all get the verdicts
    of one thread, and leave the rows one thread fills."""
    pk, _ = issuer512
    equations = [presentation_equation(pk, pres, NONCE, CTX) for pres in lab_shows[:3]]
    lone = replace(pk)
    assert equations_hold(lone, equations, _weights(86, 3))
    fresh = replace(pk)
    start = Barrier(4, timeout=60)

    def rounds(seed):
        start.wait()
        return [equations_hold(fresh, equations, _weights(seed + r, 3)) for r in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(rounds, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert results == [[True] * 3] * 4
    assert fresh._rows == lone._rows
