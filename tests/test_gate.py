import math
import random
from datetime import date, datetime, timezone
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcid import anoncred, wire
from abcid.anoncred import (
    AbcError,
    Credential,
    CredentialMetadata,
    EncodingError,
    LengthCheckFailed,
    Presentation,
    PresentationProof,
    ProofInvalid,
    _present_challenge,
    begin_issuance,
    encode_attribute,
    holder_keygen,
    issue,
    present,
    signature_holds,
    verify_presentation,
)
from abcid.gate import (
    CREDENTIAL_ATTRS,
    AccessOutcome,
    DOMAIN_ATTRS,
    REFERENCE_CREDENTIAL_SETS,
    DomainSpec,
    DuplicateDomain,
    GateError,
    KeyDigestMismatch,
    Registry,
    UnknownDomain,
    _trusted_key,
    access,
    context_string,
    register_domain,
    registry_from_json,
    registry_to_json,
)
from abcid.model import Attribute, Claim, replace, select_credentials
from abcid.policy import PRESENTATION_REJECTED, AccessRequest, Decision, attribute_missing, evaluate, parse_policy
from abcid.primes import random_prime_in_interval

from test_anoncred import _leaf_mutants

MONDAY_9 = datetime(2026, 8, 3, 9, 0, tzinfo=timezone.utc)
NONCE = b"\x42" * 16


def request_for(domain_id: str, action: str, rtype: str, rname: str = "r1") -> AccessRequest:
    return AccessRequest(
        action=action, resource_type=rtype, resource_name=rname,
        domain_id=domain_id, at=MONDAY_9,
    )


def show(fx, cid: str, nonce: bytes, ctx: str, seed: int = 0):
    cred = fx.wallet.find(cid)
    pk = fx.public_key(cred.metadata.issuer_id)
    indices = set(range(1, len(cred.claims) + 1))
    return present(pk, cred, fx.holder_secret, indices, nonce, ctx, random.Random(seed))


# -- registry ------------------------------------------------------------------

def test_register_and_lookup():
    reg = Registry()
    spec = DomainSpec("library", frozenset({"campus"}))
    assert register_domain(reg, spec) is reg
    assert reg.domains["library"] == spec
    with pytest.raises(DuplicateDomain):
        register_domain(reg, spec)


def test_domain_spec_needs_trusted_issuers():
    with pytest.raises(ValueError):
        DomainSpec("d", frozenset())


def test_fixture_has_four_domains(ref_fx):
    """The registry lists the issuers each domain trusts; what a domain
    requires comes from the fixture's own table."""
    assert {d: (spec.domain_id, spec.trusted_issuers) for d, spec in ref_fx.registry.domains.items()} == {
        "medical_files": ("medical_files", {"campus_office"}),
        "students_marks": ("students_marks", {"campus_office"}),
        "library": ("library", {"campus_office", "registry_office"}),
        "staff_bus": ("staff_bus", {"campus_office"}),
    }
    assert {d: ref_fx.required_names(d) for d in DOMAIN_ATTRS} == {
        "medical_files": {"medical_staff", "school_member"},
        "students_marks": {"teacher"},
        "library": {"school_member", "library_subscriber"},
        "staff_bus": {"staff", "school_member"},
    }


def test_context_string_escapes_separator():
    assert context_string("d", "t", "a|b", "read") == "d|t|a%7Cb|read"
    assert context_string("d", "t", "a b", "read") == "d|t|a%20b|read"


def test_registry_persistence_round_trip(ref_fx):
    doc = registry_to_json(ref_fx.registry)
    pk = ref_fx.public_key("campus_office")
    reg2 = registry_from_json(doc, [pk])
    assert set(reg2.domains) == set(ref_fx.registry.domains)
    assert reg2.domains["library"] == ref_fx.registry.domains["library"]
    assert reg2.issuer_keys == {"campus_office": pk}
    with pytest.raises(KeyDigestMismatch, match="'stranger'"):
        registry_from_json(doc, [replace(pk, issuer_id="stranger")])
    with pytest.raises(KeyDigestMismatch, match="'campus_office'"):
        registry_from_json(doc, [replace(pk, Z=pk.Z + 1)])


def test_registry_loads_with_every_listed_key(ref_fx):
    doc = registry_to_json(ref_fx.registry)
    keys = [ref_fx.public_key(issuer_id) for issuer_id in doc["issuer_key_digests"]]
    assert registry_to_json(registry_from_json(doc, keys)) == doc


def test_documents_with_removed_fields_still_load(ref_fx):
    """Registries and presentations written before `policy_files`,
    `policy_ids`, `required_attrs`, the presentation-level `schema_id` and
    each disclosed claim's `issuer_id` and `schema_id` were dropped still
    load; the keys are ignored, and a disclosed attribute verifies as a
    claim of the key's issuer whatever issuer the old entry named."""
    doc = {**registry_to_json(ref_fx.registry), "policy_files": {"library_audio_read": "policies/library.pol"}}
    doc["domains"] = [{**d, "policy_ids": ["ghost"], "required_attrs": ["a6"]} for d in doc["domains"]]
    reg2 = registry_from_json(doc, [])
    assert reg2.domains == ref_fx.registry.domains
    ctx = context_string("medical_files", "patient_file", "r1", "write")
    pres = show(ref_fx, "c1", NONCE, ctx, 12)
    old = {**wire.presentation_to_json(pres), "schema_id": "fixture_v1"}
    stale = {"issuer_id": "registry_office", "schema_id": "fixture_v1"}
    old["disclosed"] = {i: {**entry, **stale} for i, entry in old["disclosed"].items()}
    assert wire.presentation_from_json(old) == pres
    verified = verify_presentation(ref_fx.public_key("campus_office"), wire.presentation_from_json(old), NONCE, ctx)
    assert verified == {Claim(Attribute("medical_staff", "true"), "campus_office")}


# -- access --------------------------------------------------------------------

def test_access_d1_permit(ref_fx):
    ctx = context_string("medical_files", "patient_file", "record_42", "write")
    req = request_for("medical_files", "write", "patient_file", "record_42")
    pres = [show(ref_fx, "c1", NONCE, ctx, 1), show(ref_fx, "c5", NONCE, ctx, 2)]
    out = access(ref_fx.registry, "medical_files", req, pres, NONCE)
    assert out.decision.outcome == "Permit"
    assert out.decision.matched_policy == "medical_files_write"
    assert out.presentation_errors == ()
    assert {c.attribute.name for c in out.verified} == {"medical_staff", "school_member"}


def test_access_d4_missing_attribute(ref_fx):
    ctx = context_string("staff_bus", "bus", "line_2", "board")
    req = request_for("staff_bus", "board", "bus", "line_2")
    out = access(ref_fx.registry, "staff_bus", req, [show(ref_fx, "c4", NONCE, ctx)], NONCE)
    assert out.decision.outcome == "Deny"
    assert out.presentation_errors == ()
    assert attribute_missing("school_member") in out.decision.reasons


def test_access_mutated_presentation_forces_deny(ref_fx):
    ctx = context_string("medical_files", "patient_file", "record_42", "write")
    req = request_for("medical_files", "write", "patient_file", "record_42")
    good_1 = show(ref_fx, "c1", NONCE, ctx, 3)
    good_5 = show(ref_fx, "c5", NONCE, ctx, 4)
    broken = replace(good_5, proof=replace(good_5.proof, s_k=good_5.proof.s_k + 1))
    out = access(ref_fx.registry, "medical_files", req, [good_1, broken], NONCE)
    assert out.decision.outcome == "Deny"
    assert out.presentation_errors == ((1, "ProofInvalid"),)


def test_access_even_sufficient_claims_cannot_override_failures(ref_fx):
    # Both required attributes verified, plus one broken extra transcript.
    ctx = context_string("medical_files", "patient_file", "record_42", "write")
    req = request_for("medical_files", "write", "patient_file", "record_42")
    p1 = show(ref_fx, "c1", NONCE, ctx, 5)
    p5 = show(ref_fx, "c5", NONCE, ctx, 6)
    broken = replace(p5, a_prime=p5.a_prime + 1)
    out = access(ref_fx.registry, "medical_files", req, [p1, p5, broken], NONCE)
    assert out.decision.outcome == "Deny"
    assert out.decision.reasons == ("PresentationRejected",)
    assert (2, "ProofInvalid") in out.presentation_errors
    assert {c.attribute.name for c in out.verified} == {"medical_staff", "school_member"}


def test_permit_cannot_carry_presentation_errors():
    permit = Decision("Permit", "p0", ("Permitted",))
    assert AccessOutcome(permit, frozenset(), ()).decision == permit
    with pytest.raises(ValueError, match="Permit cannot coexist with presentation errors"):
        AccessOutcome(permit, frozenset(), ((0, "ProofInvalid"),))


def test_access_wrong_nonce_is_replay(ref_fx):
    ctx = context_string("medical_files", "patient_file", "record_42", "write")
    req = request_for("medical_files", "write", "patient_file", "record_42")
    stale = show(ref_fx, "c1", b"\x01" * 16, ctx, 7)
    out = access(ref_fx.registry, "medical_files", req, [stale], NONCE)
    assert out.decision.outcome == "Deny"
    assert out.presentation_errors == ((0, "NonceMismatch"),)


def test_access_untrusted_issuer(ref_fx):
    # students_marks only trusts campus_office; c2 comes from registry_office.
    ctx = context_string("students_marks", "marks", "math", "read")
    req = request_for("students_marks", "read", "marks", "math")
    out = access(ref_fx.registry, "students_marks", req, [show(ref_fx, "c2", NONCE, ctx, 8)], NONCE)
    assert out.presentation_errors == ((0, "UntrustedIssuer"),)
    assert out.decision.outcome == "Deny"
    # A trusted issuer whose key was never attached fares no better.
    keyless = replace(ref_fx.registry, issuer_keys={})
    out = access(keyless, "students_marks", req, [show(ref_fx, "c3", NONCE, ctx, 8)], NONCE)
    assert out.presentation_errors == ((0, "UnknownIssuerKey"),)
    assert out.decision.outcome == "Deny"


def test_untrusted_presentation_is_never_verified(ref_fx, monkeypatch):
    """The trust check comes first: a domain spends no verify on an issuer
    it does not trust, or on one whose key it does not hold."""
    monkeypatch.setattr("abcid.gate.verify_presentation", lambda *args: pytest.fail("verify was called"))
    ctx = context_string("students_marks", "marks", "math", "read")
    req = request_for("students_marks", "read", "marks", "math")
    # The registry holds registry_office's key, but students_marks does not trust it.
    out = access(ref_fx.registry, "students_marks", req, [show(ref_fx, "c2", NONCE, ctx, 8)], NONCE)
    assert out.presentation_errors == ((0, "UntrustedIssuer"),)
    keyless = replace(ref_fx.registry, issuer_keys={})
    out = access(keyless, "students_marks", req, [show(ref_fx, "c3", NONCE, ctx, 8)], NONCE)
    assert out.presentation_errors == ((0, "UnknownIssuerKey"),)


def test_access_empty_presentations_denies_every_domain(ref_fx):
    cases = {
        "medical_files": ("write", "patient_file"),
        "students_marks": ("read", "marks"),
        "library": ("read", "audio"),
        "staff_bus": ("board", "bus"),
    }
    for domain_id, (action, rtype) in cases.items():
        req = request_for(domain_id, action, rtype)
        out = access(ref_fx.registry, domain_id, req, [], NONCE)
        assert out.decision.outcome == "Deny", domain_id


def test_access_pools_disclosed_claims_exactly(ref_fx):
    ctx = context_string("library", "audio", "song1", "read")
    req = request_for("library", "read", "audio", "song1")
    p2 = show(ref_fx, "c2", NONCE, ctx, 9)
    p5 = show(ref_fx, "c5", NONCE, ctx, 10)
    out = access(ref_fx.registry, "library", req, [p2, p5], NONCE)
    assert out.verified == {*ref_fx.wallet.find("c2").claims, *ref_fx.wallet.find("c5").claims}
    # The library policy also wants `student`, which no credential provides:
    # the fixture's deliberate inconsistency, surfacing as a Deny.
    assert out.decision.outcome == "Deny"
    assert out.decision.reasons == (attribute_missing("student"),)


def test_access_unknown_domain(ref_fx):
    req = request_for("nowhere", "read", "thing")
    with pytest.raises(UnknownDomain):
        access(ref_fx.registry, "nowhere", req, [], NONCE)


def test_access_requires_matching_request_domain(ref_fx):
    req = request_for("library", "read", "audio")
    with pytest.raises(ValueError):
        access(ref_fx.registry, "medical_files", req, [], NONCE)


def test_access_with_explicit_policies(ref_fx):
    reg = Registry()
    register_domain(reg, DomainSpec("pool", frozenset({"campus_office"})))
    reg.issuer_keys["campus_office"] = ref_fx.public_key("campus_office")
    policy = parse_policy("permit subjects with medical_staff may dive on resources in domain pool")
    reg.policies["pool_rule"] = policy
    ctx = context_string("pool", "lane", "l1", "dive")
    req = request_for("pool", "dive", "lane", "l1")
    pres = show(ref_fx, "c1", NONCE, ctx, 11)
    out = access(reg, "pool", req, [pres], NONCE)
    assert out.decision.outcome == "Permit"
    assert out.decision.matched_policy == "pool_rule"


def _two_domain_registry(ref_fx) -> Registry:
    """`gym` and `pool` in one registry, the gym policy first. Each policy
    would permit the other domain's requests if it were consulted there."""
    reg = Registry()
    for domain_id in ("gym", "pool"):
        register_domain(reg, DomainSpec(domain_id, frozenset({"campus_office"})))
    reg.issuer_keys["campus_office"] = ref_fx.public_key("campus_office")
    reg.policies["gym_medics"] = parse_policy("permit subjects with medical_staff may dive on resources in domain gym")
    reg.policies["pool_staff"] = parse_policy("permit subjects with staff may dive on resources in domain pool")
    return reg


@pytest.mark.parametrize("domain_id, cid, outcome, matched, reasons", [
    ("gym", "c1", "Permit", "gym_medics", ("Permitted",)),
    ("gym", "c4", "Deny", None, (attribute_missing("medical_staff"),)),
    ("pool", "c4", "Permit", "pool_staff", ("Permitted",)),
    ("pool", "c1", "Deny", None, (attribute_missing("staff"),)),
])
def test_each_domain_is_decided_by_its_own_policies(ref_fx, domain_id, cid, outcome, matched, reasons):
    reg = _two_domain_registry(ref_fx)
    ctx = context_string(domain_id, "lane", "l1", "dive")
    out = access(reg, domain_id, request_for(domain_id, "dive", "lane", "l1"), [show(ref_fx, cid, NONCE, ctx, 13)], NONCE)
    assert out.presentation_errors == ()
    assert (out.decision.outcome, out.decision.matched_policy, out.decision.reasons) == (outcome, matched, reasons)


def test_domain_without_its_own_policy_denies(ref_fx):
    reg = _two_domain_registry(ref_fx)
    register_domain(reg, DomainSpec("sauna", frozenset({"campus_office"})))
    ctx = context_string("sauna", "lane", "l1", "dive")
    pres = [show(ref_fx, cid, NONCE, ctx, 14) for cid in ("c1", "c4")]
    out = access(reg, "sauna", request_for("sauna", "dive", "lane", "l1"), pres, NONCE)
    assert out.presentation_errors == ()
    assert (out.decision.outcome, out.decision.reasons) == ("Deny", ("NoPolicyForDomain",))


# -- fixture credential/attribute/domain mapping -----------------------------------

def test_fixture_selection_matches_reference(ref_fx):
    summaries = ref_fx.wallet.summaries()
    assert select_credentials(ref_fx.required_names("medical_files"), summaries) == ["c1", "c5"]
    assert select_credentials(ref_fx.required_names("students_marks"), summaries) == ["c3"]
    assert select_credentials(ref_fx.required_names("staff_bus"), summaries) == ["c4", "c5"]


def test_fixture_library_selection_documented_discrepancy(ref_fx):
    """The reference mapping lists {c2, c5} for the library, but c2 alone
    covers {a6, a7}; greedy returns the smaller cover. Assert both facts
    plus the full minimal-cover enumeration."""
    summaries = ref_fx.wallet.summaries()
    required = ref_fx.required_names("library")
    picked = select_credentials(required, summaries)
    assert picked == ["c2"]

    covered = set()
    for cid in picked:
        covered |= summaries[cid]
    assert required <= covered

    paper_set = REFERENCE_CREDENTIAL_SETS["library"]
    paper_union = set()
    for cid in paper_set:
        paper_union |= summaries[cid]
    assert required <= paper_union  # the reference set covers too

    min_sizes = [
        len(combo)
        for size in range(1, len(summaries) + 1)
        for combo in combinations(summaries, size)
        if required <= {a for cid in combo for a in summaries[cid]}
    ]
    assert len(picked) == min(min_sizes)


def test_fixture_credential_sets_cover_their_domains(ref_fx):
    summaries = ref_fx.wallet.summaries()
    for domain_id, creds in REFERENCE_CREDENTIAL_SETS.items():
        union = set()
        for cid in creds:
            union |= summaries[cid]
        assert ref_fx.required_names(domain_id) <= union, domain_id


def test_fixture_wallet_contents(ref_fx):
    assert [c.metadata.credential_id for c in ref_fx.wallet.credentials] == [
        "c1", "c2", "c3", "c4", "c5",
    ]
    for cid, codes in CREDENTIAL_ATTRS.items():
        cred = ref_fx.wallet.find(cid)
        assert tuple(c.attribute.name for c in cred.claims) == tuple(
            ref_fx.attributes[code].name for code in codes
        )


# -- credentials made without `issue` ---------------------------------------------

MEDICAL_CTX = context_string("medical_files", "patient_file", "record_42", "write")


def signed_without_issue(pk, claim, hs, e, d, rng):
    """A one-claim credential with a chosen e: A = (Z / S^v R0^k R1^m)^d
    mod n, made without the checks in `issue` and `complete_credential`.
    d = 1/e mod p'q' needs the issuer's secret key; e = d = 1 needs only pk."""
    n = pk.n
    v = rng.getrandbits(pk.params.l_v)
    m = encode_attribute(claim, pk.params)
    denom = pow(pk.S, v, n) * pow(pk.R[0], hs.k, n) * pow(pk.R[1], m, n) % n
    A = pow(pk.Z * pow(denom, -1, n) % n, d, n)
    assert signature_holds(pk, A, e, v, hs.k, [m])
    metadata = CredentialMetadata(pk.issuer_id, "fixture_v1", date(2026, 1, 1))
    return Credential(A=A, e=e, v=v, claims=(claim,), metadata=metadata)


def test_e_outside_its_interval_is_rejected(ref_fx):
    """Soundness harness: with e = 1, anyone holding campus_office's public
    key can sign any claim. The proof of e - 2^(l_e-1) rejects such shows,
    and shows of issuer-signed credentials whose e lies far off the interval."""
    pk, sk = ref_fx.issuer_keys["campus_office"]
    rng = random.Random(61)
    forger = holder_keygen(rng)
    shows = []
    for name in ("medical_staff", "school_member"):
        claim = Claim(Attribute(name, "true"), "campus_office", "fixture_v1")
        cred = signed_without_issue(pk, claim, forger, 1, 1, rng)
        pres = present(pk, cred, forger, {1}, NONCE, MEDICAL_CTX, rng)
        with pytest.raises(LengthCheckFailed):
            verify_presentation(pk, pres, NONCE, MEDICAL_CTX)
        shows.append(pres)
    req = request_for("medical_files", "write", "patient_file", "record_42")
    out = access(ref_fx.registry, "medical_files", req, shows, NONCE)
    assert out.decision.outcome == "Deny"
    assert out.presentation_errors == ((0, "LengthCheckFailed"), (1, "LengthCheckFailed"))

    p = pk.params
    lo, hi = p.e_interval
    order = sk.group_order
    claim = Claim(Attribute("medical_staff", "true"), "campus_office")

    def odd_unit(e):
        e |= 1
        while math.gcd(e, order) != 1:
            e += 2
        return e

    e_ok = random_prime_in_interval(lo, hi, rng)
    far = 1 << (p.l_e_prime + p.l_stat + 32)
    for e, verifies in ((e_ok, True), (odd_unit(lo + far), False), (odd_unit(lo - far), False)):
        cred = signed_without_issue(pk, claim, forger, e, pow(e, -1, order), rng)
        pres = present(pk, cred, forger, {1}, NONCE, MEDICAL_CTX, rng)
        if verifies:
            assert verify_presentation(pk, pres, NONCE, MEDICAL_CTX) == {claim}
        else:
            with pytest.raises(LengthCheckFailed):
                verify_presentation(pk, pres, NONCE, MEDICAL_CTX)


def test_issuer_certifies_only_its_own_claims(ref_fx):
    pk, sk = ref_fx.issuer_keys["campus_office"]
    rng = random.Random(62)
    foreign = Claim(Attribute("school_member", "true"), "registry_office", "fixture_v1")
    req, _ = begin_issuance(pk, ref_fx.holder_secret, NONCE, rng)
    with pytest.raises(EncodingError):
        issue(sk, pk, req, (foreign,), ref_fx.wallet.find("c5").metadata, rng)
    # A credential signed before `issue` checked claim issuers: the holder
    # refuses to show it before drawing any randomness, and a show made
    # under the key relabelled to the claim's issuer does not verify,
    # whichever issuer it names: its challenge hashes the relabelled key.
    e = random_prime_in_interval(*pk.params.e_interval, rng)
    cred = signed_without_issue(pk, foreign, ref_fx.holder_secret, e, pow(e, -1, sk.group_order), rng)
    state = rng.getstate()
    with pytest.raises(EncodingError, match="a claim names another issuer"):
        present(pk, cred, ref_fx.holder_secret, {1}, NONCE, MEDICAL_CTX, rng)
    assert rng.getstate() == state
    relabelled = replace(pk, issuer_id="registry_office")
    pres = present(relabelled, cred, ref_fx.holder_secret, {1}, NONCE, MEDICAL_CTX, rng)
    for shown in (pres, replace(pres, issuer_id="campus_office")):
        with pytest.raises(ProofInvalid):
            verify_presentation(pk, shown, NONCE, MEDICAL_CTX)


# -- shows under one key, verified together -----------------------------------------

MEDICAL_REQ = request_for("medical_files", "write", "patient_file", "record_42")


def hand_made_show(fx, cid: str, rng, eps: int = 1):
    """A show of every claim of `cid`, made without `present`, whose T is eps
    times its honest commitment mod n and whose responses answer the
    challenge of that T, so that LHS = T / eps."""
    cred = fx.wallet.find(cid)
    pk = fx.public_key(cred.metadata.issuer_id)
    p, n = pk.params, pk.n
    r_A = rng.getrandbits(p.l_n + p.l_stat)
    a_prime = cred.A * pow(pk.S, r_A, n) % n
    r_e = rng.getrandbits(p.l_e_prime + p.l_stat + p.l_h)
    r_v = rng.getrandbits(p.l_v + p.l_stat + p.l_h)
    r_k = rng.getrandbits(p.l_m + p.l_stat + p.l_h)
    T = eps * pow(a_prime, r_e, n) * pow(pk.S, r_v, n) * pow(pk.R[0], r_k, n) % n
    disclosed = {i: claim.attribute for i, claim in enumerate(cred.claims, start=1)}
    c = _present_challenge(pk, a_prime, T, disclosed, NONCE, MEDICAL_CTX)
    proof = PresentationProof(
        T=T,
        s_e=r_e + c * (cred.e - p.e_interval[0]),
        s_v=r_v + c * (cred.v - cred.e * r_A),
        s_k=r_k + c * fx.holder_secret.k,
        s_m={},
    )
    return Presentation(a_prime, disclosed, proof, NONCE, MEDICAL_CTX, pk.issuer_id)


def access_one_by_one(registry, domain_id, req, presentations, nonce) -> AccessOutcome:
    """The reference for `access`: every presentation verified on its own."""
    spec = registry.domains[domain_id]
    ctx = context_string(domain_id, req.resource_type, req.resource_name, req.action)
    verified, errors = set(), []
    for idx, pres in enumerate(presentations):
        try:
            verified |= verify_presentation(_trusted_key(registry, spec, pres.issuer_id), pres, nonce, ctx)
        except (AbcError, GateError) as exc:
            errors.append((idx, exc.code))
    decision = evaluate(registry.policies, {c.attribute for c in verified}, req)
    if errors and decision.outcome == "Permit":
        decision = Decision("Deny", None, (PRESENTATION_REJECTED,))
    return AccessOutcome(decision, frozenset(verified), tuple(errors))


def test_show_holds_up_to_sign(ref_fx, monkeypatch):
    """Soundness harness: T replaced by n - T, with the responses answering
    the challenge of n - T, gives LHS = -T, and LHS^2 = T^2 accepts it. That
    is the documented slack: it shows the same signature. One such show and
    two in a bundle get the same verdict one by one and together, and the
    squared batch equation accepts them without falling back."""
    rng = random.Random(71)
    flipped = [hand_made_show(ref_fx, cid, rng, eps=-1) for cid in ("c1", "c5")]
    pk = ref_fx.public_key("campus_office")
    for cid, pres in zip(("c1", "c5"), flipped):
        assert verify_presentation(pk, pres, NONCE, MEDICAL_CTX) == set(ref_fx.wallet.find(cid).claims)
    honest = [show(ref_fx, cid, NONCE, MEDICAL_CTX, 72) for cid in ("c3", "c4")]
    monkeypatch.setattr("abcid.gate.verify_presentation", lambda *args: pytest.fail("the batch fell back"))
    for bundle in (flipped, flipped[:1] + honest, flipped + honest):
        out = access(ref_fx.registry, "medical_files", MEDICAL_REQ, bundle, NONCE)
        assert out == access_one_by_one(ref_fx.registry, "medical_files", MEDICAL_REQ, bundle, NONCE)
        assert out.presentation_errors == ()


def test_bundle_names_the_one_false_equation(ref_fx, monkeypatch):
    """Soundness harness: one show whose LHS is 2T, among three valid ones
    under the same key. The batch equation fails, the shows are verified
    again one by one, and exactly that index is rejected."""
    batches = []
    monkeypatch.setattr("abcid.gate.equations_hold", lambda *args: batches.append(args) or anoncred.equations_hold(*args))
    rng = random.Random(73)
    bundle = [show(ref_fx, cid, NONCE, MEDICAL_CTX, 74) for cid in ("c1", "c5", "c3")]
    bundle.insert(2, hand_made_show(ref_fx, "c4", rng, eps=pow(2, -1, ref_fx.public_key("campus_office").n)))
    out = access(ref_fx.registry, "medical_files", MEDICAL_REQ, bundle, NONCE)
    assert len(batches) == 1 and len(batches[0][1]) == 4
    assert out.presentation_errors == ((2, "ProofInvalid"),)
    assert (out.decision.outcome, out.decision.reasons) == ("Deny", (PRESENTATION_REJECTED,))
    assert {c.attribute.name for c in out.verified} == {"medical_staff", "school_member", "teacher"}
    assert out == access_one_by_one(ref_fx.registry, "medical_files", MEDICAL_REQ, bundle, NONCE)
    # Off by 2 and by 1/2, two equations would cancel in an unweighted batch.
    n = ref_fx.public_key("campus_office").n
    pair = [hand_made_show(ref_fx, "c1", rng, eps=pow(2, -1, n)), hand_made_show(ref_fx, "c5", rng, eps=2)]
    out = access(ref_fx.registry, "medical_files", MEDICAL_REQ, pair, NONCE)
    assert out.presentation_errors == ((0, "ProofInvalid"), (1, "ProofInvalid"))


def test_bundle_refuses_bad_commitments_before_any_exponentiation(ref_fx, monkeypatch):
    """A T that is a factor of n, 0, 1 or n - 1 fails the group rule, and a
    negative response its length bound, in a bundle as alone, before the
    batch or any exponentiation, with the codes of one-by-one checking."""
    pk, sk = ref_fx.issuer_keys["campus_office"]
    good = [show(ref_fx, cid, NONCE, MEDICAL_CTX, 75) for cid in ("c1", "c5", "c3", "c4")]
    bad = [replace(pres, proof=replace(pres.proof, T=t)) for pres, t in zip(good, (sk.p, 0, 1, pk.n - 1))]
    negative = [
        replace(pres, proof=replace(pres.proof, **{s: -getattr(pres.proof, s)}))
        for pres, s in zip(good, ("s_e", "s_v", "s_k"))
    ]

    def no_exponentiation(*args):
        raise AssertionError("exponentiation reached")

    with monkeypatch.context() as m:
        for name in ("_mexp", "_straus", "pow"):
            m.setattr(anoncred, name, no_exponentiation, raising=False)
        out = access(ref_fx.registry, "medical_files", MEDICAL_REQ, bad, NONCE)
        assert out.presentation_errors == tuple((i, "ProofInvalid") for i in range(4))
        assert out.verified == frozenset()
        out = access(ref_fx.registry, "medical_files", MEDICAL_REQ, negative, NONCE)
        assert out.presentation_errors == tuple((i, "LengthCheckFailed") for i in range(3))
    mixed = [good[0], negative[1], good[3]]
    out = access(ref_fx.registry, "medical_files", MEDICAL_REQ, mixed, NONCE)
    assert out.presentation_errors == ((1, "LengthCheckFailed"),)
    assert out == access_one_by_one(ref_fx.registry, "medical_files", MEDICAL_REQ, mixed, NONCE)


@pytest.fixture(scope="module")
def medical_shows(ref_fx):
    """Two honest shows of each campus_office credential, each as its JSON
    document and the documents with one leaf changed."""
    docs = [
        wire.presentation_to_json(show(ref_fx, cid, NONCE, MEDICAL_CTX, seed))
        for cid in ("c1", "c3", "c4", "c5") for seed in (76, 77)
    ]
    return [[doc, *dict(_leaf_mutants(doc)).values()] for doc in docs]


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_bundles_get_the_verdicts_of_one_by_one(ref_fx, medical_shows, data):
    """Bundles of 2-4 shows under one key, some with one leaf of their JSON
    changed, get the same decision, errors and verified claims from
    `access` as from verifying each show on its own."""
    picked = data.draw(st.lists(st.sampled_from(medical_shows), min_size=2, max_size=4), label="shows")
    docs = [data.draw(st.just(honest) | st.sampled_from(mutants), label="document") for honest, *mutants in picked]
    bundle = [wire.presentation_from_json(doc) for doc in docs]
    out = access(ref_fx.registry, "medical_files", MEDICAL_REQ, bundle, NONCE)
    assert out == access_one_by_one(ref_fx.registry, "medical_files", MEDICAL_REQ, bundle, NONCE)
