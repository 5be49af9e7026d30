"""Acceptance suite: ten release criteria, one test per criterion, each
printing a PASS line with its headline numbers (run pytest -s to see them).
"""

import json
import random
import time
from datetime import datetime, timezone
from pathlib import Path

import pytest

import oracle
from abcid import wire
from abcid.anoncred import (
    AbcError,
    ContextMismatch,
    NonceMismatch,
    ProofInvalid,
    _issue_challenge,
    _present_challenge,
    begin_issuance,
    complete_credential,
    encode_attribute,
    holder_keygen,
    issue,
    present,
    setup_issuer,
    verify_presentation,
)
from abcid.cli import run
from abcid.gate import REFERENCE_CREDENTIAL_SETS, WORKED_POLICY_TEXT
from abcid.model import Attribute, replace, select_credentials
from abcid.policy import (
    AccessRequest,
    AttrTerm,
    TimeWindow,
    attribute_missing,
    evaluate,
    parse_policy,
    serialize_policy,
)
from abcid.wallet import wallet_load, wallet_save

from conftest import TOY_PARAMS, make_claims, metadata, toy_issuer
from randgen import rand_credential, rand_policy, rand_presentation, rand_wallet

CTX = "library|audio|song1|read"


def report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n} PASS: {text}")


@pytest.fixture(scope="module")
def issuers_by_size():
    """512-bit issuers for credential sizes 1..8, generated once."""
    rng = random.Random(8088)
    return {L: setup_issuer(L, 512, rng, f"acc{L}") for L in range(1, 9)}


def issue_random_credential(issuers, rng, L=None):
    L = L or rng.randrange(1, 9)
    pk, sk = issuers[L]
    hs = holder_keygen(rng)
    claims = make_claims(tuple(f"attr_{rng.randrange(1000)}_{i}" for i in range(L)), pk.issuer_id)
    nonce = rng.getrandbits(128).to_bytes(16, "big")
    req, state = begin_issuance(pk, hs, nonce, rng)
    pre = issue(sk, pk, req, claims, metadata(pk.issuer_id, f"c{rng.randrange(10**6)}"), rng)
    return pk, hs, complete_credential(pre, state, hs)


def test_criterion_1_end_to_end_completeness(issuers_by_size):
    rng = random.Random(101)
    start = time.monotonic()
    for _ in range(100):
        pk, hs, cred = issue_random_credential(issuers_by_size, rng)
        L = len(cred.claims)
        disclose = {i for i in range(1, L + 1) if rng.random() < 0.5}
        nonce = rng.getrandbits(128).to_bytes(16, "big")
        got = verify_presentation(
            pk, present(pk, cred, hs, disclose, nonce, CTX, rng), nonce, CTX
        )
        assert got == frozenset(cred.claims[i - 1] for i in disclose)
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"completeness run took {elapsed:.1f}s"
    report(1, f"100/100 issue-present-verify cycles accepted in {elapsed:.1f}s")


def test_criterion_2_soundness_mutations(issuers_by_size):
    rng = random.Random(202)
    mutations = []  # (presentation, expected error, description)
    while len(mutations) < 100:
        pk, hs, cred = issue_random_credential(issuers_by_size, rng, L=rng.randrange(2, 5))
        L = len(cred.claims)
        disclose = set(rng.sample(range(1, L + 1), rng.randrange(1, L)))
        nonce = rng.getrandbits(128).to_bytes(16, "big")
        pres = present(pk, cred, hs, disclose, nonce, CTX, rng)
        proof = pres.proof

        def out(mutant, expected, what):
            mutations.append((pk, mutant, nonce, expected, what))

        out(replace(pres, a_prime=pres.a_prime + 1), ProofInvalid, "a_prime+1")
        out(replace(pres, proof=replace(proof, T=proof.T + 1)), ProofInvalid, "T+1")
        out(replace(pres, proof=replace(proof, s_e=proof.s_e + 1)), ProofInvalid, "s_e+1")
        out(replace(pres, proof=replace(proof, s_v=proof.s_v + 1)), ProofInvalid, "s_v+1")
        out(replace(pres, proof=replace(proof, s_k=proof.s_k + 1)), ProofInvalid, "s_k+1")
        for i in proof.s_m:
            out(
                replace(pres, proof=replace(proof, s_m={**proof.s_m, i: proof.s_m[i] + 1})),
                ProofInvalid,
                f"s_m[{i}]+1",
            )
        bound = pk.params.l_m + pk.params.l_stat + pk.params.l_h
        out(
            replace(pres, proof=replace(proof, s_k=1 << (bound + 2))),
            "LengthCheckFailed",
            "s_k oversized",
        )
        j = min(disclose)
        lied = dict(pres.disclosed)
        lied[j] = Attribute(lied[j].name, lied[j].value + "x")
        out(replace(pres, disclosed=lied), ProofInvalid, "disclosed value swapped")
        out(
            replace(pres, nonce=rng.getrandbits(128).to_bytes(16, "big")),
            NonceMismatch,
            "nonce changed",
        )
        out(replace(pres, context=CTX + "?"), ContextMismatch, "context changed")

    rejected = 0
    for pk, mutant, nonce, expected, what in mutations[:100]:
        with pytest.raises(AbcError) as exc:
            verify_presentation(pk, mutant, nonce, CTX)
        expected_code = expected if isinstance(expected, str) else expected.code
        assert exc.value.code == expected_code, (what, exc.value.code)
        rejected += 1
    assert rejected == 100
    report(2, "100/100 single-field mutations rejected with the expected codes")


def test_criterion_3_unlinkability_structure(issuers_by_size):
    rng = random.Random(303)
    pk, hs, cred = issue_random_credential(issuers_by_size, rng, L=3)
    shows = [
        present(pk, cred, hs, {1}, rng.getrandbits(128).to_bytes(16, "big"), CTX, rng)
        for _ in range(50)
    ]
    for field in ("a_prime",):
        assert len({p.a_prime for p in shows}) == 50
    for name in ("T", "s_e", "s_v", "s_k"):
        assert len({getattr(p.proof, name) for p in shows}) == 50, name
    for i in (2, 3):
        assert len({p.proof.s_m[i] for p in shows}) == 50

    secrets = [cred.A, cred.e, cred.v, hs.k] + [
        encode_attribute(c, pk.params) for c in cred.claims[1:]
    ]
    violations = 0
    for p in shows:
        text = wire.dumps(wire.presentation_to_json(p))
        for s in secrets:
            if format(s, "x") in text:
                violations += 1
    assert violations == 0
    report(3, "50 shows pairwise fresh in A' and all proof integers; 0 secret-substring hits")


def test_criterion_4_non_transferability(issuers_by_size):
    rng = random.Random(404)
    pk, hs, cred = issue_random_credential(issuers_by_size, rng, L=2)
    rejected = 0
    for trial in range(20):
        thief = holder_keygen(rng)
        assert thief.k != hs.k
        nonce = rng.getrandbits(128).to_bytes(16, "big")
        stolen = present(pk, cred, thief, {1}, nonce, CTX, rng)
        with pytest.raises(ProofInvalid):
            verify_presentation(pk, stolen, nonce, CTX)
        rejected += 1
    assert rejected == 20
    report(4, "20/20 presentations with a mismatched holder secret rejected")


def test_criterion_5_fixture_reproduction(ref_fx):
    summaries = ref_fx.wallet.summaries()

    def names(cids):
        out = set()
        for cid in cids:
            out |= summaries[cid]
        return out

    assert select_credentials(ref_fx.required_names("medical_files"), summaries) == ["c1", "c5"]
    assert select_credentials(ref_fx.required_names("students_marks"), summaries) == ["c3"]

    picked_lib = select_credentials(ref_fx.required_names("library"), summaries)
    assert ref_fx.required_names("library") <= names(picked_lib)
    assert ref_fx.required_names("library") <= names(REFERENCE_CREDENTIAL_SETS["library"])
    assert picked_lib == ["c2"]  # documented smaller-than-reference cover

    picked_bus = select_credentials(ref_fx.required_names("staff_bus"), summaries)
    assert ref_fx.required_names("staff_bus") <= names(picked_bus)
    assert ref_fx.required_names("staff_bus") <= names(REFERENCE_CREDENTIAL_SETS["staff_bus"])
    assert picked_bus == ["c4", "c5"]
    report(5, "fixture selection: d1=[c1,c5], d2=[c3] exact; d3/d4 covers verified both ways")


def test_criterion_6_decision_matrix():
    policy = parse_policy(WORKED_POLICY_TEXT)
    attrs = frozenset(
        {
            Attribute("student", "true"),
            Attribute("school_member", "true"),
            Attribute("library_subscriber", "true"),
        }
    )

    def req(at):
        return AccessRequest("read", "audio", "song1", "library", at)

    def utc(day, hour, minute=0):
        return datetime(2026, 8, day, hour, minute, tzinfo=timezone.utc)

    rows = [
        (attrs, utc(3, 9), "Permit", "Permitted"),            # Monday 09:00
        (attrs, utc(1, 9), "Deny", "DayNotAllowed"),          # Saturday 09:00
        (attrs - {Attribute("library_subscriber", "true")}, utc(3, 9),
         "Deny", attribute_missing("library_subscriber")),
        (attrs, utc(3, 18, 0), "Deny", "OutsideTimeWindow"),  # Monday 18:00
        (attrs, utc(3, 7, 59), "Deny", "OutsideTimeWindow"),  # Monday 07:59
        (attrs, utc(3, 8, 0), "Permit", "Permitted"),         # Monday 08:00
    ]
    passed = 0
    for a, at, outcome, reason in rows:
        d = evaluate({"p0": policy}, a, req(at))
        assert d.outcome == outcome, (at, d)
        assert d.reasons == (reason,), (at, d)
        passed += 1
    assert passed == 6
    report(6, "6/6 worked-policy decision rows exact (outcome and reason code)")


def test_criterion_7_decomposition(ref_fx):
    p = parse_policy(WORKED_POLICY_TEXT)
    mapped = {ref_fx.attributes[c].name for c in ("a1", "a6", "a7")}
    assert {t.name for t in p.subject_attrs} == mapped
    assert p.subject_attrs == frozenset(
        {AttrTerm("student"), AttrTerm("school_member"), AttrTerm("library_subscriber")}
    )
    assert p.resource_type == "audio"
    assert p.action == "read"
    assert p.window == TimeWindow(480, 1080)
    assert p.days == frozenset({"mon", "tue", "wed", "thu", "fri"})
    assert p.domain_id == "library"
    report(7, "worked policy decomposes into the five components (a1,a6,a7 mapping)")


def test_criterion_8_toy_oracle_equivalence():
    matches = proofs = 0
    for trial in range(10):
        pk, sk = toy_issuer(seed=800 + trial)
        rng = random.Random(900 + trial)
        hs = holder_keygen(rng, TOY_PARAMS.l_m)
        claims = make_claims((f"left_{trial}", f"right_{trial}"), "toyissuer")
        nonce = rng.getrandbits(128).to_bytes(16, "big")
        req, state = begin_issuance(pk, hs, nonce, rng)
        assert req.U == oracle.commitment_value(pk.n, pk.S, pk.R[0], state.v_prime, hs.k)
        pre = issue(sk, pk, req, claims, metadata("toyissuer", f"c{trial}"), rng)
        cred = complete_credential(pre, state, hs)
        ms = [encode_attribute(c, TOY_PARAMS) for c in claims]
        assert pre.A == oracle.issue_signature_part(
            pk.n, sk.p, sk.q, pk.Z, pk.S, pk.R, req.U, pre.e, pre.v_dprime, ms
        )
        assert (
            oracle.signature_check_value(pk.n, cred.A, cred.e, cred.v, hs.k, pk.S, pk.R, ms)
            == pk.Z
        )
        t_issue = oracle.issue_proof_commitment(pk.n, pk.S, pk.R[0], req.U, req.s_v, req.s_k, req.c)
        assert _issue_challenge(pk, req.U, t_issue, nonce) == req.c
        for disclose in ((), (1,), (2,), (1, 2)):
            pres = present(pk, cred, hs, disclose, nonce, CTX, rng)
            proof = pres.proof
            c = _present_challenge(pk, pres.a_prime, proof.T, pres.disclosed, nonce, CTX)
            t_show = oracle.presentation_commitment(
                pk.n, pk.S, pk.Z, pk.R, pres.a_prime, proof.s_e, proof.s_v, proof.s_k,
                proof.s_m, {i: ms[i - 1] for i in disclose}, c, TOY_PARAMS.l_e,
            )
            assert t_show == proof.T
            # The package's own recomputation must agree with the oracle's.
            assert verify_presentation(pk, pres, nonce, CTX) == {claims[i - 1] for i in disclose}
            proofs += 1
        matches += 1
    assert matches == 10 and proofs == 40
    report(8, "10/10 toy credentials and their 10 request and 40 presentation proofs "
              "match the straight-line oracle exactly (n=1081)")


def test_criterion_9_round_trips(tmp_path):
    rng = random.Random(909)
    for _ in range(100):
        p = rand_policy(rng)
        assert parse_policy(serialize_policy(p)) == p
    for _ in range(100):
        c = rand_credential(rng)
        assert wire.credential_from_json(json.loads(wire.dumps(wire.credential_to_json(c)))) == c
    for _ in range(100):
        pres = rand_presentation(rng)
        assert (
            wire.presentation_from_json(json.loads(wire.dumps(wire.presentation_to_json(pres))))
            == pres
        )
    for i in range(100):
        w = rand_wallet(rng)
        path = tmp_path / f"w{i}.json"
        wallet_save(w, path)
        loaded = wallet_load(path)
        assert (loaded.holder_secret, loaded.credentials, loaded.labels) == (
            w.holder_secret, w.credentials, w.labels,
        )
    report(9, "100 round trips each: policy text, credential, presentation, wallet")


def _scripted_run(workdir: Path) -> list[str]:
    """The full CLI flow with fixed seeds; returns captured stdout lines."""
    d = workdir
    claims_doc = {
        "schema_id": "staff_v1",
        "credential_id": "c_e2e",
        "issued_at": "2026-02-02",
        "claims": [{"name": "medical_staff", "value": "true"}],
    }
    (d / "claims.json").write_text(json.dumps(claims_doc), encoding="utf-8")
    nonce_a, nonce_b = "0a" * 16, "0b" * 16
    ctx = "medical_files|patient_file|record_42|write"
    script = [
        ["issuer", "init", "--issuer-id", "clinic", "--attrs", "1", "--l-n", "512",
         "--key", str(d / "sk.json"), "--issuer-pub", str(d / "pk.json"), "--seed", "21"],
        ["holder", "keygen", "--wallet", str(d / "wallet.json"),
         "--issuer-pub", str(d / "pk.json"), "--seed", "22"],
        ["holder", "request", "--wallet", str(d / "wallet.json"),
         "--issuer-pub", str(d / "pk.json"), "--nonce", nonce_a,
         "--state", str(d / "state.json"), "--out", str(d / "request.json"), "--seed", "23"],
        ["issuer", "issue", "--key", str(d / "sk.json"), "--issuer-pub", str(d / "pk.json"),
         "--in", str(d / "request.json"), "--claims", str(d / "claims.json"),
         "--nonce", nonce_a, "--out", str(d / "precred.json"), "--seed", "24"],
        ["holder", "complete", "--wallet", str(d / "wallet.json"),
         "--issuer-pub", str(d / "pk.json"), "--in", str(d / "precred.json"),
         "--state", str(d / "state.json")],
        ["holder", "present", "--wallet", str(d / "wallet.json"),
         "--issuer-pub", str(d / "pk.json"), "--credential", "c_e2e",
         "--disclose", "medical_staff", "--nonce", nonce_b, "--context", ctx,
         "--out", str(d / "presentation.json"), "--seed", "25"],
        ["verifier", "verify", "--in", str(d / "presentation.json"),
         "--issuer-pub", str(d / "pk.json"), "--nonce", nonce_b, "--context", ctx],
        ["fixture", "emit", "--out-dir", str(d / "fixture"), "--seed", "26"],
    ]
    for step in script:
        assert run(step) == 0, step
    # Gate decision over the emitted fixture (d1 with c1 + c5).
    fix = d / "fixture"
    for cid, disclose, name in (
        ("c1", "medical_staff", "p1.json"),
        ("c5", "school_member", "p5.json"),
    ):
        assert run([
            "holder", "present", "--wallet", str(fix / "wallet.json"),
            "--issuer-pub", str(fix / "campus_office.pub.json"),
            "--credential", cid, "--disclose", disclose,
            "--nonce", nonce_b, "--context", ctx,
            "--out", str(d / name), "--seed", "27",
        ]) == 0
    assert run([
        "gate", "eval", "--registry", str(fix / "registry.json"),
        "--domain", "medical_files", "--action", "write", "--rtype", "patient_file",
        "--rname", "record_42", "--at", "2026-08-03T09:00:00Z", "--nonce", nonce_b,
        "--presentation", str(d / "p1.json"), "--presentation", str(d / "p5.json"),
        "--issuer-pub", str(fix / "campus_office.pub.json"),
        "--issuer-pub", str(fix / "registry_office.pub.json"),
        "--policy", str(fix / "policies" / "medical_files_write.pol"),
        "--policy", str(fix / "policies" / "students_marks_read.pol"),
        "--policy", str(fix / "policies" / "library_audio_read.pol"),
        "--policy", str(fix / "policies" / "staff_bus_board.pol"),
    ]) == 0
    return sorted(str(p.relative_to(d)) for p in d.rglob("*") if p.is_file())


def test_criterion_10_cli_determinism(tmp_path, capsys):
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    run_a.mkdir()
    run_b.mkdir()
    files_a = _scripted_run(run_a)
    files_b = _scripted_run(run_b)
    capsys.readouterr()
    assert files_a == files_b
    compared = 0
    for rel in files_a:
        assert (run_a / rel).read_bytes() == (run_b / rel).read_bytes(), rel
        compared += 1
    assert compared >= 10
    report(10, f"two seeded end-to-end runs produced {compared} bitwise-identical files")
