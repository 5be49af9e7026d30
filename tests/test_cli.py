import argparse
import fcntl
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import abcid
from abcid import gate, wire
from abcid.cli import build_parser, run
from abcid.gate import WORKED_POLICY_TEXT
from abcid.wallet import Wallet, wallet_load, wallet_save

from randgen import rand_credential

NONCE_A = "aa" * 16
NONCE_B = "bb" * 16
CTX = "clinic|patient_file|record_42|write"


def cli(capsys, *args: str) -> tuple[int, str, str]:
    code = run(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def issued_dir(tmp_path_factory):
    """issuer init -> keygen -> request -> issue -> complete, once per module."""
    d = tmp_path_factory.mktemp("flow")
    claims_doc = {
        "schema_id": "staff_v1",
        "credential_id": "c_demo",
        "issued_at": "2026-01-05",
        "claims": [
            {"name": "medical_staff", "value": "true"},
            {"name": "school_member", "value": "true"},
        ],
    }
    (d / "claims.json").write_text(json.dumps(claims_doc))
    steps = [
        ["issuer", "init", "--issuer-id", "clinic", "--attrs", "2", "--l-n", "512",
         "--key", str(d / "sk.json"), "--issuer-pub", str(d / "pk.json"), "--seed", "1"],
        ["holder", "keygen", "--wallet", str(d / "wallet.json"),
         "--issuer-pub", str(d / "pk.json"), "--seed", "2"],
        ["holder", "request", "--wallet", str(d / "wallet.json"),
         "--issuer-pub", str(d / "pk.json"), "--nonce", NONCE_A,
         "--state", str(d / "state.json"), "--out", str(d / "request.json"), "--seed", "3"],
        ["issuer", "issue", "--key", str(d / "sk.json"), "--issuer-pub", str(d / "pk.json"),
         "--in", str(d / "request.json"), "--claims", str(d / "claims.json"),
         "--nonce", NONCE_A, "--out", str(d / "precred.json"), "--seed", "4"],
        ["holder", "complete", "--wallet", str(d / "wallet.json"),
         "--issuer-pub", str(d / "pk.json"), "--in", str(d / "precred.json"),
         "--state", str(d / "state.json"), "--label", "demo card"],
    ]
    outputs = []
    for step in steps:
        code = run(step)
        assert code == 0, step
    return d, outputs


def test_full_round_trip(issued_dir, capsys):
    d, _ = issued_dir
    code, out, err = cli(
        capsys,
        "holder", "present", "--wallet", str(d / "wallet.json"),
        "--issuer-pub", str(d / "pk.json"), "--credential", "c_demo",
        "--disclose", "medical_staff", "--nonce", NONCE_B, "--context", CTX,
        "--out", str(d / "presentation.json"), "--seed", "5",
    )
    assert code == 0, err
    code, out, err = cli(
        capsys,
        "verifier", "verify", "--in", str(d / "presentation.json"),
        "--issuer-pub", str(d / "pk.json"), "--nonce", NONCE_B, "--context", CTX,
    )
    assert code == 0, err
    assert "medical_staff=true" in out
    assert "school_member" not in out  # undisclosed stays undisclosed


def test_verify_rejects_mutation_with_code(issued_dir, capsys, tmp_path):
    d, _ = issued_dir
    doc = wire.load(d / "presentation.json")
    doc["proof"]["s_k"] = wire.int_to_hex(wire.hex_to_int(doc["proof"]["s_k"]) + 1)
    bad = tmp_path / "mutated.json"
    wire.save(doc, bad)
    code, out, err = cli(
        capsys,
        "verifier", "verify", "--in", str(bad),
        "--issuer-pub", str(d / "pk.json"), "--nonce", NONCE_B, "--context", CTX,
    )
    assert code == 1
    assert "error[ProofInvalid]" in err
    assert "Traceback" not in err


def test_verify_wrong_nonce_exit_code(issued_dir, capsys):
    d, _ = issued_dir
    code, out, err = cli(
        capsys,
        "verifier", "verify", "--in", str(d / "presentation.json"),
        "--issuer-pub", str(d / "pk.json"), "--nonce", NONCE_A, "--context", CTX,
    )
    assert code == 1
    assert "error[NonceMismatch]" in err


def test_issue_rejects_mismatched_nonce(issued_dir, capsys):
    d, _ = issued_dir
    code, out, err = cli(
        capsys,
        "issuer", "issue", "--key", str(d / "sk.json"), "--issuer-pub", str(d / "pk.json"),
        "--in", str(d / "request.json"), "--claims", str(d / "claims.json"),
        "--nonce", NONCE_B, "--out", str(d / "nope.json"),
    )
    assert code == 1
    assert "error[NonceMismatch]" in err
    assert not (d / "nope.json").exists()


def test_issue_requires_nonce(issued_dir, capsys):
    """The issuer signs only a request bound to the nonce it handed out."""
    d, _ = issued_dir
    code, out, err = cli(
        capsys,
        "issuer", "issue", "--key", str(d / "sk.json"), "--issuer-pub", str(d / "pk.json"),
        "--in", str(d / "request.json"), "--claims", str(d / "claims.json"),
        "--out", str(d / "unbound.json"),
    )
    assert code == 2
    assert "the following arguments are required: --nonce" in err
    assert not (d / "unbound.json").exists()


def test_complete_rejects_unsigned_extra_claim(issued_dir, capsys, tmp_path):
    """A claim appended to a pre-credential is not signed: completion
    refuses it and the wallet stays as it was."""
    d, _ = issued_dir
    pre = wire.load(d / "precred.json")
    pre["claims"].append(ADMIN_CLAIM)
    pre["metadata"]["credential_id"] = "c_admin"
    wire.save(pre, tmp_path / "precred.json")
    wallet = tmp_path / "wallet.json"
    wallet.write_bytes((d / "wallet.json").read_bytes())
    before = wallet.read_bytes()
    code, out, err = cli(
        capsys,
        "holder", "complete", "--wallet", str(wallet), "--issuer-pub", str(d / "pk.json"),
        "--in", str(tmp_path / "precred.json"), "--state", str(d / "state.json"),
    )
    assert code == 1
    assert err.startswith("error[SignatureInvalid]: ")
    assert "Traceback" not in err
    assert wallet.read_bytes() == before


def test_holder_list_output(issued_dir, capsys):
    d, _ = issued_dir
    code, out, err = cli(capsys, "holder", "list", "--wallet", str(d / "wallet.json"))
    assert code == 0
    assert "c_demo" in out
    assert "medical_staff=true" in out
    assert "# demo card" in out


def test_cli_stdout_never_leaks_secrets(issued_dir, capsys):
    d, _ = issued_dir
    wallet = wire.load(d / "wallet.json")
    secrets = [wallet["holder_secret"]["k"]]
    for cred in wallet["credentials"]:
        secrets += [cred["a"], cred["e"], cred["v"]]
    code, out, err = cli(capsys, "holder", "list", "--wallet", str(d / "wallet.json"))
    assert code == 0
    pres_text = (d / "presentation.json").read_text()
    for s in secrets:
        bare = s[2:]  # strip 0x
        assert bare not in out and bare not in err
        assert bare not in pres_text


def test_policy_lint_worked_example(tmp_path, capsys):
    pol = tmp_path / "library.pol"
    pol.write_text(WORKED_POLICY_TEXT + "\n")
    code, out, err = cli(capsys, "policy", "lint", str(pol))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("subjects: ")
    assert "library_subscriber" in lines[0] and "student" in lines[0]
    assert lines[1] == "objects:  those of type audio"
    assert lines[2] == "action:   read"
    assert "08:00-18:00" in lines[3] and "mon,tue,wed,thu,fri" in lines[3]
    assert lines[4] == "domain:   library"


def test_policy_lint_escapes_pinned_values(tmp_path, capsys):
    pol = tmp_path / "quoted.pol"
    pol.write_text(
        'permit subjects with role="say \\"hi\\"" may read on resources named "a\\"b" in domain d\n'
    )
    code, out, err = cli(capsys, "policy", "lint", str(pol))
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0] == 'subjects: role="say \\"hi\\""'
    assert lines[1] == 'objects:  named "a\\"b"'


def test_policy_lint_error_position(tmp_path, capsys):
    pol = tmp_path / "broken.pol"
    pol.write_text("permit subjects with may read on resources in domain library\n")
    code, out, err = cli(capsys, "policy", "lint", str(pol))
    assert code == 2
    assert "error[ParseError]" in err
    assert "line 1" in err


def test_fixture_emit_and_gate_eval(tmp_path, capsys):
    fixdir = tmp_path / "fixture"
    code, out, err = cli(capsys, "fixture", "emit", "--out-dir", str(fixdir), "--seed", "6")
    assert code == 0, err
    for name in (
        "registry.json", "wallet.json", "attributes.json",
        "campus_office.pub.json", "registry_office.pub.json",
    ):
        assert (fixdir / name).exists(), name
    assert "medical_files: requires" in out
    assert "['c1', 'c5']" in out

    ctx = "medical_files|patient_file|record_42|write"
    for cid, disclose, pres_name in (
        ("c1", "medical_staff", "p1.json"),
        ("c5", "school_member", "p5.json"),
    ):
        code, out, err = cli(
            capsys,
            "holder", "present", "--wallet", str(fixdir / "wallet.json"),
            "--issuer-pub", str(fixdir / "campus_office.pub.json"),
            "--credential", cid, "--disclose", disclose,
            "--nonce", NONCE_A, "--context", ctx,
            "--out", str(fixdir / pres_name), "--seed", "7",
        )
        assert code == 0, err

    eval_args = [
        "gate", "eval", "--registry", str(fixdir / "registry.json"),
        "--domain", "medical_files", "--action", "write", "--rtype", "patient_file",
        "--rname", "record_42", "--at", "2026-08-03T09:00:00Z", "--nonce", NONCE_A,
        "--presentation", str(fixdir / "p1.json"),
        "--presentation", str(fixdir / "p5.json"),
        "--issuer-pub", str(fixdir / "campus_office.pub.json"),
        "--issuer-pub", str(fixdir / "registry_office.pub.json"),
        "--policy", str(fixdir / "policies" / "medical_files_write.pol"),
        "--policy", str(fixdir / "policies" / "students_marks_read.pol"),
        "--policy", str(fixdir / "policies" / "library_audio_read.pol"),
        "--policy", str(fixdir / "policies" / "staff_bus_board.pol"),
    ]
    code, out, err = cli(capsys, *eval_args)
    assert code == 0, (out, err)
    assert out.startswith("Permit")
    assert "verified attributes: medical_staff, school_member" in out

    # Same decision but with one presentation missing: Deny, exit 1.
    drop = eval_args.index(str(fixdir / "p5.json"))
    code, out, err = cli(capsys, *eval_args[: drop - 1], *eval_args[drop + 1 :])
    assert code == 1
    assert out.startswith("Deny")
    assert "AttributeMissing(school_member)" in out

    # A second emit into the same directory replaces no secret.
    secrets = ("wallet.json", "campus_office.key.json", "registry_office.key.json")
    before = [hashlib.sha256((fixdir / name).read_bytes()).hexdigest() for name in secrets]
    code, out, err = cli(capsys, "fixture", "emit", "--out-dir", str(fixdir), "--seed", "5")
    assert code == 2
    assert err.startswith("error[IoError]: ")
    assert [hashlib.sha256((fixdir / name).read_bytes()).hexdigest() for name in secrets] == before


def test_usage_errors_exit_2(capsys):
    assert run(["issuer"]) == 2
    capsys.readouterr()
    assert run(["holder", "present", "--wallet", "w"]) == 2
    capsys.readouterr()
    assert run(["nonsense"]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err


def _opt(*flags, dest=None, required=False, default=None, type=None, choices=None, append=False):
    dest = dest or flags[0].lstrip("-").replace("-", "_")
    return flags, dest, required, default, type, choices, append


# Every option of every command: flags, dest, required, default, type name,
# choices, and whether it appends. Shared declarations must not drift.
CLI_SURFACE = {
    ("issuer", "init"): {
        _opt("--issuer-id", required=True),
        _opt("--attrs", required=True, type="int"),
        _opt("--l-n", default=2048, type="int", choices=(512, 1024, 2048)),
        _opt("--key", required=True),
        _opt("--issuer-pub", required=True),
        _opt("--seed", type="int"),
    },
    ("issuer", "issue"): {
        _opt("--key", required=True),
        _opt("--issuer-pub", required=True),
        _opt("--in", dest="infile", required=True),
        _opt("--claims", required=True),
        _opt("--nonce", required=True, type="nonce_from_hex"),
        _opt("--seed", type="int"),
        _opt("--out", required=True),
    },
    ("holder", "keygen"): {
        _opt("--wallet", required=True),
        _opt("--issuer-pub", required=True),
        _opt("--seed", type="int"),
    },
    ("holder", "request"): {
        _opt("--wallet", required=True),
        _opt("--issuer-pub", required=True),
        _opt("--nonce", required=True, type="nonce_from_hex"),
        _opt("--state", required=True),
        _opt("--seed", type="int"),
        _opt("--out", required=True),
    },
    ("holder", "complete"): {
        _opt("--wallet", required=True),
        _opt("--issuer-pub", required=True),
        _opt("--in", dest="infile", required=True),
        _opt("--state", required=True),
        _opt("--label"),
    },
    ("holder", "list"): {
        _opt("--wallet", required=True),
    },
    ("holder", "present"): {
        _opt("--wallet", required=True),
        _opt("--issuer-pub", required=True),
        _opt("--credential", required=True),
        _opt("--disclose", default=""),
        _opt("--nonce", required=True, type="nonce_from_hex"),
        _opt("--context", required=True),
        _opt("--seed", type="int"),
        _opt("--out", required=True),
    },
    ("verifier", "verify"): {
        _opt("--in", dest="infile", required=True),
        _opt("--issuer-pub", required=True),
        _opt("--nonce", required=True, type="nonce_from_hex"),
        _opt("--context", required=True),
    },
    ("policy", "lint"): {
        _opt("file", required=True),
    },
    ("gate", "eval"): {
        _opt("--registry", required=True),
        _opt("--domain", required=True),
        _opt("--action", required=True),
        _opt("--rtype", required=True),
        _opt("--rname", default=""),
        _opt("--at", required=True),
        _opt("--nonce", required=True, type="nonce_from_hex"),
        _opt("--presentation", append=True),
        _opt("--issuer-pub", append=True),
        _opt("--policy", append=True),
    },
    ("fixture", "emit"): {
        _opt("--out-dir", required=True),
        _opt("--seed", type="int"),
    },
}


def _subcommands(parser):
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_cli_surface():
    surface = {}
    for group, group_parser in _subcommands(build_parser()).items():
        for cmd, parser in _subcommands(group_parser).items():
            surface[group, cmd] = {
                (
                    tuple(a.option_strings) or (a.dest,), a.dest, a.required, a.default,
                    a.type and a.type.__name__, a.choices and tuple(a.choices),
                    isinstance(a, argparse._AppendAction),
                )
                for a in parser._actions
                if not isinstance(a, argparse._HelpAction)
            }
    assert surface == CLI_SURFACE


def test_missing_file_is_io_error(tmp_path, capsys):
    code, out, err = cli(
        capsys, "holder", "list", "--wallet", str(tmp_path / "missing.json")
    )
    assert code == 2
    assert "error[IoError]" in err


GATE_EVAL = "gate eval --registry {t}/registry.json --domain nowhere --rtype doc --at 2026-08-03T09:00:00Z"
ISSUER_ISSUE = ("issuer issue --key {d}/sk.json --issuer-pub {d}/pk.json --in {d}/request.json --out {t}/pre.json"
                " --nonce " + NONCE_A)
HOLDER_PRESENT = ("holder present --wallet {d}/wallet.json --issuer-pub {d}/pk.json --credential c_demo"
                  " --nonce " + NONCE_B + " --context x --out {t}/pres.json")
ERROR_CASES = [
    ("ParameterError", "issuer init --issuer-id x --attrs 0 --l-n 512 --key {t}/k.json --issuer-pub {t}/p.json"),
    ("EncodingError", "issuer issue --key {d}/sk.json --issuer-pub {d}/pk.json --in {d}/request.json"
                      " --claims {t}/one_claim.json --out {t}/pre.json --nonce " + NONCE_A),
    ("EncodingError", "issuer issue --key {d}/sk.json --issuer-pub {d}/pk.json --in {d}/request.json"
                      " --claims {t}/foreign_claim.json --out {t}/pre.json --nonce " + NONCE_A),
    ("UnknownDomain", GATE_EVAL + " --action read --nonce " + NONCE_A),
    ("KeyDigestMismatch", GATE_EVAL + " --action read --nonce " + NONCE_A + " --issuer-pub {d}/pk.json"),
    ("ValueError", GATE_EVAL + " --action Read! --nonce " + NONCE_A),
    # In UTC these times fall before year 1 and after year 9999.
    ("ValueError", GATE_EVAL.replace("2026-08-03T09:00:00Z", "0001-01-01T00:00:00+05:00") + " --action read --nonce " + NONCE_A),
    ("ValueError", GATE_EVAL.replace("2026-08-03T09:00:00Z", "9999-12-31T23:00:00-05:00") + " --action read --nonce " + NONCE_A),
    ("FormatError", GATE_EVAL.replace("registry.json", "bad_required_attrs.json") + " --action read --nonce " + NONCE_A),
    ("FormatError", GATE_EVAL.replace("registry.json", "bad_trusted_issuers.json") + " --action read --nonce " + NONCE_A),
    ("FormatError", "issuer issue --key {d}/sk.json --issuer-pub {d}/pk.json --in {d}/request.json"
                    " --claims {t}/claims_not_list.json --out {t}/pre.json --nonce " + NONCE_A),
    ("FormatError", GATE_EVAL.replace("2026-08-03T09:00:00Z", "yesterday") + " --action read --nonce " + NONCE_A),
    ("FormatError", HOLDER_PRESENT.replace("{d}/wallet.json", "{t}/no_secret.json")),
    ("FormatError", HOLDER_PRESENT.replace("c_demo", "ghost")),
    ("FormatError", HOLDER_PRESENT + " --disclose reader"),
    ("EncodingError", HOLDER_PRESENT.replace("{d}/wallet.json", "{t}/extra_claim.json") + " --disclose medical_staff"),
    ("FormatError", GATE_EVAL.replace("registry.json", "bad_domain_id.json") + " --action read --nonce " + NONCE_A),
    ("FormatError", GATE_EVAL.replace("registry.json", "no_trusted_issuer.json") + " --action read --nonce " + NONCE_A),
    ("FormatError", GATE_EVAL.replace("registry.json", "version_2.json") + " --action read --nonce " + NONCE_A),
    ("FormatError", GATE_EVAL.replace("registry.json", "version_true.json") + " --action read --nonce " + NONCE_A),
    ("FormatError", GATE_EVAL.replace("registry.json", "top_level_array.json") + " --action read --nonce " + NONCE_A),
    ("FormatError", GATE_EVAL.replace("registry.json", "digest_not_hex.json") + " --action read --nonce " + NONCE_A
                    + " --issuer-pub {d}/pk.json"),
    ("FormatError", GATE_EVAL + " --action read --nonce " + NONCE_A + " --policy {t}/a/same.pol --policy {t}/b/same.pol"),
    ("ParseError", GATE_EVAL + " --action read --nonce " + NONCE_A + " --policy {t}/truncated.pol"),
    ("FormatError", ISSUER_ISSUE + " --claims {t}/no_credential_id.json"),
    ("FormatError", ISSUER_ISSUE + " --claims {t}/no_issued_at.json"),
    ("FormatError", ISSUER_ISSUE + " --claims {t}/slashed_date.json"),
    ("FormatError", ISSUER_ISSUE + " --claims {t}/claim_named_bad.json"),
    ("FormatError", "holder list --wallet {t}/label_not_string.json"),
    ("FormatError", "holder list --wallet {t}/wallet_version_true.json"),
    ("FormatError", "holder list --wallet {t}/deep.json"),
    ("FormatError", "verifier verify --in {d}/presentation.json --issuer-pub {t}/l_stat_true.json"
                    " --nonce " + NONCE_B + " --context x"),
    ("FormatError", "verifier verify --in {d}/presentation.json --issuer-pub {t}/l_stat_one.json"
                    " --nonce " + NONCE_B + " --context x"),
    ("FormatError", "verifier verify --in {d}/presentation.json --issuer-pub {t}/one_base.json"
                    " --nonce " + NONCE_B + " --context x"),
    ("FormatError", "holder list --wallet {t}/not_utf8.json"),
    ("FormatError", "holder list --wallet {t}/huge_int.json"),
    ("FormatError", "policy lint {t}/not_utf8.pol"),
    ("FormatError", GATE_EVAL + " --action read --nonce " + NONCE_A + " --policy {t}/not_utf8.pol"),
    ("FormatError", "verifier verify --in {d}/presentation.json --issuer-pub {t}/z_one.json"
                    " --nonce " + NONCE_B + " --context x"),
    ("FormatError", "verifier verify --in {d}/presentation.json --issuer-pub {t}/relabelled.json"
                    " --nonce " + NONCE_B + " --context x"),
    ("FormatError", "verifier verify --in {d}/presentation.json --issuer-pub {t}/bad_id.json"
                    " --nonce " + NONCE_B + " --context x"),
    ("EncodingError", ISSUER_ISSUE + " --claims {t}/renamed_issuer.json"),
    ("FormatError", ISSUER_ISSUE + " --claims {t}/empty_credential_id.json"),
    ("FormatError", ISSUER_ISSUE + " --claims {t}/claim_not_object.json"),
    ("FormatError", "holder list --wallet {t}/no_secret.json"),
]
ADMIN_CLAIM = {"name": "admin", "value": "true", "issuer_id": "clinic", "schema_id": "staff_v1"}
DOMAIN = {"domain_id": "nowhere", "required_attrs": ["staff"], "trusted_issuers": ["clinic"]}
BAD_REGISTRIES = {
    "bad_required_attrs": {"domains": [{**DOMAIN, "required_attrs": [{}]}]},
    "bad_trusted_issuers": {"domains": [{**DOMAIN, "trusted_issuers": [{}]}]},
    "bad_domain_id": {"domains": [{**DOMAIN, "domain_id": "No where"}]},
    "no_trusted_issuer": {"domains": [{**DOMAIN, "trusted_issuers": []}]},
    "version_2": {"version": 2},
    "version_true": {"version": True},
    "digest_not_hex": {"issuer_key_digests": {"clinic": 5}},
}
CLAIMS = [{"name": "medical_staff", "value": "true"}, {"name": "school_member", "value": "true"}]
BAD_CLAIMS_FILES = {
    "no_credential_id": {"issued_at": "2026-01-05", "claims": CLAIMS},
    "no_issued_at": {"credential_id": "c_six", "claims": CLAIMS},
    "slashed_date": {"credential_id": "c_six", "issued_at": "02/02/2026", "claims": CLAIMS},
    "claim_named_bad": {"credential_id": "c_six", "issued_at": "2026-01-05", "claims": [{"name": "Bad", "value": "true"}]},
    "renamed_issuer": {"credential_id": "c_six", "issued_at": "2026-01-05", "issuer_id": "lab", "claims": CLAIMS},
    "empty_credential_id": {"credential_id": "", "issued_at": "2026-01-05", "claims": CLAIMS},
    "claim_not_object": {"credential_id": "c_six", "issued_at": "2026-01-05", "claims": [5]},
}


@pytest.mark.parametrize("code_name, command", ERROR_CASES, ids=[c[0] for c in ERROR_CASES])
def test_error_codes_exit_2(issued_dir, tmp_path, capsys, code_name, command):
    d, _ = issued_dir
    registry = {"version": 1, "domains": [], "issuer_key_digests": {}}
    wire.save(registry, tmp_path / "registry.json")
    for name, bad in BAD_REGISTRIES.items():
        wire.save({**registry, **bad}, tmp_path / f"{name}.json")
    (tmp_path / "top_level_array.json").write_text("[]")
    (tmp_path / "deep.json").write_text("[" * 200_000)
    (tmp_path / "not_utf8.json").write_bytes(b'{"version": "\xff"}')
    (tmp_path / "huge_int.json").write_text('{"version": ' + "1" * 5000 + "}")
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "same.pol").write_text("permit subjects with staff may read on resources in domain nowhere\n")
    (tmp_path / "truncated.pol").write_text("permit subjects with staff may read on\n")
    (tmp_path / "not_utf8.pol").write_bytes(b"permit subjects with \xff may read on resources in domain nowhere\n")
    for name, doc in BAD_CLAIMS_FILES.items():
        wire.save(doc, tmp_path / f"{name}.json")
    wire.save(
        {"credential_id": "c_one", "issued_at": "2026-01-05", "claims": [{"name": "staff", "value": "true"}]},
        tmp_path / "one_claim.json",
    )
    foreign = {"name": "school_member", "value": "true", "issuer_id": "registry_office"}
    wire.save(
        {"credential_id": "c_two", "issued_at": "2026-01-05", "claims": [{"name": "staff", "value": "true"}, foreign]},
        tmp_path / "foreign_claim.json",
    )
    wire.save({"credential_id": "c_five", "issued_at": "2026-01-05", "claims": 5}, tmp_path / "claims_not_list.json")
    wallet = wire.load(d / "wallet.json")
    wire.save({**wallet, "holder_secret": None}, tmp_path / "no_secret.json")
    wire.save({**wallet, "labels": {"c_demo": 5}}, tmp_path / "label_not_string.json")
    wire.save({**wallet, "version": True}, tmp_path / "wallet_version_true.json")
    (cred,) = wallet["credentials"]
    wire.save({**wallet, "credentials": [{**cred, "claims": cred["claims"] + [ADMIN_CLAIM]}]},
              tmp_path / "extra_claim.json")
    pk = wire.load(d / "pk.json")
    wire.save({**pk, "params": {**pk["params"], "l_stat": True}}, tmp_path / "l_stat_true.json")
    wire.save({**pk, "params": {**pk["params"], "l_stat": 1}}, tmp_path / "l_stat_one.json")
    wire.save({**pk, "r": pk["r"][:1]}, tmp_path / "one_base.json")
    wire.save({**pk, "z": "0x1"}, tmp_path / "z_one.json")
    wire.save({**pk, "params": {"l_n": 1024}}, tmp_path / "relabelled.json")
    wire.save({**pk, "issuer_id": "Bad Id"}, tmp_path / "bad_id.json")
    args = [a.format(d=d, t=tmp_path) for a in command.split()]
    code, out, err = cli(capsys, *args)
    assert code == 2
    assert err.startswith(f"error[{code_name}]: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert not (tmp_path / "pres.json").exists()


@pytest.mark.parametrize("command", [
    "holder keygen --wallet {t}/secret.json --issuer-pub {d}/pk.json --seed 2",
    "issuer init --issuer-id clinic --attrs 1 --l-n 512 --key {t}/secret.json --issuer-pub {t}/pub.json --seed 1",
], ids=["holder_keygen", "issuer_init"])
def test_secret_files_are_never_replaced(issued_dir, tmp_path, capsys, monkeypatch, command):
    d, _ = issued_dir
    secret = tmp_path / "secret.json"
    secret.write_bytes((d / "wallet.json").read_bytes())
    before = secret.read_bytes()

    def no_search(*args):
        raise AssertionError("prime search started")

    monkeypatch.setattr("abcid.anoncred.safe_prime", no_search)
    code, out, err = cli(capsys, *(a.format(d=d, t=tmp_path) for a in command.split()))
    assert code == 2
    assert err.startswith("error[IoError]: ")
    assert secret.read_bytes() == before
    assert list(tmp_path.iterdir()) == [secret]


def test_gate_eval_names_each_rejected_presentation(issued_dir, tmp_path, capsys):
    """Enough attributes verify for a Permit, but one presentation fails:
    the Deny gives its reason and stderr names the rejected presentation."""
    d, _ = issued_dir
    ctx = "clinic|patient_file|record_42|write"
    pk = wire.public_key_from_json(wire.load(d / "pk.json"))
    domain = {"domain_id": "clinic", "required_attrs": ["medical_staff"], "trusted_issuers": ["clinic"]}
    wire.save(
        {"version": 1, "domains": [domain], "issuer_key_digests": {"clinic": gate.key_digest(pk)}},
        tmp_path / "registry.json",
    )
    (tmp_path / "medics.pol").write_text("permit subjects with medical_staff may write on resources in domain clinic\n")
    code, out, err = cli(
        capsys,
        "holder", "present", "--wallet", str(d / "wallet.json"), "--issuer-pub", str(d / "pk.json"),
        "--credential", "c_demo", "--disclose", "medical_staff", "--nonce", NONCE_B, "--context", ctx,
        "--out", str(tmp_path / "good.json"), "--seed", "8",
    )
    assert code == 0, err
    doc = wire.load(tmp_path / "good.json")
    doc["proof"]["s_k"] = wire.int_to_hex(wire.hex_to_int(doc["proof"]["s_k"]) + 1)
    wire.save(doc, tmp_path / "mutated.json")
    eval_args = [
        "gate", "eval", "--registry", str(tmp_path / "registry.json"), "--domain", "clinic",
        "--action", "write", "--rtype", "patient_file", "--rname", "record_42",
        "--at", "2026-08-03T09:00:00Z", "--nonce", NONCE_B, "--issuer-pub", str(d / "pk.json"),
        "--policy", str(tmp_path / "medics.pol"), "--presentation", str(tmp_path / "good.json"),
    ]
    code, out, err = cli(capsys, *eval_args)
    assert code == 0, (out, err)
    code, out, err = cli(capsys, *eval_args, "--presentation", str(tmp_path / "mutated.json"))
    assert code == 1
    assert out.splitlines()[0] == "Deny  reasons: PresentationRejected"
    assert "verified attributes: medical_staff" in out
    assert err == "presentation[1] rejected: ProofInvalid\n"


def test_written_files_are_owner_only(tmp_path, capsys):
    t = tmp_path
    steps = [
        f"issuer init --issuer-id clinic --attrs 1 --l-n 512 --key {t}/sk.json --issuer-pub {t}/pk.json --seed 1",
        f"holder keygen --wallet {t}/wallet.json --issuer-pub {t}/pk.json --seed 2",
        f"holder request --wallet {t}/wallet.json --issuer-pub {t}/pk.json --nonce {NONCE_A}"
        f" --state {t}/state.json --out {t}/request.json --seed 3",
        f"fixture emit --out-dir {t}/fixture --seed 6",
    ]
    for step in steps:
        code, out, err = cli(capsys, *step.split())
        assert code == 0, err
    assert cli(capsys, "holder", "list", "--wallet", f"{t}/wallet.json") == (0, "wallet is empty\n", "")
    files = [p for p in tmp_path.rglob("*") if p.is_file()]
    assert len(files) >= 14
    for path in files:
        assert path.stat().st_mode & 0o777 == 0o600, path
        assert not path.name.endswith(".tmp"), path


def test_concurrent_complete_keeps_both_credentials(issued_dir, tmp_path):
    """`holder complete` locks the wallet's directory from load to save. A
    writer holding that lock adds a credential meanwhile; the command waits
    for it and keeps both."""
    d, _ = issued_dir
    wallet_path = tmp_path / "wallet.json"
    wallet_save(Wallet(wallet_load(d / "wallet.json").holder_secret), wallet_path)
    command = [sys.executable, "-m", "abcid", "holder", "complete", "--wallet", str(wallet_path),
               "--issuer-pub", str(d / "pk.json"), "--in", str(d / "precred.json"), "--state", str(d / "state.json")]
    env = {**os.environ, "PYTHONPATH": str(Path(abcid.__file__).resolve().parents[1])}
    lock = os.open(tmp_path, os.O_RDONLY)
    try:
        fcntl.flock(lock, fcntl.LOCK_EX)
        wallet = wallet_load(wallet_path)
        proc = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:  # without the lock the command loads, adds and saves well within this
            proc.wait(timeout=2)
        except subprocess.TimeoutExpired:
            pass
        wallet.add_credential(rand_credential(random.Random(5), credential_id="c_mine"))
        wallet_save(wallet, wallet_path)
    finally:
        os.close(lock)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    assert {c.metadata.credential_id for c in wallet_load(wallet_path).credentials} == {"c_mine", "c_demo"}
    assert os.listdir(tmp_path) == ["wallet.json"]


SECRET_WRITERS = {
    "holder_keygen": ("holder keygen --wallet {t}/secret.json --issuer-pub {d}/pk.json --seed 2", "secret.json"),
    "issuer_init": ("issuer init --issuer-id clinic --attrs 1 --l-n 512 --key {t}/secret.json"
                    " --issuer-pub {t}/pub.json --seed 1", "secret.json"),
    "fixture_emit": ("fixture emit --out-dir {t} --seed 6", "wallet.json"),
}


@pytest.mark.parametrize("command, target", SECRET_WRITERS.values(), ids=SECRET_WRITERS.keys())
def test_concurrent_secret_write_is_refused(issued_dir, tmp_path, command, target):
    """A command that writes a secret checks for it and writes under the lock
    on its directory. A writer holding that lock creates the file meanwhile;
    the command waits for it, then refuses to replace it and writes nothing."""
    d, _ = issued_dir
    args = [sys.executable, "-m", "abcid", *(a.format(d=d, t=tmp_path) for a in command.split())]
    env = {**os.environ, "PYTHONPATH": str(Path(abcid.__file__).resolve().parents[1])}
    mine = b"the first secret\n"
    lock = os.open(tmp_path, os.O_RDONLY)
    try:
        fcntl.flock(lock, fcntl.LOCK_EX)
        proc = subprocess.Popen(args, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:  # without the lock the command checks and writes well within this
            proc.wait(timeout=2)
        except subprocess.TimeoutExpired:
            pass
        (tmp_path / target).write_bytes(mine)
    finally:
        os.close(lock)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2, err
    assert err.startswith("error[IoError]: ")
    assert (tmp_path / target).read_bytes() == mine
    assert os.listdir(tmp_path) == [target]


def test_gate_eval_at_accepts_lowercase_t_and_z(issued_dir, tmp_path, capsys):
    """RFC 3339 allows a lowercase `t` separator and `z` offset."""
    d, _ = issued_dir
    ctx = "clinic|patient_file|record_42|write"
    pk = wire.public_key_from_json(wire.load(d / "pk.json"))
    domain = {"domain_id": "clinic", "required_attrs": ["medical_staff"], "trusted_issuers": ["clinic"]}
    wire.save(
        {"version": 1, "domains": [domain], "issuer_key_digests": {"clinic": gate.key_digest(pk)}},
        tmp_path / "registry.json",
    )
    (tmp_path / "medics.pol").write_text("permit subjects with medical_staff may write on resources in domain clinic\n")
    code, out, err = cli(
        capsys,
        "holder", "present", "--wallet", str(d / "wallet.json"), "--issuer-pub", str(d / "pk.json"),
        "--credential", "c_demo", "--disclose", "medical_staff", "--nonce", NONCE_B, "--context", ctx,
        "--out", str(tmp_path / "p.json"), "--seed", "8",
    )
    assert code == 0, err
    eval_args = [
        "gate", "eval", "--registry", str(tmp_path / "registry.json"), "--domain", "clinic",
        "--action", "write", "--rtype", "patient_file", "--rname", "record_42", "--nonce", NONCE_B,
        "--issuer-pub", str(d / "pk.json"), "--policy", str(tmp_path / "medics.pol"),
        "--presentation", str(tmp_path / "p.json"),
    ]
    upper = cli(capsys, *eval_args, "--at", "2026-08-03T09:00:00Z")
    assert upper[0] == 0, upper
    assert cli(capsys, *eval_args, "--at", "2026-08-03t09:00:00z") == upper


BAD_NONCE_COMMANDS = {
    "issuer_issue": "issuer issue --key {t}/k --issuer-pub {t}/p --in {t}/r --claims {t}/c --out {t}/o",
    "holder_request": "holder request --wallet {t}/w --issuer-pub {t}/p --state {t}/s --out {t}/o",
    "holder_present": "holder present --wallet {t}/w --issuer-pub {t}/p --credential c --context x --out {t}/o",
    "verifier_verify": "verifier verify --in {t}/i --issuer-pub {t}/p --context x",
    "gate_eval": GATE_EVAL + " --action read",
}


@pytest.mark.parametrize("nonce", ["zz", "a" * 31])
@pytest.mark.parametrize("command", BAD_NONCE_COMMANDS.values(), ids=BAD_NONCE_COMMANDS.keys())
def test_malformed_nonce_is_format_error(tmp_path, capsys, command, nonce):
    args = [a.format(t=tmp_path) for a in command.split()]
    code, out, err = cli(capsys, *args, "--nonce", nonce)
    assert code == 2
    assert err.startswith("error[FormatError]: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("issuer_id, attrs", [("Clinic", "1"), ("clinic", "0")])
def test_issuer_init_rejects_unusable_key_before_search(tmp_path, capsys, monkeypatch, issuer_id, attrs):
    def no_search(*args):
        raise AssertionError("prime search started")

    monkeypatch.setattr("abcid.anoncred.safe_prime", no_search)
    code, out, err = cli(
        capsys, "issuer", "init", "--issuer-id", issuer_id, "--attrs", attrs, "--l-n", "2048",
        "--key", str(tmp_path / "k.json"), "--issuer-pub", str(tmp_path / "p.json"),
    )
    assert code == 2
    assert err.startswith("error[ParameterError]: ")
    assert list(tmp_path.iterdir()) == []


def test_bad_nonce_flag(capsys):
    code = run(["verifier", "verify", "--in", "i", "--issuer-pub", "p", "--context", "x", "--nonce", "zz"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error[FormatError]: ")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "abcid", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "issuer" in proc.stdout


def test_party_commands_load_neither_gate_nor_policy(issued_dir, tmp_path, capsys):
    """A holder or verifier step imports only the modules it runs: the
    policy language and the gate stay unloaded."""
    d, _ = issued_dir
    pres = tmp_path / "pres.json"
    code, _, err = cli(capsys, *HOLDER_PRESENT.format(d=d, t=tmp_path).split(), "--disclose", "medical_staff")
    assert code == 0, err
    steps = [
        ["holder", "keygen", "--wallet", str(tmp_path / "wallet.json"), "--issuer-pub", str(d / "pk.json")],
        ["holder", "list", "--wallet", str(d / "wallet.json")],
        ["verifier", "verify", "--in", str(pres), "--issuer-pub", str(d / "pk.json"),
         "--nonce", NONCE_B, "--context", "x"],
    ]
    script = (
        "import json, sys\n"
        "from abcid.cli import run\n"
        "codes = [run(step) for step in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith('abcid'))]))\n"
    )
    src = str(Path(abcid.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(steps)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    codes, modules = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0, 0], proc.stderr
    assert "abcid.wallet" in modules
    assert "abcid.gate" not in modules and "abcid.policy" not in modules


# SHA-256 over the sorted (relative path, bytes) pairs of every file the
# walkthrough writes under seed 42. Re-pin it only for a deliberate change
# to a document format or to the scheme, never to make a refactor pass.
E2E_SEED_42_FILES = 21
E2E_SEED_42_SHA256 = "c533a176647825c749d3e6f523da47bad8b4ec6b80b231019b8061612fa21a68"


def test_e2e_demo_script(tmp_path):
    """The README walkthrough runs as documented; its gate step passes all
    four fixture policies, so the domain's own policy must decide. Under a
    seed every file it writes is pinned."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "e2e_demo.sh"
    work = tmp_path / "work"
    proc = subprocess.run(["bash", str(script), str(work), "42"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "valid presentation from issuer clinic" in proc.stdout
    assert "Permit  reasons: Permitted" in proc.stdout
    files = sorted(p for p in work.rglob("*") if p.is_file())
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.relative_to(work).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    assert len(files) == E2E_SEED_42_FILES
    assert digest.hexdigest() == E2E_SEED_42_SHA256

    def keys(name: str, *path: str | int) -> list[str]:
        doc = json.loads((work / name).read_text())
        for step in path:
            doc = doc[step]
        return list(doc)

    # The JSON keys of every message type, in document order: a renamed or
    # reordered field shows here as a list diff, not only as a new digest.
    assert {
        "public key": keys("pk.json"),
        "params": keys("pk.json", "params"),
        "secret key": keys("sk.json"),
        "request": keys("request.json"),
        "holder state": keys("state.json"),
        "pre-credential": keys("precred.json"),
        "claim": keys("precred.json", "claims", 0),
        "metadata": keys("precred.json", "metadata"),
        "wallet": keys("wallet.json"),
        "holder secret": keys("wallet.json", "holder_secret"),
        "credential": keys("wallet.json", "credentials", 0),
        "presentation": keys("presentation.json"),
        "proof": keys("presentation.json", "proof"),
        "registry": keys("fixture/registry.json"),
        "domain": keys("fixture/registry.json", "domains", 0),
    } == {
        "public key": ["n", "s", "z", "r", "params", "issuer_id"],
        "params": ["l_n"],
        "secret key": ["p", "q"],
        "request": ["u", "c", "s_v", "s_k", "nonce"],
        "holder state": ["v_prime", "issuer_key_digest"],
        "pre-credential": ["a", "e", "v_dprime", "claims", "metadata"],
        "claim": ["name", "value", "issuer_id", "schema_id"],
        "metadata": ["issuer_id", "schema_id", "issued_at", "expires_at", "credential_id"],
        "wallet": ["version", "holder_secret", "credentials", "labels"],
        "holder secret": ["k"],
        "credential": ["a", "e", "v", "claims", "metadata"],
        "presentation": ["a_prime", "disclosed", "proof", "nonce", "context", "issuer_id"],
        "proof": ["c", "s_e", "s_v", "s_k", "s_m"],
        "registry": ["version", "domains", "issuer_key_digests"],
        "domain": ["domain_id", "required_attrs", "trusted_issuers"],
    }
