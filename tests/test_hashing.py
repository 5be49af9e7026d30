"""The package's one SHA-256: the interpreter's built-in module, or hashlib
on a build without it. Both must give the same digests, bit for bit."""

import hashlib
import importlib.util
import json

import pytest

from abcid import hashing

from conftest import fresh_interpreter
from test_golden import GOLDEN_P, GOLDEN_Q

BUILTIN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))

# FIPS 180-4 example messages (one block, two blocks, a million "a"s) and their SHA-256 digests.
FIPS_EXAMPLES = {
    b"abc": "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
    b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq":
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
    b"a" * 1_000_000: "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
}


def test_fips_examples():
    for message, expected in FIPS_EXAMPLES.items():
        assert hashing.sha256(message).hexdigest() == expected
        assert hashlib.sha256(message).hexdigest() == expected


def test_every_length_across_block_edges():
    """0..200 bytes crosses the 55/56/64-byte padding edges three times."""
    data = bytes(i * 37 % 256 for i in range(200))
    for n in range(201):
        assert hashing.sha256(data[:n]).digest() == hashlib.sha256(data[:n]).digest(), n


# Builds the golden key and one seeded issuance and presentation in a fresh
# interpreter; with "fallback" the built-in modules are blocked first.
SEEDED_RUN = """
import hashlib, json, random, sys
from datetime import date
if sys.argv[1] == "fallback":
    sys.modules["_sha2"] = sys.modules["_sha256"] = None
from abcid import anoncred, hashing
from abcid.model import Attribute, Claim
p, q = json.loads(sys.argv[2])
pk, sk = anoncred.setup_issuer_from_primes(3, p, q, anoncred.PROFILES[512], random.Random(4040), "golden")
rng = random.Random(4041)
hs = anoncred.holder_keygen(rng)
nonce = rng.getrandbits(128).to_bytes(16, "big")
req, state = anoncred.begin_issuance(pk, hs, nonce, rng)
claims = tuple(Claim(Attribute(name, "true"), "golden") for name in ("g0a", "g0b", "g0c"))
md = anoncred.CredentialMetadata("golden", "test_v1", date(2026, 1, 1), credential_id="g0")
cred = anoncred.complete_credential(anoncred.issue(sk, pk, req, claims, md, rng), state, hs)
ctx = "library|audio|song1|read"
pres = anoncred.present(pk, cred, hs, (2,), nonce, ctx, rng)
c = anoncred._present_challenge(pk, pres.a_prime, pres.proof.T, pres.disclosed, nonce, ctx)
print(json.dumps([pk.digest().hex(), req.c, c, hashing.sha256 is hashlib.sha256]))
"""


def test_fallback_gives_same_digests():
    primes = json.dumps([GOLDEN_P, GOLDEN_Q])
    runs = {}
    for path in ("builtin", "fallback"):
        proc = fresh_interpreter(SEEDED_RUN, path, primes)
        assert proc.returncode == 0, proc.stderr
        runs[path] = json.loads(proc.stdout)
    *builtin, builtin_is_hashlib = runs["builtin"]
    *fallback, fallback_is_hashlib = runs["fallback"]
    assert builtin_is_hashlib != BUILTIN_SHA256
    assert fallback_is_hashlib
    assert fallback == builtin


NONCE_ISSUE = "0a" * 16
NONCE_SHOW = "0b" * 16
CTX = "medical_files|patient_file|record_42|write"
EVERY_COMMAND = [
    "issuer init --issuer-id clinic --attrs 1 --l-n 512 --key {t}/sk.json --issuer-pub {t}/pk.json --seed 1",
    "holder keygen --wallet {t}/wallet.json --issuer-pub {t}/pk.json --seed 2",
    "holder request --wallet {t}/wallet.json --issuer-pub {t}/pk.json --nonce " + NONCE_ISSUE
    + " --state {t}/state.json --out {t}/request.json --seed 3",
    "issuer issue --key {t}/sk.json --issuer-pub {t}/pk.json --in {t}/request.json --claims {t}/claims.json"
    " --nonce " + NONCE_ISSUE + " --out {t}/pre.json --seed 4",
    "holder complete --wallet {t}/wallet.json --issuer-pub {t}/pk.json --in {t}/pre.json --state {t}/state.json",
    "holder list --wallet {t}/wallet.json",
    "holder present --wallet {t}/wallet.json --issuer-pub {t}/pk.json --credential c_demo"
    " --disclose medical_staff --nonce " + NONCE_SHOW + " --context " + CTX + " --out {t}/pres.json --seed 5",
    "verifier verify --in {t}/pres.json --issuer-pub {t}/pk.json --nonce " + NONCE_SHOW + " --context " + CTX,
    "fixture emit --out-dir {t}/fixture --seed 6",
    "policy lint {t}/fixture/policies/medical_files_write.pol",
    *(
        "holder present --wallet {t}/fixture/wallet.json --issuer-pub {t}/fixture/campus_office.pub.json"
        f" --credential {cred} --disclose {name} --nonce {NONCE_SHOW} --context {CTX} --out {{t}}/{cred}.json"
        for cred, name in (("c1", "medical_staff"), ("c5", "school_member"))
    ),
    "gate eval --registry {t}/fixture/registry.json --domain medical_files --action write --rtype patient_file"
    " --rname record_42 --at 2026-08-03T09:00:00Z --nonce " + NONCE_SHOW
    + " --presentation {t}/c1.json --presentation {t}/c5.json --issuer-pub {t}/fixture/campus_office.pub.json"
    " --issuer-pub {t}/fixture/registry_office.pub.json --policy {t}/fixture/policies/medical_files_write.pol",
]
# Runs one command in a fresh interpreter and reports which watched modules
# are loaded before abcid and after the command: OpenSSL's hashlib, the
# stdlib modules behind per-class code generation, and the abcid modules
# only some commands need. Each command gets its own interpreter, so none
# hides what a later one loads.
WATCHED = ("_hashlib", "hashlib", "dataclasses", "inspect", "abcid.primes", "abcid.wallet")
COMMAND_RUN = """
import json, sys
watched = set(json.loads(sys.argv[2]))
preloaded = sorted(watched & set(sys.modules))
from abcid.cli import run
code = run(json.loads(sys.argv[1]))
print(json.dumps([preloaded, code, sorted(watched & set(sys.modules))]))
"""


@pytest.fixture(scope="module")
def every_command(tmp_path_factory):
    """(modules loaded before abcid, [(command, exit code, loaded modules)])
    for every CLI command, each run in a fresh interpreter of its own."""
    tmp_path = tmp_path_factory.mktemp("every_command")
    claims = {"schema_id": "staff_v1", "credential_id": "c_demo", "issued_at": "2026-02-02",
              "claims": [{"name": "medical_staff", "value": "true"}]}
    (tmp_path / "claims.json").write_text(json.dumps(claims))
    preloaded, report = set(), []
    for command in EVERY_COMMAND:
        step = command.format(t=tmp_path).split()
        proc = fresh_interpreter(COMMAND_RUN, json.dumps(step), json.dumps(WATCHED))
        assert proc.returncode == 0, proc.stderr
        before, code, loaded = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0, (step, proc.stderr)
        preloaded.update(before)
        report.append((" ".join(step[:2]), code, loaded))
    return preloaded, report


def loaded_after(report, names):
    return [(command, sorted(names & set(loaded))) for command, _, loaded in report if names & set(loaded)]


@pytest.mark.skipif(
    not BUILTIN_SHA256,
    reason="this interpreter has no built-in SHA-256, so hashlib is the only path",
)
def test_no_command_loads_openssl(every_command):
    """Every CLI command, each in a fresh interpreter, leaves
    OpenSSL's hashlib unloaded: each process saves the 3.6 MB libcrypto maps."""
    preloaded, report = every_command
    if "_hashlib" in preloaded:
        pytest.skip("_hashlib was loaded before abcid, by a site hook or the interpreter")
    assert loaded_after(report, {"_hashlib", "hashlib"}) == []


def test_no_command_loads_dataclasses(every_command):
    """No CLI command loads `dataclasses` or `inspect`: importing them and
    generating each class's methods cost about 22 ms of every command."""
    preloaded, report = every_command
    if not preloaded.isdisjoint({"dataclasses", "inspect"}):
        pytest.skip("dataclasses or inspect was loaded before abcid, by a site hook or the interpreter")
    assert loaded_after(report, {"dataclasses", "inspect"}) == []


# The commands that load each abcid module that not every command needs:
# primes for drawing key and signature primes, wallet for the holder's file.
LOADED_BY = {
    "abcid.primes": {"issuer init", "issuer issue", "fixture emit"},
    "abcid.wallet": {"holder keygen", "holder request", "holder complete", "holder list", "holder present",
                     "fixture emit"},
}


def test_each_command_loads_only_the_modules_it_runs(every_command):
    """Only the commands that make a key or sign compile `abcid.primes`,
    and `gate eval`, which reads no wallet, leaves `abcid.wallet` unloaded."""
    preloaded, report = every_command
    assert preloaded.isdisjoint(LOADED_BY)
    assert {name: {command for command, _, loaded in report if name in loaded} for name in LOADED_BY} == LOADED_BY
