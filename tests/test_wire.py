import os
import random

import pytest

from abcid import wire
from abcid.anoncred import PROFILES, HolderSecret, begin_issuance, holder_keygen
from abcid.model import asdict
from abcid.wallet import Wallet, wallet_load, wallet_save

from conftest import toy_issuer, TOY_PARAMS
from randgen import rand_credential, rand_presentation, rand_wallet


# -- integer and nonce codecs -----------------------------------------------------

@pytest.mark.parametrize("x", [0, 1, 255, 256, 1 << 512, -1, -(1 << 300)])
def test_int_hex_round_trip(x):
    assert wire.hex_to_int(wire.int_to_hex(x)) == x


def test_int_hex_format():
    assert wire.int_to_hex(0) == "0x0"
    assert wire.int_to_hex(26) == "0x1a"
    assert wire.int_to_hex(-26) == "-0x1a"


@pytest.mark.parametrize("bad", [
    "", "12", "0x", "-0x", "0xZZ", "0X1A", 5, None,
    # int(..., 16) alone would read these: underscores, blanks, Arabic-Indic digits
    "0x1_0", "0x_1", "0x10\n", "0x\u0661\u0660",
])
def test_hex_rejects_garbage(bad):
    with pytest.raises(wire.FormatError):
        wire.hex_to_int(bad)


def test_hex_reads_are_case_tolerant():
    # canonical writes are lowercase; int() tolerates uppercase magnitudes
    assert wire.hex_to_int("0x1A") == 26


def test_nonce_codec():
    nonce = bytes(range(16))
    assert wire.nonce_from_hex(wire.nonce_to_hex(nonce)) == nonce
    assert wire.nonce_from_hex("0A" * 16) == b"\x0a" * 16
    # bytes.fromhex alone would skip the blanks and return 15 bytes
    for bad in ("", "00" * 15, "00" * 17, "zz" * 16, " " + "0a" * 15 + " ", "0a" * 15 + "\u0661\u0660"):
        with pytest.raises(wire.FormatError):
            wire.nonce_from_hex(bad)


def test_index_keys_are_canonical_ascii_decimals():
    """One index has one spelling, so `{"1": ..., "01": ...}` cannot
    collapse into one entry."""
    decode = wire._index_map(wire._same, wire._same).decode
    assert decode({"0": "a", "1": "b", "10": "c"}) == {0: "a", 1: "b", 10: "c"}
    for bad in ("01", "\u0661", "\u00b2", "1\n"):
        with pytest.raises(wire.FormatError):
            decode({bad: "x"})
    with pytest.raises(wire.FormatError):
        decode({"1": "x", "01": "y"})
    # Past 4300 digits int() itself raises ValueError; a document reports it as a FormatError.
    doc = wire.presentation_to_json(rand_presentation(random.Random(53)))
    with pytest.raises(wire.FormatError):
        wire.presentation_from_json({**doc, "disclosed": {"1" * 5000: {"name": "a", "value": "b"}}})


# -- message round trips -----------------------------------------------------------

def test_public_and_secret_key_round_trip(issuer512):
    pk, sk = issuer512
    assert wire.public_key_from_json(wire.public_key_to_json(pk)) == pk
    assert wire.secret_key_from_json(wire.secret_key_to_json(sk)) == sk


def test_public_key_needs_profile_parameters(issuer512):
    """A key document names its profile by l_n alone. A toy l_n, a field
    that differs from the profile (such as a 1-bit l_stat), an unknown field
    or a missing l_n is a FormatError; an older document that lists all
    seven fields loads when they equal the profile."""
    pk, _ = issuer512
    doc = wire.public_key_to_json(pk)
    assert doc["params"] == {"l_n": 512}
    toy_pk, _ = toy_issuer()
    with pytest.raises(wire.FormatError, match="no key profile for l_n=11"):
        wire.public_key_from_json(wire.public_key_to_json(toy_pk))
    for params in ({"l_n": 512, "l_stat": 1}, {"l_n": True}, {"l_n": 512, "extra": 0}, {"l_stat": 80}):
        with pytest.raises(wire.FormatError):
            wire.public_key_from_json({**doc, "params": params})
    seven_fields = {**doc, "params": asdict(PROFILES[512])}
    assert list(seven_fields["params"]) == ["l_n", "l_m", "l_e", "l_e_prime", "l_v", "l_stat", "l_h"]
    assert wire.public_key_from_json(seven_fields) == wire.public_key_from_json(doc) == pk


def test_request_and_state_round_trip():
    pk, _ = toy_issuer()
    rng = random.Random(2)
    hs = holder_keygen(rng, TOY_PARAMS.l_m)
    req, state = begin_issuance(pk, hs, b"\x01" * 16, rng)
    assert wire.request_from_json(wire.request_to_json(req)) == req
    doc = wire.holder_state_to_json(state)
    assert wire.holder_state_from_json(doc, pk) == state


def test_request_is_flat():
    """A request lists its proof's c, s_v and s_k beside u. Requests once
    nested them under "proof"; a request lives for one issuance round, so
    that layout is refused, not read."""
    pk, _ = toy_issuer()
    rng = random.Random(2)
    req, _ = begin_issuance(pk, holder_keygen(rng, TOY_PARAMS.l_m), b"\x01" * 16, rng)
    doc = wire.request_to_json(req)
    assert list(doc) == ["u", "c", "s_v", "s_k", "nonce"]
    nested = {"u": doc["u"], "proof": {k: doc[k] for k in ("c", "s_v", "s_k")}, "nonce": doc["nonce"]}
    with pytest.raises(wire.FormatError, match="missing field 'c'"):
        wire.request_from_json(nested)


def test_message_must_be_an_object():
    with pytest.raises(wire.FormatError, match="expected object, got list"):
        wire.request_from_json([])


def test_state_rejects_wrong_key():
    pk, _ = toy_issuer()
    other_pk, _ = toy_issuer(seed=99, issuer_id="other")
    rng = random.Random(2)
    hs = holder_keygen(rng, TOY_PARAMS.l_m)
    _, state = begin_issuance(pk, hs, b"\x01" * 16, rng)
    with pytest.raises(wire.FormatError):
        wire.holder_state_from_json(wire.holder_state_to_json(state), other_pk)


def test_credential_round_trip_random_instances():
    rng = random.Random(7)
    for _ in range(50):
        cred = rand_credential(rng)
        assert wire.credential_from_json(wire.credential_to_json(cred)) == cred


def test_presentation_round_trip_random_instances():
    rng = random.Random(8)
    for _ in range(50):
        pres = rand_presentation(rng)
        assert wire.presentation_from_json(wire.presentation_to_json(pres)) == pres


def test_serialization_is_byte_stable():
    rng = random.Random(9)
    pres = rand_presentation(rng)
    assert wire.dumps(wire.presentation_to_json(pres)) == wire.dumps(
        wire.presentation_to_json(pres)
    )


def test_presentation_field_order():
    doc = wire.presentation_to_json(rand_presentation(random.Random(10)))
    assert list(doc) == ["a_prime", "disclosed", "proof", "nonce", "context", "issuer_id"]
    assert list(doc["proof"]) == ["t", "s_e", "s_v", "s_k", "s_m"]


# -- wallet files --------------------------------------------------------------------

def test_wallet_round_trip_empty(tmp_path):
    path = tmp_path / "w.json"
    wallet_save(Wallet(HolderSecret(1)), path)
    loaded = wallet_load(path)
    assert loaded.holder_secret == HolderSecret(1)
    assert loaded.credentials == [] and loaded.labels == {}
    # bit-for-bit stable on re-save
    first = path.read_bytes()
    wallet_save(loaded, path)
    assert path.read_bytes() == first


def test_wallet_round_trip_random(tmp_path):
    rng = random.Random(11)
    for i in range(10):
        path = tmp_path / f"w{i}.json"
        w = rand_wallet(rng)
        wallet_save(w, path)
        loaded = wallet_load(path)
        assert loaded.holder_secret == w.holder_secret
        assert loaded.credentials == w.credentials
        assert loaded.labels == w.labels
        first = path.read_bytes()
        wallet_save(loaded, path)
        assert path.read_bytes() == first


def test_wallet_file_permissions(tmp_path):
    path = tmp_path / "w.json"
    wallet_save(Wallet(HolderSecret(1)), path)
    assert path.stat().st_mode & 0o777 == 0o600


@pytest.mark.parametrize("fail_at", ["serialize", "fsync"])
def test_wallet_save_failure_keeps_old_wallet(tmp_path, monkeypatch, fail_at):
    path = tmp_path / "w.json"
    wallet_save(rand_wallet(random.Random(14)), path)
    before = path.read_bytes()
    rng = random.Random(15)
    creds = [rand_credential(rng, credential_id=f"c{i}") for i in range(3)]
    encoded = []
    real_encode = wire.credential_to_json

    def fail_on_second(cred):
        if len(encoded) == 1:
            raise OSError("serializer failed")
        encoded.append(cred)
        return real_encode(cred)

    def fail_fsync(fd):
        raise OSError("disk full")

    if fail_at == "serialize":
        monkeypatch.setattr("abcid.wallet.credential_to_json", fail_on_second)
    else:
        monkeypatch.setattr(os, "fsync", fail_fsync)
    with pytest.raises(OSError):
        wallet_save(Wallet(HolderSecret(1), credentials=creds), path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["w.json"]
    assert path.stat().st_mode & 0o777 == 0o600


def test_save_syncs_directory_after_rename(tmp_path, monkeypatch):
    """The file is synced before the rename, its directory after it, so a
    crash can lose neither the bytes nor the rename."""
    path = tmp_path / "doc.json"
    synced = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        st = os.fstat(fd)
        synced.append(((st.st_dev, st.st_ino), path.exists()))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    wire.save_text("x\n", path)
    f, d = path.stat(), tmp_path.stat()
    assert synced == [((f.st_dev, f.st_ino), False), ((d.st_dev, d.st_ino), True)]
    assert path.read_text() == "x\n"


def test_wallet_truncated_file(tmp_path):
    path = tmp_path / "w.json"
    wallet_save(Wallet(HolderSecret(1)), path)
    path.write_text(path.read_text()[: len(path.read_text()) // 2])
    with pytest.raises(wire.FormatError):
        wallet_load(path)


def test_wallet_version_mismatch(tmp_path):
    path = tmp_path / "w.json"
    wallet_save(Wallet(HolderSecret(1)), path)
    doc = wire.load(path)
    doc["version"] = 99
    wire.save(doc, path)
    with pytest.raises(wire.FormatError):
        wallet_load(path)


def test_wallet_duplicate_ids_rejected(tmp_path):
    rng = random.Random(12)
    wallet_save(Wallet(HolderSecret(1), credentials=[rand_credential(rng, credential_id="dup")]), tmp_path / "w.json")
    doc = wire.load(tmp_path / "w.json")
    doc["credentials"] *= 2
    wire.save(doc, tmp_path / "w.json")
    with pytest.raises(wire.FormatError, match="'dup'"):
        wallet_load(tmp_path / "w.json")


def test_wallet_checks_itself_when_built():
    """A wallet built in memory obeys the rules a loaded one does: a holder
    secret, one credential per id, and string labels."""
    cred = rand_credential(random.Random(17), credential_id="dup")
    with pytest.raises(ValueError, match="'dup'"):
        Wallet(HolderSecret(1), credentials=[cred, cred])
    with pytest.raises(ValueError, match="labels"):
        Wallet(HolderSecret(1), labels={"c": 5})
    with pytest.raises(ValueError, match="holder secret"):
        Wallet(None)


def test_add_credential_rejects_duplicate_id():
    rng = random.Random(16)
    first = rand_credential(rng, credential_id="dup")
    wallet = Wallet(HolderSecret(1))
    wallet.add_credential(first, label="one")
    with pytest.raises(ValueError):
        wallet.add_credential(rand_credential(rng, credential_id="dup"), label="two")
    assert wallet.credentials == [first]
    assert wallet.labels == {"dup": "one"}
    assert wallet.summaries() == {"dup": frozenset(c.attribute.name for c in first.claims)}


def test_missing_fields_raise_format_error():
    doc = wire.credential_to_json(rand_credential(random.Random(13)))
    del doc["e"]
    with pytest.raises(wire.FormatError):
        wire.credential_from_json(doc)
    bad_claim = {"name": "x", "value": 3, "issuer_id": "i", "schema_id": ""}
    with pytest.raises(wire.FormatError):
        wire.claim_from_json(bad_claim)
