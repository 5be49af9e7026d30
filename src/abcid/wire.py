"""JSON message files exchanged between issuer, holder, verifier and gate.

Conventions: integers are lowercase hex strings with a 0x prefix (-0x for
negatives), nonces are 32 bare hex chars, dates are ISO YYYY-MM-DD, and
key order inside each document is fixed so identical values always
produce identical bytes.
"""

from __future__ import annotations

import json
import os
import re
from contextlib import contextmanager
from datetime import date
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple

from .anoncred import (
    NONCE_LEN,
    PROFILES,
    Credential,
    CredentialMetadata,
    HolderIssuanceState,
    HolderSecret,
    IssuanceRequest,
    IssuerPublicKey,
    IssuerSecretKey,
    PreCredential,
    Presentation,
    PresentationProof,
    SystemParams,
)
from .model import Attribute, Claim, CodedError, asdict, fields


class FormatError(CodedError):
    """A document does not match its schema or version."""


def int_to_hex(x: int) -> str:
    return ("-0x" if x < 0 else "0x") + format(abs(x), "x")


# ASCII only, whole string: int() and bytes.fromhex() also take blanks,
# underscores and non-ASCII digits.
_HEX_INT_RE = re.compile(r"-?0x[0-9a-fA-F]+")
_NONCE_RE = re.compile(f"[0-9a-fA-F]{{{2 * NONCE_LEN}}}")
_INDEX_RE = re.compile(r"0|[1-9][0-9]*")


def hex_to_int(s: Any) -> int:
    if not isinstance(s, str):
        raise FormatError(f"expected hex string, got {type(s).__name__}")
    if not _HEX_INT_RE.fullmatch(s):
        raise FormatError(f"not a 0x-hex integer: {s!r}")
    return int(s, 16)


def nonce_to_hex(nonce: bytes) -> str:
    return bytes(nonce).hex()


def nonce_from_hex(s: Any) -> bytes:
    if not isinstance(s, str) or not _NONCE_RE.fullmatch(s):
        raise FormatError(f"nonce must be {2 * NONCE_LEN} hex chars")
    return bytes.fromhex(s)


def need(doc: Any, key: str, kind: type) -> Any:
    if not isinstance(doc, dict):
        raise FormatError(f"expected object, got {type(doc).__name__}")
    if key not in doc:
        raise FormatError(f"missing field {key!r}")
    value = doc[key]
    # bool is a subclass of int, but no field holds JSON true or false.
    if not isinstance(value, kind) or isinstance(value, bool):
        raise FormatError(f"field {key!r} has wrong type")
    return value


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def save_text(text: str, path: str | Path) -> None:
    """Write `text` to a fresh owner-only temporary file in the same
    directory, sync it, rename it over `path` and sync the directory, so
    that the rename also survives a crash. A crash or a failed write
    leaves the old file whole; the new file is always mode 0600."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


@contextmanager
def locked(directory: str | Path) -> Iterator[None]:
    """Hold an exclusive lock on `directory`, so that one writer at a time checks and
    replaces its files. The lock makes no file and outlasts the renames `save` makes."""
    import fcntl  # only the writing commands lock

    fd = os.open(directory, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)


def save(doc: dict, path: str | Path) -> None:
    save_text(dumps(doc), path)


def load_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 text: {exc}") from None


def load(path: str | Path) -> dict:
    try:
        doc = json.loads(load_text(path))
    except (ValueError, RecursionError) as exc:  # ValueError: bad JSON, a huge integer
        raise FormatError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FormatError("top-level JSON value must be an object")
    return doc


# -- message tables ------------------------------------------------------------
#
# A message type is a `Record`, and `message` derives its table from the
# record's fields in order: each JSON key is the field name in lowercase,
# and each codec is the `CODECS` entry for the field's annotation. A codec
# names the JSON type the value must have and converts the field to and from
# it. A field annotated `X | None` uses X's codec, and null or a missing key
# stands for None.


def _same(value: Any) -> Any:
    return value


class Codec(NamedTuple):
    kind: type
    encode: Callable[[Any], Any] = _same
    decode: Callable[[Any], Any] = _same


def message(cls: type) -> tuple[Callable[[Any], dict], Callable[[Any], Any]]:
    """The (to_json, from_json) pair of the record type `cls`. from_json
    reports a ValueError from a codec or from `cls`'s own checks as a
    FormatError. An annotation with no codec raises KeyError here."""
    table = []
    for f in fields(cls):
        annotation = f.type.removesuffix(" | None")
        table.append((f.name.lower(), f.name, CODECS[annotation], annotation != f.type))

    def to_json(obj: Any) -> dict:
        doc = {}
        for key, attr, codec, optional in table:
            value = getattr(obj, attr)
            doc[key] = None if value is None and optional else codec.encode(value)
        return doc

    def from_json(doc: Any) -> Any:
        if not isinstance(doc, dict):
            raise FormatError(f"expected object, got {type(doc).__name__}")
        values = {}
        try:
            for key, attr, codec, optional in table:
                if optional and doc.get(key) is None:
                    values[attr] = None
                else:
                    values[attr] = codec.decode(need(doc, key, codec.kind))
            return cls(**values)
        except ValueError as exc:
            raise FormatError(str(exc)) from None

    return to_json, from_json


def _parse_date(s: str) -> date:
    try:
        return date.fromisoformat(s)
    except ValueError:
        raise FormatError(f"not a YYYY-MM-DD date: {s!r}") from None


def _index_key(key: str) -> int:
    if not _INDEX_RE.fullmatch(key):
        raise FormatError(f"attribute index must be a canonical decimal string, got {key!r}")
    return int(key)


def _index_map(encode: Callable[[Any], Any], decode: Callable[[Any], Any]) -> Codec:
    """Attribute index -> value, keyed by decimal strings in index order."""
    return Codec(
        dict,
        lambda m: {str(i): encode(v) for i, v in sorted(m.items())},
        lambda doc: {_index_key(k): decode(v) for k, v in doc.items()},
    )


def _strings(items: list) -> frozenset[str]:
    if not all(isinstance(item, str) for item in items):
        raise FormatError("expected a list of strings")
    return frozenset(items)


def claim_to_json(c: Claim) -> dict:
    return {
        "name": c.attribute.name,
        "value": c.attribute.value,
        "issuer_id": c.issuer_id,
        "schema_id": c.schema_id,
    }


def claim_from_json(doc: Any) -> Claim:
    try:
        return Claim(
            attribute=Attribute(need(doc, "name", str), need(doc, "value", str)),
            issuer_id=need(doc, "issuer_id", str),
            schema_id=need(doc, "schema_id", str),
        )
    except ValueError as exc:
        raise FormatError(f"bad claim: {exc}") from None


def _profile_params(doc: dict) -> SystemParams:
    """A key names its profile by l_n alone: any other choice, such as a
    1-bit l_stat, weakens every proof made under it. A field beside l_n
    (older keys list all seven) must equal the profile's own value."""
    l_n = need(doc, "l_n", int)
    params = PROFILES.get(l_n)
    if params is None:
        raise FormatError(f"no key profile for l_n={l_n}")
    if not doc.items() <= asdict(params).items():
        raise FormatError(f"key parameters do not match the profile for l_n={l_n}")
    return params


# One codec per field annotation; an entry for a message type follows the
# `message` call that makes it.
CODECS: dict[str, Codec] = {
    "int": Codec(str, int_to_hex, hex_to_int),
    "str": Codec(str),
    "bytes": Codec(str, nonce_to_hex, nonce_from_hex),
    "date": Codec(str, date.isoformat, _parse_date),
    "tuple[int, ...]": Codec(list, lambda xs: [int_to_hex(x) for x in xs], lambda doc: tuple(map(hex_to_int, doc))),
    "SystemParams": Codec(dict, lambda params: {"l_n": params.l_n}, _profile_params),
    "tuple[Claim, ...]": Codec(
        list, lambda claims: [claim_to_json(c) for c in claims], lambda doc: tuple(map(claim_from_json, doc))
    ),
    "Mapping[int, int]": _index_map(int_to_hex, hex_to_int),
    "frozenset[str]": Codec(list, sorted, _strings),
    "dict[str, str]": Codec(dict),
}


# A show's disclosed attributes, each {"name", "value"}: the keys a claim
# has in a claims file. A key beside them, such as the issuer_id and
# schema_id of older shows, is ignored.
CODECS["Mapping[int, Attribute]"] = _index_map(*message(Attribute))


# -- credential metadata ---------------------------------------------------

metadata_to_json, metadata_from_json = message(CredentialMetadata)
CODECS["CredentialMetadata"] = Codec(dict, metadata_to_json, metadata_from_json)


# -- key material -----------------------------------------------------------

public_key_to_json, public_key_from_json = message(IssuerPublicKey)
secret_key_to_json, secret_key_from_json = message(IssuerSecretKey)
CODECS["HolderSecret"] = Codec(dict, *message(HolderSecret))


# -- issuance messages ------------------------------------------------------

request_to_json, request_from_json = message(IssuanceRequest)


def holder_state_to_json(state: HolderIssuanceState) -> dict:
    return {
        "v_prime": int_to_hex(state.v_prime),
        "issuer_key_digest": state.pk.digest().hex(),
    }


def holder_state_from_json(doc: Any, pk: IssuerPublicKey) -> HolderIssuanceState:
    digest = need(doc, "issuer_key_digest", str)
    if digest != pk.digest().hex():
        raise FormatError("issuance state belongs to a different issuer key")
    return HolderIssuanceState(v_prime=hex_to_int(need(doc, "v_prime", str)), pk=pk)


pre_credential_to_json, pre_credential_from_json = message(PreCredential)


# -- credentials and presentations ------------------------------------------

credential_to_json, credential_from_json = message(Credential)

CODECS["PresentationProof"] = Codec(dict, *message(PresentationProof))
presentation_to_json, presentation_from_json = message(Presentation)
