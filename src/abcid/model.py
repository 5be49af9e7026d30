"""Identity data model: attributes, certified claims, and credential
selection. A holder's wallet is its digital identity; `select_credentials`
picks the credentials for a domain's partial identity, and `gate.access`
returns the claims that the domain verified.

Everything is a frozen dataclass and every operation is a pure function,
so values are safe to share across threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping

TOKEN_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
MAX_NAME_LEN = 64

_FIELD_SEP = b"\x1f"


def is_token(s: str) -> bool:
    return bool(TOKEN_RE.match(s))


@dataclass(frozen=True)
class Attribute:
    """A named characteristic of an entity. Equality is exact on the
    (name, value) pair; values are opaque UTF-8 strings and may be empty."""

    name: str
    value: str = ""

    def __post_init__(self) -> None:
        if not is_token(self.name) or len(self.name) > MAX_NAME_LEN:
            raise ValueError(f"invalid attribute name: {self.name!r}")
        if not isinstance(self.value, str):
            raise ValueError("attribute value must be a string")


@dataclass(frozen=True)
class Claim:
    """An attribute certified by an issuer.

    Two claims are the same fact when (name, value, issuer_id) match;
    the schema under which the fact was certified does not split identity.
    """

    attribute: Attribute
    issuer_id: str
    schema_id: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not is_token(self.issuer_id):
            raise ValueError(f"claim needs a certifying issuer, got {self.issuer_id!r}")
        if self.schema_id and not is_token(self.schema_id):
            raise ValueError(f"invalid schema id: {self.schema_id!r}")


def claim_bytes(claim: Claim) -> bytes:
    """Canonical byte serialization of a claim, used wherever claims are
    hashed: each field UTF-8, 4-byte big-endian length prefix, fields
    joined by 0x1F."""
    parts = []
    for text in (claim.attribute.name, claim.attribute.value, claim.issuer_id):
        raw = text.encode("utf-8")
        parts.append(len(raw).to_bytes(4, "big") + raw)
    return _FIELD_SEP.join(parts)


class CodedError(Exception):
    """Base of every error the package reports by a stable, machine-readable
    `code`, its class name; the CLI prints it as `error[<code>]`."""

    code = "CodedError"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.code = cls.__name__


class Unsatisfiable(CodedError):
    """The wallet cannot jointly cover the required attributes."""

    def __init__(self, missing: Iterable[str]):
        self.missing = frozenset(missing)
        super().__init__(f"attributes not covered by wallet: {sorted(self.missing)}")


def select_credentials(required: Iterable[str], wallet: Mapping[str, frozenset[str]]) -> list[str]:
    """Pick credentials, given as id -> attribute names, whose attributes
    jointly cover `required`.

    Greedy cover: repeatedly take the credential certifying the most
    still-uncovered required attributes; ties go to the credential with
    the fewest attributes overall (disclose no more than needed), then to
    the lexicographically smallest id. Deterministic, and minimal on the
    reference fixture; a brute-force cover can occasionally be smaller.
    """
    uncovered = set(required)
    reachable: set[str] = set()
    for names in wallet.values():
        reachable |= names
    if not uncovered <= reachable:
        raise Unsatisfiable(uncovered - reachable)

    chosen: list[str] = []
    while uncovered:  # a chosen credential covers nothing still uncovered
        best = min(wallet, key=lambda cid: (-len(wallet[cid] & uncovered), len(wallet[cid]), cid))
        chosen.append(best)
        uncovered -= wallet[best]
    return chosen
