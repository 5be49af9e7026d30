"""Holder-side persistence: one secret key plus the credentials bound to it.

Wallet files are plain JSON written with owner-only permissions; they are
the only files that ever carry the holder secret or raw signature values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .anoncred import Credential, HolderSecret
from .wire import CODECS, Codec, FormatError, credential_from_json, credential_to_json, load, message, need, save

WALLET_VERSION = 1


@dataclass
class Wallet:
    holder_secret: HolderSecret
    credentials: list[Credential] = field(default_factory=list)
    labels: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.holder_secret, HolderSecret):
            raise ValueError("a wallet needs a holder secret")
        seen: set[str] = set()
        for c in self.credentials:
            cid = c.metadata.credential_id
            if cid in seen:
                raise ValueError(f"credential id {cid!r} already in wallet")
            seen.add(cid)
        if not all(isinstance(k, str) and isinstance(v, str) for k, v in self.labels.items()):
            raise ValueError("labels must map strings to strings")

    def add_credential(self, cred: Credential, label: str = "") -> None:
        cid = cred.metadata.credential_id
        if any(c.metadata.credential_id == cid for c in self.credentials):
            raise ValueError(f"credential id {cid!r} already in wallet")
        self.credentials.append(cred)
        if label:
            self.labels[cid] = label

    def find(self, credential_id: str) -> Credential:
        for c in self.credentials:
            if c.metadata.credential_id == credential_id:
                return c
        raise KeyError(credential_id)

    def summaries(self) -> dict[str, frozenset[str]]:
        """Credential id -> the names of the attributes it certifies."""
        return {
            c.metadata.credential_id: frozenset(cl.attribute.name for cl in c.claims)
            for c in self.credentials
        }


# The wallet is the one message that lists credentials, so that codec sits
# beside it.
CODECS["list[Credential]"] = Codec(
    list, lambda creds: [credential_to_json(c) for c in creds], lambda doc: list(map(credential_from_json, doc))
)
wallet_to_json, wallet_from_json = message(Wallet)


def wallet_save(wallet: Wallet, path: str | Path) -> None:
    """Replace the wallet file atomically (see `wire.save_text`)."""
    save({"version": WALLET_VERSION, **wallet_to_json(wallet)}, path)


def wallet_load(path: str | Path) -> Wallet:
    doc = load(path)
    if need(doc, "version", int) != WALLET_VERSION:
        raise FormatError(f"unsupported wallet version {doc['version']}")
    return wallet_from_json(doc)


__all__ = ["Wallet", "wallet_save", "wallet_load", "FormatError"]
