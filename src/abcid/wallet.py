"""Holder-side persistence: one secret key plus the credentials bound to it.

Wallet files are plain JSON written with owner-only permissions; they are
the only files that ever carry the holder secret or raw signature values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .anoncred import Credential, HolderSecret
from .wire import FormatError, load, save, wallet_from_json, wallet_to_json


@dataclass
class Wallet:
    holder_secret: HolderSecret | None = None
    credentials: list[Credential] = field(default_factory=list)
    labels: dict[str, str] = field(default_factory=dict)

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


def wallet_save(wallet: Wallet, path: str | Path) -> None:
    """Replace the wallet file atomically (see `wire.save_text`)."""
    save(wallet_to_json(wallet.holder_secret, wallet.credentials, wallet.labels), path)


def wallet_load(path: str | Path) -> Wallet:
    hs, creds, labels = wallet_from_json(load(path))
    return Wallet(holder_secret=hs, credentials=creds, labels=labels)


__all__ = ["Wallet", "wallet_save", "wallet_load", "FormatError"]
