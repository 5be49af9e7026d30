"""Bit-exact transcript hashing shared by issuance and presentation.

Every hashed element is length-prefixed (4-byte big-endian) so transcripts
are unambiguous, and integers carry an explicit sign byte ahead of their
minimal big-endian magnitude. Changing any of this breaks interoperability
with previously written message files.

This is the package's one SHA-256. It comes from CPython's built-in module,
as `random` takes its SHA-512, so that no process maps OpenSSL's libcrypto
(3.6 MB of RSS) for a few short digests. The OpenSSL-backed module is only
the fallback for an interpreter built without the built-in one.
"""

from __future__ import annotations

from typing import Iterable

try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

TAG_ISSUE = b"abcid/issue/v1"
TAG_PRESENT = b"abcid/present/v1"
TAG_PK = b"abcid/pk/v1"

_POS = b"\x00"
_NEG = b"\x01"


def int_signed_bytes(x: int) -> bytes:
    """Sign byte plus minimal big-endian magnitude (zero is b'\\x00')."""
    sign = _NEG if x < 0 else _POS
    mag = abs(x)
    return sign + mag.to_bytes((mag.bit_length() + 7) // 8, "big")


def frame(elements: Iterable[bytes]) -> bytes:
    out = bytearray()
    for e in elements:
        out += len(e).to_bytes(4, "big")
        out += e
    return bytes(out)


def transcript_hash(elements: Iterable[bytes]) -> bytes:
    return sha256(frame(elements)).digest()


def challenge_from_digest(digest: bytes, bits: int) -> int:
    """First `bits` bits of the digest, as an integer."""
    if bits > 8 * len(digest):
        raise ValueError("challenge longer than digest")
    return int.from_bytes(digest, "big") >> (8 * len(digest) - bits)
