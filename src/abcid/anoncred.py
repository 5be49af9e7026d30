"""CL-style anonymous credentials over a strong-RSA group.

A credential has four parts: a binding to its holder's secret key, the
certified claims, the issuer's signature, and metadata. The signature is
a Camenisch-Lysyanskaya triple (A, e, v) over a special RSA modulus n
with quadratic-residue bases S, Z, R_0..R_L, where R_0 is reserved for
the holder secret k and R_1..R_L carry the encoded claims:

    Z == A^e * S^v * R_0^k * prod_i R_i^(m_i)   (mod n)

Issuance is blinded: the holder commits U = S^v' R_0^k with a proof of
knowledge, the issuer completes the signature on U without ever seeing k,
and the holder folds its blinding v' back in. A presentation re-randomizes
the signature (A' = A S^rA) and proves knowledge of (e - 2^(l_e-1),
v - e*rA, k, and every undisclosed m_i) via a Fiat-Shamir sigma protocol,
so any chosen subset of claims can be disclosed while the rest stay
hidden. The response for e - 2^(l_e-1) must be short, which keeps e near
its interval and away from e = 1, where anyone could forge A. Fresh
randomness per show makes transcripts pairwise unlinkable; binding to a
verifier nonce and context string stops replays.

A show carries its commitment T, and the verifier derives the challenge
from it. It accepts when its recomputed LHS satisfies LHS^2 == T^2 (mod
n), so several shows under one key can be checked with one weighted
equation (`equations_hold`).

All operations take an explicit randomness source (``random.Random`` for
reproducible tests, ``random.SystemRandom`` for real use) and are pure
given that source. The 512-bit profile exists to keep tests fast; it is
NOT a secure parameter set.
"""

from __future__ import annotations

import math
import random
from datetime import date, datetime
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple, Sequence

from .hashing import (
    TAG_ISSUE,
    TAG_PK,
    TAG_PRESENT,
    challenge_from_digest,
    int_signed_bytes,
    sha256,
    transcript_hash,
)
from .model import Attribute, Claim, CodedError, Record, claim_bytes, is_token

# Only making a key and signing draw primes, so `setup_issuer`, `issue` and
# `_e_pool` import `primes` when they run: no other command compiles it.
if TYPE_CHECKING:
    from .primes import PrimePool

NONCE_LEN = 16

Rng = random.Random  # random.SystemRandom quacks the same

DEFAULT_L_M = 256

_WINDOW = 6  # bits per fixed-base table step, and per exponent digit in _mexp


class AbcError(CodedError):
    """Base class of the credential scheme's errors."""


class ParameterError(AbcError, ValueError):
    """Parameters, a key or a nonce the scheme cannot use."""


class ProofInvalid(AbcError):
    """A proof does not verify."""


class EncodingError(AbcError):
    """Claims or metadata the issuer's key cannot carry."""


class SignatureInvalid(AbcError):
    """A pre-credential the holder must refuse."""


class NonceMismatch(AbcError):
    """A transcript bound to another nonce."""


class ContextMismatch(AbcError):
    """A presentation bound to another context."""


class LengthCheckFailed(AbcError):
    """A response outside its length bound."""


class SystemParams(Record, derived=("l_e", "l_v")):
    """Bit-length profile for the scheme. l_e and l_v are derived, each the
    least length its Idemix relation allows, so the relations hold by
    construction."""

    l_n: int  # modulus
    l_m: int  # attribute messages and holder secret
    l_e: int  # signature prime exponent
    l_e_prime: int  # width of the prime sampling interval
    l_v: int  # signature blinding exponent
    l_stat: int  # statistical zero-knowledge slack
    l_h: int  # Fiat-Shamir challenge

    def __post_init__(self) -> None:
        if self.l_m > 257:
            raise ParameterError("attribute encoding supports l_m <= 257")
        if self.l_h > 256:
            raise ParameterError("a challenge is cut from a SHA-256 digest: l_h <= 256")
        # e's interval lies above the proof's slack around it; v hides S^v statistically.
        object.__setattr__(self, "l_e", self.l_stat + self.l_h + max(self.l_m + 4, self.l_e_prime + 2) + 1)
        object.__setattr__(self, "l_v", self.l_n + self.l_m + self.l_h + 2 * self.l_stat + 4)

    @property
    def e_interval(self) -> tuple[int, int]:
        lo = 1 << (self.l_e - 1)
        return lo, lo + (1 << self.l_e_prime)

    @property
    def batch_sound(self) -> bool:
        """Whether `equations_hold` with l_stat-bit weights errs with
        probability at most 2^-l_stat: a square other than 1 has order at
        least min(p', q') >= 2^(l_n/2 - 2), which must exceed every weight."""
        return self.l_n // 2 - 2 > self.l_stat


# A profile is its modulus size; only the 512 profile is meant for tests and CI.
PROFILES: dict[int, SystemParams] = {l_n: SystemParams(l_n, DEFAULT_L_M, 120, 80, 256) for l_n in (512, 1024, 2048)}


class IssuerPublicKey(Record):
    """An issuer's modulus n and bases S, Z, R_0..R_L under one profile."""

    n: int
    S: int
    Z: int
    R: tuple[int, ...]  # R[0] binds the holder secret
    params: SystemParams
    issuer_id: str

    def __post_init__(self) -> None:
        _check_issuer(self.L, self.issuer_id)
        if self.n.bit_length() != self.params.l_n:
            raise ParameterError(f"modulus has {self.n.bit_length()} bits, profile wants {self.params.l_n}")
        if not all(_in_group(b, self.n) for b in (self.S, self.Z, *self.R)):
            raise ParameterError("every base must lie in [2, n-2] and be a unit mod n")

    @property
    def L(self) -> int:
        return len(self.R) - 1

    def digest(self) -> bytes:
        return self._digest

    @cached_property
    def _digest(self) -> bytes:
        p = self.params
        ints = (self.L, p.l_n, p.l_m, p.l_e, p.l_e_prime, p.l_v, p.l_stat, p.l_h, self.n, self.S, self.Z, *self.R)
        return transcript_hash([TAG_PK, self.issuer_id.encode("utf-8"), *map(int_signed_bytes, ints)])

    def _table(self, base: int, bits: int) -> tuple[int, ...]:
        """(b, b^(2^6), b^(2^12), ...) mod n, long enough for a `bits`-bit exponent."""
        row = [base]
        for _ in range((bits - 1) // _WINDOW):
            row.append(pow(row[-1], 1 << _WINDOW, self.n))
        return tuple(row)

    @cached_property
    def _z_inv(self) -> int:
        return pow(self.Z, -1, self.n)

    @cached_property
    def _tables(self) -> dict[int, tuple[int, ...]]:
        """base -> fixed-base table for Z^-1, S and R_0..R_L, each as long as
        the largest exponent its base is raised to (the c, s_v and s_k/s_m
        bounds). Immutable, so threads can share them."""
        p = self.params
        bits = {self._z_inv: p.l_h} | dict.fromkeys(self.R, p.l_m + p.l_stat + p.l_h + 1)
        # S last: should it equal Z^-1 or some R_i, its longer table serves both.
        bits[self.S] = p.l_v + p.l_stat + p.l_h + 1
        return {base: self._table(base, b) for base, b in bits.items()}

    @cached_property
    def _rows(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """(key base b, k) -> odd powers of b^(2^(C k)), filled by `_chunks`.
        Only the key's own bases enter it, never a show's A' or T. Threads
        racing to fill it store equal rows."""
        return {}

    def _chunks(self, base: int, exp: int) -> list[tuple[tuple[int, ...], int]]:
        """base^exp, for a key base and exp >= 0, as `_straus` terms: the
        C-bit chunks of exp, each on base^(2^(C k)). That power is read from
        the base's table, or squared up from its last entry beyond its end."""
        C = _chain_bits(self.params)
        table = self._tables[base]
        terms = []
        for k, shift in enumerate(range(0, exp.bit_length(), C)):
            chunk = exp >> shift & ((1 << C) - 1)
            if not chunk:
                continue
            row = self._rows.get((base, k))
            if row is None:
                past = max(0, shift // _WINDOW - len(table) + 1)
                b = pow(table[shift // _WINDOW - past], 1 << (_WINDOW * past), self.n)
                row = self._rows[base, k] = _odd_powers(b, _width(C), self.n)
            terms.append((row, chunk))
        return terms


class IssuerSecretKey(Record):
    """The safe primes p = 2p'+1 and q = 2q'+1 of an issuer's modulus."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p <= 3 or self.q <= 3:
            raise ParameterError("p and q must exceed 3")
        if self.p == self.q:
            raise ParameterError("p and q must differ")
        if self.p % 4 != 3 or self.q % 4 != 3:
            raise ParameterError("p and q must be = 3 (mod 4)")

    @property
    def group_order(self) -> int:
        return ((self.p - 1) // 2) * ((self.q - 1) // 2)

    @cached_property
    def _e_pool(self) -> PrimePool:
        """Where `issue` draws e from after this key object's first
        signature, which samples e without it. In memory only."""
        from .primes import PrimePool

        return PrimePool()


class HolderSecret(Record):
    """The holder's secret key k, signed into every credential it holds."""

    k: int


class IssuanceRequest(Record):
    """Blinded commitment U = S^v' R_0^k plus a Fiat-Shamir proof of
    knowledge of (v', k), bound to the issuer's nonce."""

    U: int
    c: int
    s_v: int
    s_k: int
    nonce: bytes


class HolderIssuanceState(Record):
    """What the holder keeps between its request and completion."""

    v_prime: int
    pk: IssuerPublicKey


class CredentialMetadata(Record):
    """A credential's issuer, schema, dates and wallet id; none of it signed."""

    issuer_id: str
    schema_id: str
    issued_at: date
    expires_at: date | None = None
    credential_id: str = ""

    def __post_init__(self) -> None:
        if not all(isinstance(s, str) for s in (self.issuer_id, self.schema_id, self.credential_id)):
            raise ValueError("issuer_id, schema_id and credential_id must be strings")
        days = (self.issued_at,) if self.expires_at is None else (self.issued_at, self.expires_at)
        if any(not isinstance(d, date) or isinstance(d, datetime) for d in days):
            raise ValueError("issued_at and expires_at must be dates without a time of day")


class PreCredential(Record):
    """The issuer's signature (A, e, v'') on a request, with its claims."""

    A: int
    e: int
    v_dprime: int
    claims: tuple[Claim, ...]
    metadata: CredentialMetadata


class Credential(Record):
    """A completed CL signature (A, e, v) on the holder secret and claims."""

    A: int
    e: int
    v: int
    claims: tuple[Claim, ...]
    metadata: CredentialMetadata

    @cached_property
    def _a_tables(self) -> dict[int, tuple[int, ...]]:
        """Modulus n -> fixed-base table of A mod n, filled by `present`.
        Held here, in memory only, and never on the key that verifiers
        share: A links every show of this credential."""
        return {}


class PresentationProof(Record):
    """A show's commitment T and its responses; the challenge is derived."""

    T: int
    s_e: int
    s_v: int
    s_k: int
    s_m: Mapping[int, int]  # responses for undisclosed attribute indices

    def __post_init__(self) -> None:
        object.__setattr__(self, "s_m", dict(self.s_m))


class Presentation(Record):
    """One show of a credential, bound to a nonce, a context and an issuer.
    It discloses attributes; the verifier reads each as a claim of its key's
    issuer, the only claims that key signs."""

    a_prime: int
    disclosed: Mapping[int, Attribute]
    proof: PresentationProof
    nonce: bytes
    context: str
    issuer_id: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "disclosed", dict(self.disclosed))
        if not all(isinstance(i, int) and isinstance(a, Attribute) for i, a in self.disclosed.items()):
            raise ValueError("disclosed must map attribute indices to Attributes")


def encode_attribute(claim: Claim, params: SystemParams) -> int:
    """Message integer for a claim: the first l_m - 1 bits of SHA-256 over
    the claim's canonical serialization."""
    if not isinstance(claim, Claim):
        raise EncodingError(f"not a claim: {claim!r}")
    digest = sha256(claim_bytes(claim)).digest()
    return int.from_bytes(digest, "big") >> (256 - (params.l_m - 1))


def _mexp(pk: IssuerPublicKey, terms: Iterable[tuple[int, int]], tables: Mapping | None = None) -> int:
    """prod base^exp (mod pk.n) over the (base, exp) terms.

    A term whose base has a key table and whose exponent is >= 0 and fits
    the table joins one shared fixed-base pass (Brickell-Gordon-McCurley-
    Wilson; Yao's bucket method): each table entry b^(2^(6j)) is multiplied
    into the bucket of the exponent's j-th 6-bit digit, and the buckets are
    folded with a running product. Every other term gets its own `pow`
    (a negative exponent inverts its base, or raises ValueError): a checked
    input has at most one, a show's A', a request's U^-c or a credential's
    A^e. `tables` defaults to `pk._tables`.
    """
    n = pk.n
    tables = pk._tables if tables is None else tables
    buckets = [1] * (1 << _WINDOW)
    mask = len(buckets) - 1
    acc = 1
    for base, exp in terms:
        table = tables.get(base)
        if table is not None and 0 <= exp and exp.bit_length() <= _WINDOW * len(table):
            for entry, shift in zip(table, range(0, exp.bit_length(), _WINDOW)):
                digit = exp >> shift & mask
                if digit:
                    buckets[digit] = buckets[digit] * entry % n
        elif exp:
            acc = acc * pow(base, exp, n) % n
    running = 1
    for bucket in reversed(buckets[1:]):  # acc *= prod_d bucket[d]^d
        running = running * bucket % n
        acc = acc * running % n
    return acc


def _width(bits: int) -> int:
    """Digit width for a `bits`-bit exponent whose base's odd powers are
    made per call: a width w costs 2^(w-1) multiplications for the row
    and about bits/(w+1) in the chain, and w+1 is cheaper past
    2^(w-1)(w+1)(w+2) bits: 3-bit digits for 25 to 80 bits, 6-bit digits
    for 673 to 1792."""
    w = 1
    while bits > (w + 1) * (w + 2) << (w - 1):
        w += 1
    return w


def _odd_powers(base: int, width: int, n: int) -> tuple[int, ...]:
    """(b, b^3, b^5, ..., b^(2^width - 1)) mod n."""
    row = [base % n]
    square = row[0] * row[0] % n
    for _ in range((1 << (width - 1)) - 1):
        row.append(row[-1] * square % n)
    return tuple(row)


def _straus(terms: Iterable[tuple[Sequence[int], int]], n: int) -> int:
    """prod row[0]^exp (mod n) over (row, exp) terms with exp >= 0, where
    each row holds the odd powers of its base (`_odd_powers`): one chain
    of squarings, into which every term's digits are multiplied (Straus
    1964, with the sliding windows of Moller, SAC 2001). Each exponent is
    recoded from its low end into odd digits below 2^w, where its row
    holds 2^(w-1) powers."""
    slots: dict[int, list[int]] = {}
    for row, exp in terms:
        mask = (len(row) << 1) - 1
        while exp:
            pos = (exp & -exp).bit_length() - 1
            digit = exp >> pos & mask
            slots.setdefault(pos, []).append(row[digit >> 1])
            exp ^= digit << pos
    acc = 1
    for pos in range(max(slots, default=-1), -1, -1):
        acc = acc * acc % n
        for entry in slots.get(pos, ()):
            acc = acc * entry % n
    return acc


def _in_group(x: int, n: int) -> bool:
    """The rule for every group element the scheme takes in: key bases,
    U, A' and T. Checked before any exponentiation, it leaves none to fail."""
    return 2 <= x <= n - 2 and math.gcd(x, n) == 1


def _unit_base(n: int, draw: Callable[[], int]) -> int:
    """The first draw that is a group element, as every key base must be."""
    while True:
        b = draw()
        if _in_group(b, n):
            return b


def _check_issuer(L: int, issuer_id: str) -> None:
    if L < 1:
        raise ParameterError("need at least one attribute base")
    if not is_token(issuer_id):
        raise ParameterError(f"issuer id must be a lowercase token, got {issuer_id!r}")


def setup_issuer_from_primes(
    L: int,
    p: int,
    q: int,
    params: SystemParams,
    rng: Rng,
    issuer_id: str = "issuer",
) -> tuple[IssuerPublicKey, IssuerSecretKey]:
    """Key pair from caller-supplied safe primes (test hook; `setup_issuer`
    generates the primes for you)."""
    _check_issuer(L, issuer_id)
    sk = IssuerSecretKey(p=p, q=q)
    n = p * q
    S = _unit_base(n, lambda: pow(rng.randrange(2, n - 1), 2, n))  # a square, so in QR_n
    Z, *R = (_unit_base(n, lambda: pow(S, rng.randrange(2, sk.group_order), n)) for _ in range(L + 2))
    return IssuerPublicKey(n=n, S=S, Z=Z, R=tuple(R), params=params, issuer_id=issuer_id), sk


def setup_issuer(
    L: int, l_n: int, rng: Rng, issuer_id: str = "issuer"
) -> tuple[IssuerPublicKey, IssuerSecretKey]:
    """Provision an issuer for credentials carrying exactly L claims."""
    _check_issuer(L, issuer_id)
    params = PROFILES.get(l_n)
    if params is None:
        raise ParameterError(f"unsupported modulus size {l_n}, pick one of {sorted(PROFILES)}")
    from .primes import safe_prime

    # safe_prime sets the top two bits, so p*q has exactly l_n bits, and
    # setup_issuer_from_primes refuses p == q: no draw needs a retry.
    p = safe_prime(l_n // 2, rng)
    q = safe_prime(l_n // 2, rng)
    return setup_issuer_from_primes(L, p, q, params, rng, issuer_id)


def holder_keygen(rng: Rng, l_m: int = DEFAULT_L_M) -> HolderSecret:
    """Secret key of the credential owner, uniform in [1, 2^l_m)."""
    return HolderSecret(k=rng.randrange(1, 1 << l_m))


def _issue_challenge(pk: IssuerPublicKey, U: int, T: int, nonce: bytes) -> int:
    digest = transcript_hash(
        [TAG_ISSUE, pk.digest(), int_signed_bytes(U), int_signed_bytes(T), nonce]
    )
    return challenge_from_digest(digest, pk.params.l_h)


def begin_issuance(
    pk: IssuerPublicKey, hs: HolderSecret, issuer_nonce: bytes, rng: Rng
) -> tuple[IssuanceRequest, HolderIssuanceState]:
    """Holder side, step one: blind the secret key into U and prove
    knowledge of the blinding and the key."""
    _check_nonce(issuer_nonce)
    p = pk.params
    while True:  # U is a unit, so only U = ±1 breaks `_in_group`; at toy sizes it happens
        v_prime = rng.getrandbits(p.l_n + p.l_stat)
        U = _mexp(pk, [(pk.S, v_prime), (pk.R[0], hs.k)])
        if U not in (1, pk.n - 1):
            break

    r_v = rng.getrandbits(p.l_n + 2 * p.l_stat + p.l_h)
    r_k = rng.getrandbits(p.l_m + p.l_stat + p.l_h)
    T = _mexp(pk, [(pk.S, r_v), (pk.R[0], r_k)])
    c = _issue_challenge(pk, U, T, issuer_nonce)
    req = IssuanceRequest(
        U=U, c=c, s_v=r_v + c * v_prime, s_k=r_k + c * hs.k, nonce=issuer_nonce
    )
    return req, HolderIssuanceState(v_prime=v_prime, pk=pk)


def verify_issuance_request(pk: IssuerPublicKey, req: IssuanceRequest) -> None:
    """Issuer-side check of the request proof; raises ProofInvalid."""
    p = pk.params
    if not _in_group(req.U, pk.n):
        raise ProofInvalid("U is not a unit in [2, n-2]")
    if not 0 <= req.c < (1 << p.l_h):
        raise ProofInvalid("challenge out of range")
    if req.s_v < 0 or req.s_v.bit_length() > p.l_n + 2 * p.l_stat + p.l_h + 1:
        raise ProofInvalid("response s_v fails its length bound")
    if req.s_k < 0 or req.s_k.bit_length() > p.l_m + p.l_stat + p.l_h + 1:
        raise ProofInvalid("response s_k fails its length bound")
    T_hat = _mexp(pk, [(pk.S, req.s_v), (pk.R[0], req.s_k), (req.U, -req.c)])
    if _issue_challenge(pk, req.U, T_hat, req.nonce) != req.c:
        raise ProofInvalid("issuance request proof does not verify")


def issue(
    sk: IssuerSecretKey,
    pk: IssuerPublicKey,
    req: IssuanceRequest,
    claims: Sequence[Claim],
    metadata: CredentialMetadata,
    rng: Rng,
) -> PreCredential:
    """Issuer side: sign the blinded commitment together with the claims."""
    if sk.p * sk.q != pk.n:  # else A would be a root mod the wrong modulus, refused only at completion
        raise ParameterError("secret key does not belong to this public key")
    verify_issuance_request(pk, req)
    if len(claims) != pk.L:
        raise EncodingError(f"issuer key fits exactly {pk.L} claims, got {len(claims)}")
    p = pk.params
    n = pk.n
    ms = [encode_attribute(c, p) for c in claims]
    if any(c.issuer_id != pk.issuer_id for c in claims):
        raise EncodingError(f"issuer {pk.issuer_id!r} certifies only claims under its own id")
    if metadata.issuer_id != pk.issuer_id:
        raise EncodingError(f"issuer {pk.issuer_id!r} issues only credentials under its own id")

    # e, p' and q' are primes, and e has l_e bits where p' and q' have l_n/2 - 1,
    # so at every profile gcd(e, p'q') = 1; were it not, pow(e, -1, .) would raise.
    # The key's pool never repeats an e: two signatures on one e forge a third.
    from .primes import random_prime_in_interval

    e = random_prime_in_interval(*p.e_interval, rng, sk._e_pool)
    # A = Q^d with d = 1/e mod p'q'. Q is a unit mod n, so by Fermat
    # Q^d = Q^(d mod (p-1)) (mod p), and likewise mod q; CRT recombines.
    d = pow(e, -1, sk.group_order)
    while True:  # as U in begin_issuance: the holder refuses A = 1, which toy sizes can give
        v_dprime = rng.getrandbits(p.l_v)
        denom = req.U * _mexp(pk, [(pk.S, v_dprime), *zip(pk.R[1:], ms)]) % n
        Q = pk.Z * pow(denom, -1, n) % n  # U and every base are units, so denom is one
        a_p = pow(Q, d % (sk.p - 1), sk.p)
        a_q = pow(Q, d % (sk.q - 1), sk.q)
        A = a_q + sk.q * ((a_p - a_q) * pow(sk.q, -1, sk.p) % sk.p)
        if _in_group(A, n):
            break
    return PreCredential(A=A, e=e, v_dprime=v_dprime, claims=tuple(claims), metadata=metadata)


def signature_holds(pk: IssuerPublicKey, A: int, e: int, v: int, k: int, ms: Sequence[int]) -> bool:
    """The CL verification equation Z == A^e S^v R0^k prod Ri^mi (mod n)."""
    return _mexp(pk, [(A, e), (pk.S, v), (pk.R[0], k), *zip(pk.R[1:], ms)]) == pk.Z


def complete_credential(
    pre: PreCredential, state: HolderIssuanceState, hs: HolderSecret
) -> Credential:
    """Holder side, final step: fold the blinding back in and check the
    signature equation (the issuer is not otherwise trusted)."""
    pk = state.pk
    p = pk.params
    if not _in_group(pre.A, pk.n) or not 0 <= pre.v_dprime < 1 << p.l_v:  # honest v'' has l_v bits; more only cost time
        raise SignatureInvalid("A is not a unit in [2, n-2], or v'' lies outside [0, 2^l_v)")
    v = state.v_prime + pre.v_dprime
    lo, hi = p.e_interval
    if not lo <= pre.e <= hi:
        raise SignatureInvalid("e outside its prescribed interval")
    if pre.e % 2 == 0:  # then (-A)^e = A^e, and the issuer could return -A as a tag
        raise SignatureInvalid("e is even")
    if len(pre.claims) != pk.L:  # the equation would skip any claim past the key's bases
        raise SignatureInvalid(f"issuer key signs exactly {pk.L} claims, got {len(pre.claims)}")
    if pre.metadata.issuer_id != pk.issuer_id:  # shows name the key's issuer, not this string
        raise SignatureInvalid(f"issuer key belongs to {pk.issuer_id!r}, not {pre.metadata.issuer_id!r}")
    if any(c.issuer_id != pk.issuer_id for c in pre.claims):  # no show disclosing it would verify
        raise SignatureInvalid(f"issuer key belongs to {pk.issuer_id!r}, yet a claim names another issuer")
    ms = [encode_attribute(c, p) for c in pre.claims]
    if not signature_holds(pk, pre.A, pre.e, v, hs.k, ms):
        raise SignatureInvalid("credential fails the verification equation")
    return Credential(A=pre.A, e=pre.e, v=v, claims=pre.claims, metadata=pre.metadata)


def _check_nonce(nonce: bytes) -> None:
    if not isinstance(nonce, (bytes, bytearray)) or len(nonce) != NONCE_LEN:
        raise ParameterError(f"nonce must be {NONCE_LEN} bytes")


def _present_challenge(
    pk: IssuerPublicKey,
    a_prime: int,
    T: int,
    disclosed: Mapping[int, Attribute],
    nonce: bytes,
    context: str,
) -> int:
    elems = [TAG_PRESENT, pk.digest(), *map(int_signed_bytes, (a_prime, T, len(disclosed)))]
    for i in sorted(disclosed):
        elems.append(int_signed_bytes(i))
        elems.append(claim_bytes(Claim(disclosed[i], pk.issuer_id)))
    elems.append(bytes(nonce))
    elems.append(context.encode("utf-8"))
    return challenge_from_digest(transcript_hash(elems), pk.params.l_h)


def present(
    pk: IssuerPublicKey,
    cred: Credential,
    hs: HolderSecret,
    disclose: Iterable[int],
    nonce: bytes,
    context: str,
    rng: Rng,
) -> Presentation:
    """One-show transcript disclosing the chosen claim indices (1-based).

    The credential can be shown as many times as needed; every call
    re-randomizes the signature and the proof. The holder secret index 0
    can never be disclosed. A presentation made with the wrong holder
    secret is well-formed but will not verify.
    """
    _check_nonce(nonce)
    L_c = len(cred.claims)
    if L_c != pk.L:
        raise EncodingError(f"issuer key fits exactly {pk.L} claims, got {L_c}")
    if any(c.issuer_id != pk.issuer_id for c in cred.claims):  # as in complete_credential: no show would verify
        raise EncodingError(f"issuer key belongs to {pk.issuer_id!r}, yet a claim names another issuer")
    disclose = set(disclose)
    if any(i < 1 or i > L_c for i in disclose):
        raise IndexError(f"disclosure indices must lie in 1..{L_c}")
    p = pk.params
    n = pk.n

    while True:  # as U in begin_issuance; a non-unit A (a hand-edited wallet) never verifies
        r_A = rng.getrandbits(p.l_n + p.l_stat)
        a_prime = cred.A * _mexp(pk, [(pk.S, r_A)]) % n
        if a_prime not in (1, n - 1):
            break
    v_bar = cred.v - cred.e * r_A

    ms = {i: encode_attribute(c, p) for i, c in enumerate(cred.claims, start=1)}
    hidden = sorted(set(ms) - disclose)

    # A'^r_e = A^r_e * S^(r_A*r_e), so T raises only fixed bases; r_v + r_A*r_e
    # still fits S's table. Threads racing to build A's table store equal ones.
    a_tables = cred._a_tables
    if n not in a_tables:
        a_tables[n] = pk._table(cred.A, p.l_e_prime + p.l_stat + p.l_h)
    tables = {cred.A: a_tables[n]} | pk._tables
    disclosed = {i: cred.claims[i - 1].attribute for i in sorted(disclose)}
    while True:  # the verifier refuses T = ±1 and s_v < 0 (odds below 2^-78): redraw
        r_e = rng.getrandbits(p.l_e_prime + p.l_stat + p.l_h)
        r_v = rng.getrandbits(p.l_v + p.l_stat + p.l_h)
        r_k = rng.getrandbits(p.l_m + p.l_stat + p.l_h)
        r_m = {i: rng.getrandbits(p.l_m + p.l_stat + p.l_h) for i in hidden}
        terms = [(cred.A, r_e), (pk.S, r_v + r_A * r_e), (pk.R[0], r_k), *((pk.R[i], r_m[i]) for i in hidden)]
        T = _mexp(pk, terms, tables)
        c = _present_challenge(pk, a_prime, T, disclosed, nonce, context)
        if T not in (1, n - 1) and r_v + c * v_bar >= 0:
            break

    proof = PresentationProof(
        T=T,
        s_e=r_e + c * (cred.e - p.e_interval[0]),
        s_v=r_v + c * v_bar,
        s_k=r_k + c * hs.k,
        s_m={i: r_m[i] + c * ms[i] for i in hidden},
    )
    return Presentation(
        a_prime=a_prime,
        disclosed=disclosed,
        proof=proof,
        nonce=bytes(nonce),
        context=context,
        issuer_id=pk.issuer_id,
    )


def _check_response_bound(value: int, bits: int, label: str) -> None:
    if value < 0 or value.bit_length() > bits + 1:
        raise LengthCheckFailed(f"response {label} fails its length bound")


class Equation(NamedTuple):
    """A show's verification equation: LHS = prod base^exp over `terms`,
    which an honest show makes equal to its commitment T."""

    terms: list[tuple[int, int]]
    T: int


def presentation_equation(
    pk: IssuerPublicKey,
    pres: Presentation,
    expected_nonce: bytes,
    expected_context: str,
) -> Equation:
    """Run every check of a presentation that needs no exponentiation,
    recompute its challenge from T, and return its equation.

    Rejections carry distinct codes: NonceMismatch / ContextMismatch for
    binding failures, LengthCheckFailed for out-of-range responses, and
    ProofInvalid for everything else. A negative response is out of range,
    so every exponent is >= 0, and A' is the one base without a key table.
    """
    if bytes(pres.nonce) != bytes(expected_nonce):
        raise NonceMismatch("presentation bound to a different nonce")
    if pres.context != expected_context:
        raise ContextMismatch("presentation bound to a different context")

    p = pk.params
    proof = pres.proof

    if pres.issuer_id != pk.issuer_id:
        raise ProofInvalid("presentation names a different issuer")
    if not _in_group(pres.a_prime, pk.n):
        raise ProofInvalid("A' is not a unit in [2, n-2]")
    if not _in_group(proof.T, pk.n):
        raise ProofInvalid("T is not a unit in [2, n-2]")
    # Each of 1..L disclosed or hidden once; never 0, the holder secret.
    if sorted([*pres.disclosed, *proof.s_m]) != list(range(1, pk.L + 1)):
        raise ProofInvalid("attribute indices do not form a credential layout")

    _check_response_bound(proof.s_e, p.l_e_prime + p.l_stat + p.l_h, "s_e")
    _check_response_bound(proof.s_v, p.l_v + p.l_stat + p.l_h, "s_v")
    _check_response_bound(proof.s_k, p.l_m + p.l_stat + p.l_h, "s_k")
    for i, s in proof.s_m.items():
        _check_response_bound(s, p.l_m + p.l_stat + p.l_h, f"s_m[{i}]")

    c = _present_challenge(pk, pres.a_prime, proof.T, pres.disclosed, pres.nonce, pres.context)
    # (Z / prod_disclosed R_j^m_j)^-c = Z^-c * prod_disclosed R_j^(c*m_j)
    # s_e answers for e - 2^(l_e-1), so A' gets the offset back here.
    terms = [(pres.a_prime, proof.s_e + c * p.e_interval[0]), (pk.S, proof.s_v), (pk.R[0], proof.s_k)]
    terms += [(pk.R[i], s) for i, s in proof.s_m.items()]
    terms += [(pk.R[i], c * encode_attribute(Claim(a, pk.issuer_id), p)) for i, a in pres.disclosed.items()]
    terms.append((pk._z_inv, c))
    return Equation(terms, proof.T)


def verify_presentation(
    pk: IssuerPublicKey,
    pres: Presentation,
    expected_nonce: bytes,
    expected_context: str,
) -> frozenset[Claim]:
    """Check a presentation transcript; returns exactly the disclosed
    attributes, each as a claim of the key's issuer.

    It raises the codes of `presentation_equation`, and ProofInvalid unless
    LHS^2 == T^2 (mod n). An honest show has LHS = T; one with LHS = -T
    holds too, and that is sound (see `equations_hold`).
    """
    terms, T = presentation_equation(pk, pres, expected_nonce, expected_context)
    lhs = _mexp(pk, terms)
    if lhs * lhs % pk.n != T * T % pk.n:
        raise ProofInvalid("transcript equation does not verify")
    return frozenset(Claim(a, pk.issuer_id) for a in pres.disclosed.values())


def equations_hold(pk: IssuerPublicKey, equations: Sequence[Equation], weights: Sequence[int]) -> bool:
    """Whether prod_j LHS_j^(2 d_j) == prod_j T_j^(2 d_j) (mod n), for the
    equations of several shows under `pk` and weights d_j drawn at random
    from [0, 2^l_stat) after every challenge was computed (the small-
    exponents test of Bellare, Garay and Rabin 1998, squared for the
    elements of order 2 that Boyd and Pavlovski 2000 point out).

    Squaring makes the test sound up to a square root of 1: if some
    eps_j = LHS_j / T_j has eps_j^2 != 1, then eps_j^2 lies in QR_n with
    order at least min(p', q') > 2^l_stat (`SystemParams.batch_sound`), so
    for any other weights at most one d_j passes. A root of 1 is harmless:
    the extractor then gets Z = eps A^e S^v prod R_i^m_i with eps^2 = 1; for
    odd e, (eps A, e, v) is a signature, and for even e, eps lies in QR_n,
    where only 1 squares to 1. Every term rides one `_straus` chain of
    `_chain_bits` squarings, which the A'_j exponents need anyway; each
    key base joins it in chunks of that length, on rows the key caches.
    Checked shows and weights >= 0 give every base a sum >= 0, so no bundle
    of them needs a longer chain; a negative sum raises ParameterError.
    """
    if not pk.params.batch_sound:
        raise ParameterError(f"a {pk.params.l_n}-bit modulus is too small for l_stat-bit weights")
    n = pk.n
    # T_j^-d_j = T_j^(D - d_j) P^-D with P = prod_j T_j: one inversion per bundle, not one per show.
    D = 1 << max((abs(d).bit_length() for d in weights), default=0)
    exps: dict[int, int] = {}
    P = 1
    for (terms, T), d in zip(equations, weights, strict=True):
        for base, exp in terms:
            exps[base] = exps.get(base, 0) + d * exp
        exps[T] = exps.get(T, 0) + D - d
        P = P * T % n
    chain = [((pow(P, -1, n),), D)]
    for base, exp in exps.items():
        if exp < 0:
            raise ParameterError("a base's weighted exponent sum is negative")
        if base in pk._tables:
            chain += pk._chunks(base, exp)
        elif exp:
            chain.append((_odd_powers(base, _width(exp.bit_length()), n), exp))
    x = _straus(chain, n)
    return x * x % n == 1


def _chain_bits(p: SystemParams) -> int:
    """Length C of a batch's squaring chain: above every d_j-weighted A'_j
    exponent d_j (s_e + c 2^(l_e-1)), and a whole number of table steps,
    so that base^(2^(C k)) is a table entry. 936 at every profile."""
    return -(-(p.l_stat + p.l_e + p.l_h + 2) // _WINDOW) * _WINDOW
