"""Domain registry and access decisions.

A domain is a set of resources governed by the same policies; getting in
means authenticating with credential presentations. A policy governs the
domain its own `in domain` clause names, so the registry keeps one id ->
policy mapping for all domains. `access` verifies each presentation
against a trusted issuer key, pools the disclosed claims, and evaluates
the domain's policies over them in registry order. Any failed
presentation forces Deny no matter what the policies would say.

`reference_fixture` builds the reference scenario used throughout the test
suite: seven attributes a1..a7, five credentials c1..c5 in one wallet,
and four domains d1..d4 with the attribute requirements

    medical_files  {a5, a6}     students_marks {a3}
    library        {a6, a7}     staff_bus      {a4, a6}

so that {c1,c5} opens medical_files, {c3} opens students_marks, and so
on. The library policy additionally names `student` (a1), an attribute no
fixture credential certifies; the scenario is deliberately inconsistent
there (credential selection and the policy disagree about a1) and tests
assert the resulting Deny instead of smoothing it over.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from datetime import date
from typing import Iterable
from urllib.parse import quote

from .anoncred import (
    AbcError,
    CredentialMetadata,
    HolderSecret,
    IssuerPublicKey,
    IssuerSecretKey,
    Presentation,
    begin_issuance,
    complete_credential,
    holder_keygen,
    issue,
    setup_issuer,
    verify_presentation,
)
from .model import Attribute, Claim, CodedError, is_token
from .policy import PRESENTATION_REJECTED, AccessRequest, Decision, Policy, evaluate, parse_policy
from .wallet import Wallet
from .wire import FormatError, message, need


class GateError(CodedError):
    """Base class of the gate's errors."""


class DuplicateDomain(GateError):
    """Two domains share an id."""


class UnknownDomain(GateError):
    """A request names a domain the registry does not hold."""


class KeyDigestMismatch(GateError):
    """An issuer key the registry does not list under that digest."""


class UntrustedIssuer(GateError):
    """A presentation names an issuer the domain does not trust."""


class UnknownIssuerKey(GateError):
    """A trusted issuer whose key the registry does not hold."""


@dataclass(frozen=True)
class DomainSpec:
    domain_id: str
    required_attrs: frozenset[str]
    trusted_issuers: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "required_attrs", frozenset(self.required_attrs))
        object.__setattr__(self, "trusted_issuers", frozenset(self.trusted_issuers))
        if not is_token(self.domain_id):
            raise ValueError(f"invalid domain id: {self.domain_id!r}")
        if not self.trusted_issuers:
            raise ValueError("a domain must trust at least one issuer")


@dataclass(frozen=True)
class AccessOutcome:
    decision: Decision
    verified: frozenset[Claim]
    presentation_errors: tuple[tuple[int, str], ...]

    def __post_init__(self) -> None:
        if self.decision.outcome == "Permit" and self.presentation_errors:
            raise ValueError("Permit cannot coexist with presentation errors")


@dataclass
class Registry:
    """Read-mostly store; writes must be externally serialized."""

    domains: dict[str, DomainSpec] = field(default_factory=dict)
    issuer_keys: dict[str, IssuerPublicKey] = field(default_factory=dict)
    policies: dict[str, Policy] = field(default_factory=dict)


def register_domain(registry: Registry, spec: DomainSpec) -> Registry:
    if spec.domain_id in registry.domains:
        raise DuplicateDomain(f"domain {spec.domain_id!r} already registered")
    registry.domains[spec.domain_id] = spec
    return registry


def context_string(domain_id: str, resource_type: str, resource_name: str, action: str) -> str:
    """Request-binding string `domain|rtype|rname|action`, fields
    percent-escaped so `|` stays unambiguous."""
    return "|".join(quote(f, safe="") for f in (domain_id, resource_type, resource_name, action))


def _trusted_key(registry: Registry, spec: DomainSpec, issuer_id: str) -> IssuerPublicKey:
    if issuer_id not in spec.trusted_issuers:
        raise UntrustedIssuer(f"domain {spec.domain_id!r} does not trust issuer {issuer_id!r}")
    pk = registry.issuer_keys.get(issuer_id)
    if pk is None:
        raise UnknownIssuerKey(f"no key for issuer {issuer_id!r}")
    return pk


def access(
    registry: Registry,
    domain_id: str,
    req: AccessRequest,
    presentations: list[Presentation],
    nonce: bytes,
) -> AccessOutcome:
    """Authenticate-then-authorize for one request.

    Presentations must be bound to the served nonce and to this request's
    context string. Claims from every successfully verified presentation
    pool into one attribute set; a single verification failure forces a
    PresentationRejected Deny even if the surviving claims would satisfy a
    policy. The policies are those of `registry.policies` whose domain is
    `domain_id`, tried in mapping order; a domain with none of its own
    denies with NoPolicyForDomain.
    """
    spec = registry.domains.get(domain_id)
    if spec is None:
        raise UnknownDomain(f"no domain {domain_id!r}")
    if req.domain_id != domain_id:
        raise ValueError("request addressed to a different domain")

    ctx = context_string(domain_id, req.resource_type, req.resource_name, req.action)
    verified: set[Claim] = set()
    errors: list[tuple[int, str]] = []
    for idx, pres in enumerate(presentations):
        try:
            verified |= verify_presentation(_trusted_key(registry, spec, pres.issuer_id), pres, nonce, ctx)
        except (AbcError, GateError) as exc:
            errors.append((idx, exc.code))

    decision = evaluate(registry.policies, {c.attribute for c in verified}, req)
    if errors and decision.outcome == "Permit":
        # Authentication failed somewhere; authorization cannot stand.
        decision = Decision("Deny", None, (PRESENTATION_REJECTED,))
    return AccessOutcome(
        decision=decision, verified=frozenset(verified), presentation_errors=tuple(errors)
    )


# ---------------------------------------------------------------------------
# Registry persistence
# ---------------------------------------------------------------------------

REGISTRY_VERSION = 1


def key_digest(pk: IssuerPublicKey) -> str:
    return pk.digest().hex()


domain_to_json, domain_from_json = message(DomainSpec)


def registry_to_json(registry: Registry) -> dict:
    return {
        "version": REGISTRY_VERSION,
        "domains": [domain_to_json(spec) for _, spec in sorted(registry.domains.items())],
        "issuer_key_digests": {
            issuer_id: key_digest(pk)
            for issuer_id, pk in sorted(registry.issuer_keys.items())
        },
    }


def registry_from_json(doc: dict, keys: Iterable[IssuerPublicKey]) -> Registry:
    """Rebuild the domain table and attach each trusted key in `keys`, which
    must match the digest the document lists for its issuer. Policies are
    attached separately."""
    if need(doc, "version", int) != REGISTRY_VERSION:
        raise FormatError("unsupported registry version")
    registry = Registry()
    for d in need(doc, "domains", list):
        register_domain(registry, domain_from_json(d))
    digests = need(doc, "issuer_key_digests", dict)
    if not all(isinstance(d, str) and re.fullmatch("[0-9a-f]{64}", d) for d in digests.values()):
        raise FormatError("an issuer key digest is not 64 lowercase hex digits")
    for pk in keys:
        if digests.get(pk.issuer_id) != key_digest(pk):
            raise KeyDigestMismatch(f"registry does not list this key for issuer {pk.issuer_id!r}")
        registry.issuer_keys[pk.issuer_id] = pk
    return registry


# ---------------------------------------------------------------------------
# Reference fixture
# ---------------------------------------------------------------------------

ATTRIBUTE_CODES = {
    "a1": "student",
    "a2": "over_18",
    "a3": "teacher",
    "a4": "staff",
    "a5": "medical_staff",
    "a6": "school_member",
    "a7": "library_subscriber",
}

CREDENTIAL_ATTRS = {
    "c1": ("a5",),
    "c2": ("a6", "a7"),
    "c3": ("a3",),
    "c4": ("a4",),
    "c5": ("a6",),
}

DOMAIN_ATTRS = {
    "medical_files": ("a5", "a6"),
    "students_marks": ("a3",),
    "library": ("a6", "a7"),
    "staff_bus": ("a4", "a6"),
}

# Credential sets designated as opening each domain. For library the set
# {c2, c5} is not minimal (c2 alone covers {a6, a7}); the greedy selector
# returns [c2] and tests assert both facts.
REFERENCE_CREDENTIAL_SETS = {
    "medical_files": ("c1", "c5"),
    "students_marks": ("c3",),
    "library": ("c2", "c5"),
    "staff_bus": ("c4", "c5"),
}

WORKED_POLICY_TEXT = (
    "permit subjects with student, school_member, library_subscriber "
    "may read on resources of type audio "
    "when time between 08:00 and 18:00 and day in [mon,tue,wed,thu,fri] "
    "in domain library"
)

FIXTURE_POLICY_TEXTS = {
    "medical_files_write": (
        "permit subjects with medical_staff, school_member "
        "may write on resources of type patient_file in domain medical_files"
    ),
    "students_marks_read": (
        "permit subjects with teacher "
        "may read on resources of type marks in domain students_marks"
    ),
    "library_audio_read": WORKED_POLICY_TEXT,
    "staff_bus_board": (
        "permit subjects with staff, school_member "
        "may board on resources of type bus in domain staff_bus"
    ),
}

_SINGLE_ISSUER = "campus_office"  # one-claim credentials
_DUAL_ISSUER = "registry_office"  # two-claim credentials (c2)
_ISSUER_OF = {cid: _DUAL_ISSUER if len(codes) == 2 else _SINGLE_ISSUER for cid, codes in CREDENTIAL_ATTRS.items()}


@dataclass
class ReferenceFixture:
    registry: Registry
    issuer_keys: dict[str, tuple[IssuerPublicKey, IssuerSecretKey]]
    holder_secret: HolderSecret
    wallet: Wallet
    attributes: dict[str, Attribute]  # a1..a7 -> Attribute

    def required_names(self, domain_id: str) -> frozenset[str]:
        return self.registry.domains[domain_id].required_attrs

    def public_key(self, issuer_id: str) -> IssuerPublicKey:
        return self.issuer_keys[issuer_id][0]


def reference_fixture(seed: int = 20260101, l_n: int = 512) -> ReferenceFixture:
    """Build the full reference scenario, deterministically from `seed`."""
    rng = random.Random(seed)
    attributes = {code: Attribute(name, "true") for code, name in ATTRIBUTE_CODES.items()}

    issuer_keys = {
        _SINGLE_ISSUER: setup_issuer(1, l_n, rng, _SINGLE_ISSUER),
        _DUAL_ISSUER: setup_issuer(2, l_n, rng, _DUAL_ISSUER),
    }

    hs = holder_keygen(rng)
    wallet = Wallet(holder_secret=hs)
    for cid, codes in sorted(CREDENTIAL_ATTRS.items()):
        issuer_id = _ISSUER_OF[cid]
        pk, sk = issuer_keys[issuer_id]
        claims = tuple(
            Claim(attribute=attributes[code], issuer_id=issuer_id, schema_id="fixture_v1")
            for code in codes
        )
        metadata = CredentialMetadata(
            issuer_id=issuer_id,
            schema_id="fixture_v1",
            issued_at=date(2026, 1, 1),
            credential_id=cid,
        )
        nonce = rng.getrandbits(128).to_bytes(16, "big")
        req, state = begin_issuance(pk, hs, nonce, rng)
        pre = issue(sk, pk, req, claims, metadata, rng)
        wallet.add_credential(complete_credential(pre, state, hs))

    registry = Registry(
        issuer_keys={issuer_id: pk for issuer_id, (pk, _) in issuer_keys.items()},
        policies={pid: parse_policy(text) for pid, text in FIXTURE_POLICY_TEXTS.items()},
    )
    for domain_id, codes in DOMAIN_ATTRS.items():
        register_domain(
            registry,
            DomainSpec(
                domain_id=domain_id,
                required_attrs=frozenset(ATTRIBUTE_CODES[c] for c in codes),
                trusted_issuers=frozenset(_ISSUER_OF[cid] for cid in REFERENCE_CREDENTIAL_SETS[domain_id]),
            ),
        )
    return ReferenceFixture(
        registry=registry,
        issuer_keys=issuer_keys,
        holder_secret=hs,
        wallet=wallet,
        attributes=attributes,
    )


__all__ = [
    "AccessOutcome",
    "DomainSpec",
    "DuplicateDomain",
    "GateError",
    "KeyDigestMismatch",
    "ReferenceFixture",
    "Registry",
    "UnknownDomain",
    "UnknownIssuerKey",
    "UntrustedIssuer",
    "access",
    "context_string",
    "key_digest",
    "reference_fixture",
    "register_domain",
    "registry_from_json",
    "registry_to_json",
]
