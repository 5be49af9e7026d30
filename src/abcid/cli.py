"""Command-line surface: file-based issuer / holder / verifier / gate flows.

Message exchange is offline by design: every handshake step reads and
writes JSON documents, so the whole protocol can be scripted and diffed.
Exit codes: 0 success (or Permit / valid proof), 1 Deny or invalid proof,
2 usage, parse, or file format errors. Errors go to stderr as one line
`error[<Code>]: <message>`; there is never a traceback.

`--seed` makes every command deterministic and exists for tests and
reproducible demos; real deployments must leave it unset so keys and
proofs draw from the OS entropy pool.
"""

from __future__ import annotations

import argparse
import random
import sys
from datetime import datetime
from pathlib import Path

# The parser and the error handler need only these; each command imports
# the rest, so an issuer, holder or verifier step never loads the policy
# language or the gate.
from . import anoncred, wire
from .anoncred import AbcError, CredentialMetadata, EncodingError, ParameterError
from .model import Claim, CodedError, Unsatisfiable, select_credentials
from .wire import FormatError


def build_rng(seed: int | None) -> anoncred.Rng:
    return random.Random(seed) if seed is not None else random.SystemRandom()


def _parse_at(text: str) -> datetime:
    try:
        return datetime.fromisoformat(text.upper().replace("Z", "+00:00"))
    except ValueError:
        raise FormatError(f"--at must be an RFC3339 UTC timestamp, got {text!r}") from None


def _load_public_key(path: str) -> anoncred.IssuerPublicKey:
    return wire.public_key_from_json(wire.load(path))


def _refuse_to_replace(path: str | Path) -> None:
    """A file holding a secret is never overwritten: whatever it protects would be lost."""
    if Path(path).exists():
        raise FileExistsError(f"{path} already exists; not replacing a secret key file")


# -- issuer ------------------------------------------------------------------

def cmd_issuer_init(args) -> int:
    with wire.locked(Path(args.key).parent):
        _refuse_to_replace(args.key)
        rng = build_rng(args.seed)
        pk, sk = anoncred.setup_issuer(args.attrs, args.l_n, rng, args.issuer_id)
        wire.save(wire.secret_key_to_json(sk), args.key)
        wire.save(wire.public_key_to_json(pk), args.issuer_pub)
    print(f"issuer {args.issuer_id}: wrote secret key {args.key} and public key {args.issuer_pub}")
    return 0


def _claims_from_file(path: str, issuer_id: str) -> tuple[tuple[Claim, ...], CredentialMetadata]:
    doc = {"schema_id": "", "claims": [], "issuer_id": issuer_id, **wire.load(path)}
    md = wire.metadata_from_json(doc)
    if not md.credential_id:
        raise FormatError("claims file needs a credential_id")
    defaults = {"issuer_id": issuer_id, "schema_id": md.schema_id}
    claims = wire.need(doc, "claims", list)
    return tuple(wire.claim_from_json({**defaults, **c} if isinstance(c, dict) else c) for c in claims), md


def cmd_issuer_issue(args) -> int:
    rng = build_rng(args.seed)
    sk = wire.secret_key_from_json(wire.load(args.key))
    pk = _load_public_key(args.issuer_pub)
    req = wire.request_from_json(wire.load(args.infile))
    if req.nonce != args.nonce:
        raise anoncred.NonceMismatch("request is bound to a different issuer nonce")
    claims, metadata = _claims_from_file(args.claims, pk.issuer_id)
    pre = anoncred.issue(sk, pk, req, claims, metadata, rng)
    wire.save(wire.pre_credential_to_json(pre), args.out)
    print(f"issued pre-credential {metadata.credential_id} -> {args.out}")
    return 0


# -- holder ------------------------------------------------------------------

def cmd_holder_keygen(args) -> int:
    from .wallet import Wallet, wallet_save

    with wire.locked(Path(args.wallet).parent):
        _refuse_to_replace(args.wallet)
        rng = build_rng(args.seed)
        pk = _load_public_key(args.issuer_pub)
        wallet = Wallet(holder_secret=anoncred.holder_keygen(rng, pk.params.l_m))
        wallet_save(wallet, args.wallet)
    print(f"new wallet with holder secret -> {args.wallet}")
    return 0


def cmd_holder_request(args) -> int:
    from .wallet import wallet_load

    rng = build_rng(args.seed)
    wallet = wallet_load(args.wallet)
    pk = _load_public_key(args.issuer_pub)
    req, state = anoncred.begin_issuance(pk, wallet.holder_secret, args.nonce, rng)
    wire.save(wire.request_to_json(req), args.out)
    wire.save(wire.holder_state_to_json(state), args.state)
    print(f"issuance request -> {args.out} (keep {args.state} until completion)")
    return 0


def cmd_holder_complete(args) -> int:
    from .wallet import wallet_load, wallet_save

    # Concurrent completions on one wallet each keep the other's credential.
    with wire.locked(Path(args.wallet).parent):
        wallet = wallet_load(args.wallet)
        pk = _load_public_key(args.issuer_pub)
        state = wire.holder_state_from_json(wire.load(args.state), pk)
        pre = wire.pre_credential_from_json(wire.load(args.infile))
        cred = anoncred.complete_credential(pre, state, wallet.holder_secret)
        wallet.add_credential(cred, label=args.label or "")
        wallet_save(wallet, args.wallet)
    print(f"credential {cred.metadata.credential_id} added to {args.wallet}")
    return 0


def cmd_holder_list(args) -> int:
    from .wallet import wallet_load

    wallet = wallet_load(args.wallet)
    if not wallet.credentials:
        print("wallet is empty")
        return 0
    for cred in wallet.credentials:
        names = ", ".join(f"{c.attribute.name}={c.attribute.value}" for c in cred.claims)
        label = wallet.labels.get(cred.metadata.credential_id, "")
        suffix = f"  # {label}" if label else ""
        print(
            f"{cred.metadata.credential_id}: [{names}] "
            f"issuer={cred.metadata.issuer_id} schema={cred.metadata.schema_id} "
            f"issued={cred.metadata.issued_at.isoformat()}{suffix}"
        )
    return 0


def cmd_holder_present(args) -> int:
    from .wallet import wallet_load

    rng = build_rng(args.seed)
    wallet = wallet_load(args.wallet)
    pk = _load_public_key(args.issuer_pub)
    try:
        cred = wallet.find(args.credential)
    except KeyError:
        raise FormatError(f"no credential {args.credential!r} in wallet") from None
    names = [n for n in (args.disclose or "").split(",") if n]
    indices: set[int] = set()
    for name in names:
        matches = [i for i, c in enumerate(cred.claims, start=1) if c.attribute.name == name]
        if not matches:
            raise FormatError(f"credential {args.credential!r} has no attribute {name!r}")
        indices.update(matches)
    pres = anoncred.present(
        pk, cred, wallet.holder_secret, indices, args.nonce, args.context, rng
    )
    wire.save(wire.presentation_to_json(pres), args.out)
    print(f"presentation disclosing {sorted(names)} -> {args.out}")
    return 0


# -- verifier ------------------------------------------------------------------

def cmd_verifier_verify(args) -> int:
    pk = _load_public_key(args.issuer_pub)
    pres = wire.presentation_from_json(wire.load(args.infile))
    claims = anoncred.verify_presentation(pk, pres, args.nonce, args.context)
    print(f"valid presentation from issuer {pk.issuer_id}")
    for c in sorted(claims, key=lambda c: c.attribute.name):
        print(f"  {c.attribute.name}={c.attribute.value} (certified by {c.issuer_id})")
    return 0


# -- policy ------------------------------------------------------------------

def cmd_policy_lint(args) -> int:
    from .policy import describe_policy, parse_policy

    print(describe_policy(parse_policy(wire.load_text(args.file))))
    return 0


# -- gate ----------------------------------------------------------------------

def cmd_gate_eval(args) -> int:
    from . import gate
    from .policy import AccessRequest, parse_policy

    keys = map(_load_public_key, args.issuer_pub or [])
    registry = gate.registry_from_json(wire.load(args.registry), keys)
    for path in map(Path, args.policy or []):
        if path.stem in registry.policies:
            raise FormatError(f"two --policy files share the id {path.stem!r}")
        registry.policies[path.stem] = parse_policy(wire.load_text(path))
    presentations = [wire.presentation_from_json(wire.load(p)) for p in args.presentation or []]
    req = AccessRequest(
        action=args.action,
        resource_type=args.rtype,
        resource_name=args.rname,
        domain_id=args.domain,
        at=_parse_at(args.at),
    )
    outcome = gate.access(registry, args.domain, req, presentations, args.nonce)
    decision = outcome.decision
    print(f"{decision.outcome}  reasons: {', '.join(decision.reasons) or '(none)'}")
    if decision.matched_policy:
        print(f"matched policy: {decision.matched_policy}")
    if outcome.verified:
        pooled = ", ".join(sorted({c.attribute.name for c in outcome.verified}))
        print(f"verified attributes: {pooled}")
    for idx, code in outcome.presentation_errors:
        print(f"presentation[{idx}] rejected: {code}", file=sys.stderr)
    return 0 if decision.outcome == "Permit" else 1


# -- fixture -------------------------------------------------------------------

def cmd_fixture_emit(args) -> int:
    from . import gate
    from .policy import parse_policy, serialize_policy
    from .wallet import wallet_save

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with wire.locked(out):
        for secret in (out / "wallet.json", *out.glob("*.key.json")):
            _refuse_to_replace(secret)
        fx = gate.reference_fixture() if args.seed is None else gate.reference_fixture(seed=args.seed)

        (out / "policies").mkdir(exist_ok=True)
        for pid, text in gate.FIXTURE_POLICY_TEXTS.items():
            wire.save_text(serialize_policy(parse_policy(text)) + "\n", out / "policies" / f"{pid}.pol")

        wire.save(gate.registry_to_json(fx.registry), out / "registry.json")
        for issuer_id, (pk, sk) in sorted(fx.issuer_keys.items()):
            wire.save(wire.public_key_to_json(pk), out / f"{issuer_id}.pub.json")
            wire.save(wire.secret_key_to_json(sk), out / f"{issuer_id}.key.json")
        wallet_save(fx.wallet, out / "wallet.json")
        wire.save(
            {
                "attributes": {code: {"name": a.name, "value": a.value} for code, a in sorted(fx.attributes.items())},
                "credentials": {cid: list(codes) for cid, codes in sorted(gate.CREDENTIAL_ATTRS.items())},
                "domains": {d: list(codes) for d, codes in sorted(gate.DOMAIN_ATTRS.items())},
            },
            out / "attributes.json",
        )

    print(f"fixture written to {out}")
    for domain_id in sorted(gate.DOMAIN_ATTRS):
        required = fx.required_names(domain_id)
        picked = select_credentials(required, fx.wallet.summaries())
        listed = ", ".join(gate.REFERENCE_CREDENTIAL_SETS[domain_id])
        print(f"  {domain_id}: requires {sorted(required)} -> select {picked} (reference set: {listed})")
    return 0


# -- wiring --------------------------------------------------------------------

def _shared(flag: str, parents: tuple = (), **kwargs) -> argparse.ArgumentParser:
    """A parent parser declaring one option that several commands take."""
    p = argparse.ArgumentParser(add_help=False, parents=parents)
    p.add_argument(flag, **kwargs)
    return p


def _command(group, name: str, fn, help: str, *parents) -> argparse.ArgumentParser:
    """A subcommand of `group` that runs `fn` and takes the options of `parents`."""
    p = group.add_parser(name, help=help, parents=parents)
    p.set_defaults(fn=fn)
    return p


def build_parser() -> argparse.ArgumentParser:
    seed = _shared("--seed", type=int)
    out = _shared("--out", required=True, help="output file")
    infile = _shared("--in", dest="infile", required=True, help="input document")
    key = _shared("--issuer-pub", required=True, help="issuer public key file")
    wallet = _shared("--wallet", required=True)
    nonce = _shared("--nonce", type=wire.nonce_from_hex, required=True, help="32 hex digits")
    show = _shared("--context", required=True, parents=(nonce,))

    parser = argparse.ArgumentParser(prog="abcid", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="group", required=True)

    def group(name: str, help: str):
        return sub.add_parser(name, help=help).add_subparsers(dest="cmd", required=True)

    issuer = group("issuer", "issuer-side operations")
    p = _command(issuer, "init", cmd_issuer_init, "generate an issuer key pair", seed)
    p.add_argument("--issuer-id", required=True)
    p.add_argument("--attrs", type=int, required=True, help="claims per credential")
    p.add_argument("--l-n", type=int, default=2048, choices=sorted(anoncred.PROFILES))
    p.add_argument("--key", required=True, help="secret key output file")
    p.add_argument("--issuer-pub", required=True, help="public key output file")

    p = _command(issuer, "issue", cmd_issuer_issue, "sign a blinded issuance request",
                 key, infile, nonce, seed, out)
    p.add_argument("--key", required=True)
    p.add_argument("--claims", required=True, help="claims + metadata JSON file")

    holder = group("holder", "wallet-side operations")
    _command(holder, "keygen", cmd_holder_keygen, "create a wallet with a fresh holder secret",
             wallet, key, seed)

    p = _command(holder, "request", cmd_holder_request, "start a blinded issuance",
                 wallet, key, nonce, seed, out)
    p.add_argument("--state", required=True, help="issuance state output file")

    p = _command(holder, "complete", cmd_holder_complete, "turn a pre-credential into a credential",
                 wallet, key, infile)
    p.add_argument("--state", required=True)
    p.add_argument("--label")

    _command(holder, "list", cmd_holder_list, "list wallet credentials", wallet)

    p = _command(holder, "present", cmd_holder_present, "create a selective-disclosure presentation",
                 wallet, key, show, seed, out)
    p.add_argument("--credential", required=True, help="credential id in the wallet")
    p.add_argument("--disclose", default="", help="comma-separated attribute names")

    verifier = group("verifier", "verifier-side operations")
    _command(verifier, "verify", cmd_verifier_verify, "check a presentation transcript", infile, key, show)

    policy = group("policy", "policy tooling")
    p = _command(policy, "lint", cmd_policy_lint, "parse a .pol file and show its parts")
    p.add_argument("file")

    gatep = group("gate", "domain gate")
    p = _command(gatep, "eval", cmd_gate_eval, "decide one access request", nonce)
    p.add_argument("--registry", required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--action", required=True)
    p.add_argument("--rtype", required=True)
    p.add_argument("--rname", default="")
    p.add_argument("--at", required=True, help="RFC3339 UTC timestamp")
    p.add_argument("--presentation", action="append", help="presentation file (repeatable)")
    p.add_argument("--issuer-pub", action="append", help="trusted issuer key file (repeatable)")
    p.add_argument("--policy", action="append", help=".pol file (repeatable; id = file stem)")

    fixture = group("fixture", "reference scenario")
    p = _command(fixture, "emit", cmd_fixture_emit, "write the reference fixture to a directory", seed)
    p.add_argument("--out-dir", required=True)

    return parser


def run(argv: list[str]) -> int:
    """Entry point used by tests; returns the process exit code."""
    try:
        # Inside the handler: an argument type such as the nonce parser
        # raises FormatError, which argparse passes through.
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:  # argparse already printed usage
        return int(exc.code or 0)
    except CodedError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        # A proof or wallet that does not establish what was asked exits 1;
        # bad parameters, encodings and documents exit 2.
        rejected = isinstance(exc, (AbcError, Unsatisfiable))
        return 1 if rejected and not isinstance(exc, (ParameterError, EncodingError)) else 2
    except OSError as exc:
        print(f"error[IoError]: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error[ValueError]: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
