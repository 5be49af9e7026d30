"""In-memory span tracer for the benchmark's traced runs.

`Tracer.install` wraps public functions of the abcid modules at every
name a caller looks them up by (``abcid.anoncred.random_prime_in_interval``,
``abcid.gate.verify_presentation``, ...), so nothing under ``src/`` changes.
Each call records one span: name, start, end, parent span, request id and
status (``ok`` or the exception's ``code``). Hooks that run after a span has
closed count workload properties from the call's arguments and result.

`Tracer.totals` folds spans and counters into plain sums that can be sent
between processes and added with `Counter.update`; `layer_metrics` turns summed totals into the
per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

SETUP = "setup"  # request id of spans recorded while the workload is set up
FAILED = object()  # result passed to a hook when the wrapped call raised


def _key_use(tracer: "Tracer", pk) -> None:
    tracer.count("key_calls")
    if pk.n in tracer.seen_keys:
        tracer.count("key_reused")
    tracer.seen_keys.add(pk.n)


def _on_present(tracer, args, result) -> None:
    _key_use(tracer, args[0])
    if result is FAILED:
        return
    tracer.count("present.calls")
    tracer.count("present.disclosed", len(result.disclosed))
    tracer.count("present.hidden", len(result.proof.s_m))


def _on_verify(tracer, args, result) -> None:
    _key_use(tracer, args[0])


def _on_access(tracer, args, result) -> None:
    n = len(args[3])
    tracer.count("access.calls")
    tracer.count(f"access.presentations.{n}")


def _on_presentation_to_json(tracer, args, result) -> None:
    from abcid import wire

    if result is FAILED:
        return
    tracer.count("presentation.count")
    tracer.count("presentation.bytes", len(wire.dumps(result).encode("utf-8")))


def _on_wallet_file(path_index: int):
    def hook(tracer, args, result) -> None:
        if result is FAILED:
            return
        tracer.count("wallet.files")
        tracer.count("wallet.bytes", os.path.getsize(args[path_index]))

    return hook


# (span name, module, attribute or "Class.method", hook run after the call
# closes, with FAILED as the result if it raised)
TARGETS = (
    ("primes.safe_prime", "abcid.primes", "safe_prime", None),
    ("primes.random_prime_in_interval", "abcid.primes", "random_prime_in_interval", None),
    ("primes.is_probable_prime", "abcid.primes", "is_probable_prime", None),
    ("hashing.transcript_hash", "abcid.hashing", "transcript_hash", None),
    ("anoncred.IssuerPublicKey.digest", "abcid.anoncred", "IssuerPublicKey.digest", None),
    ("anoncred.setup_issuer", "abcid.anoncred", "setup_issuer", None),
    ("anoncred.begin_issuance", "abcid.anoncred", "begin_issuance", None),
    ("anoncred.verify_issuance_request", "abcid.anoncred", "verify_issuance_request", None),
    ("anoncred.issue", "abcid.anoncred", "issue", None),
    ("anoncred.complete_credential", "abcid.anoncred", "complete_credential", None),
    ("anoncred.present", "abcid.anoncred", "present", _on_present),
    ("anoncred.verify_presentation", "abcid.anoncred", "verify_presentation", _on_verify),
    ("gate.access", "abcid.gate", "access", _on_access),
    ("gate.reference_fixture", "abcid.gate", "reference_fixture", None),
    ("policy.evaluate", "abcid.policy", "evaluate", None),
    ("policy.parse_policy", "abcid.policy", "parse_policy", None),
    ("model.select_credentials", "abcid.model", "select_credentials", None),
    ("wire.presentation_to_json", "abcid.wire", "presentation_to_json", _on_presentation_to_json),
    ("wire.presentation_from_json", "abcid.wire", "presentation_from_json", None),
    ("wire.public_key_from_json", "abcid.wire", "public_key_from_json", None),
    ("wallet.wallet_load", "abcid.wallet", "wallet_load", _on_wallet_file(0)),
    ("wallet.wallet_save", "abcid.wallet", "wallet_save", _on_wallet_file(1)),
)

VERIFY = "anoncred.verify_presentation"
# verify_presentation either returns or raises one of these codes.
VERIFY_STATUSES = ("ok", "NonceMismatch", "ContextMismatch", "LengthCheckFailed", "ProofInvalid")

CLI_COMMANDS = (
    "holder_keygen",
    "holder_request",
    "issuer_issue",
    "holder_complete",
    "holder_list",
    "holder_present",
    "verifier_verify",
    "gate_eval",
)
CLI_SETUP_COMMANDS = ("issuer_init", "fixture_emit")


class Tracer:
    """Spans and counters of one process; install/uninstall toggle the
    wrappers so traced and untraced work can alternate in one run."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.rid: object = SETUP
        self.counters: Counter = Counter()
        self.seen_keys: set[int] = set()
        self._patches: list[tuple[object, str, object, object]] | None = None

    # -- recording ---------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        if self.rid != SETUP:
            self.counters[key] += n

    @contextmanager
    def span(self, name: str):
        idx = self._open()
        start = perf_counter()
        status = "ok"
        try:
            yield
        except BaseException as exc:
            status = getattr(exc, "code", type(exc).__name__)
            raise
        finally:
            self._close(idx, name, start, status)

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float, status) -> None:
        end = perf_counter()
        self.stack.pop()
        parent = self.stack[-1] if self.stack else -1
        self.spans[idx] = (name, start, end, parent, self.rid, str(status))

    def _wrap(self, name: str, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open()
            start = perf_counter()
            status = "ok"
            result = FAILED
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                status = getattr(exc, "code", type(exc).__name__)
                raise
            finally:
                tracer._close(idx, name, start, status)
                if hook is not None:
                    hook(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching ----------------------------------------------------------

    def _build_patches(self) -> list[tuple[object, str, object, object]]:
        for mod in ("abcid.cli", *{t[1] for t in TARGETS}):
            importlib.import_module(mod)
        modules = [m for n, m in sorted(sys.modules.items()) if n == "abcid" or n.startswith("abcid.")]
        patches = []
        for name, modname, attr, hook in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                patches.append((cls, meth, orig, self._wrap(name, orig, hook)))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig, hook)
            for mod in modules:
                for key, value in vars(mod).items():
                    if value is orig:
                        patches.append((mod, key, orig, wrapper))
        return patches

    def install(self) -> None:
        if self._patches is None:
            self._patches = self._build_patches()
        for obj, key, _orig, wrapper in self._patches:
            setattr(obj, key, wrapper)

    def uninstall(self) -> None:
        for obj, key, orig, _wrapper in self._patches or ():
            setattr(obj, key, orig)

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for name, start, end, parent, rid, status in filter(None, self.spans):
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent,
                         "rid": rid, "status": status, "pid": os.getpid()}
                    )
                    + "\n"
                )

    def totals(self) -> dict[str, float]:
        """Sums over this process's spans (seconds) and counters; phase
        ``setup`` or ``op`` prefixes each key."""
        spans = self.spans
        child: Counter = Counter()
        for s in spans:
            if s is not None and s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out: Counter = Counter({f"op.{k}": v for k, v in self.counters.items()})
        for idx, s in enumerate(spans):
            if s is None:
                continue
            name, start, end, parent, rid, status = s
            phase = "setup" if rid == SETUP else "op"
            dur = end - start
            out[f"{phase}.incl.{name}"] += dur
            out[f"{phase}.self.{name}"] += dur - child[idx]
            out[f"{phase}.calls.{name}"] += 1
            if name == VERIFY:
                out[f"{phase}.verify.{status}.incl"] += dur
                out[f"{phase}.verify.{status}.calls"] += 1
            if name == "primes.is_probable_prime" and parent >= 0:
                if spans[parent][0] == "primes.random_prime_in_interval":
                    out[f"{phase}.prime_tests"] += 1
        return dict(out)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(totals: dict[str, float], n_ops: int) -> dict[str, float]:
    """Per-layer metrics from summed totals. `.ms` is inclusive time per
    operation, `.self_ms` self time per operation, `.calls` calls per
    operation; set-up layers are per set-up, of which a traced run has one."""
    t = Counter(totals)

    def per_op_ms(name: str, kind: str = "incl") -> float:
        return 1e3 * _ratio(t[f"op.{kind}.{name}"], n_ops)

    def per_setup_ms(name: str) -> float:
        return 1e3 * t[f"setup.incl.{name}"]

    m: dict[str, float] = {
        "primes.safe_prime.ms": per_setup_ms("primes.safe_prime"),
        "primes.random_prime_in_interval.ms": per_op_ms("primes.random_prime_in_interval"),
        "primes.is_probable_prime.calls_per_prime": _ratio(
            t["op.prime_tests"], t["op.calls.primes.random_prime_in_interval"]
        ),
        "hashing.transcript_hash.calls": _ratio(t["op.calls.hashing.transcript_hash"], n_ops),
        "hashing.transcript_hash.ms": per_op_ms("hashing.transcript_hash"),
        "anoncred.IssuerPublicKey.digest.calls": _ratio(
            t["op.calls.anoncred.IssuerPublicKey.digest"], n_ops
        ),
        "anoncred.IssuerPublicKey.digest.ms": per_op_ms("anoncred.IssuerPublicKey.digest"),
        "anoncred.present.ms": per_op_ms("anoncred.present"),
        "anoncred.present.self_ms": per_op_ms("anoncred.present", "self"),
        VERIFY + ".ms": per_op_ms(VERIFY),
        VERIFY + ".self_ms": per_op_ms(VERIFY, "self"),
    }
    for status in VERIFY_STATUSES:
        m[f"{VERIFY}.{status}.ms_per_call"] = 1e3 * _ratio(
            t[f"op.verify.{status}.incl"], t[f"op.verify.{status}.calls"]
        )
    m.update(
        {
            "anoncred.begin_issuance.ms": per_op_ms("anoncred.begin_issuance"),
            "anoncred.verify_issuance_request.ms": per_op_ms("anoncred.verify_issuance_request"),
            "anoncred.issue.ms": per_op_ms("anoncred.issue"),
            "anoncred.issue.self_ms": per_op_ms("anoncred.issue", "self"),
            "anoncred.complete_credential.ms": per_op_ms("anoncred.complete_credential"),
            "anoncred.setup_issuer.ms": per_setup_ms("anoncred.setup_issuer"),
            "anoncred.key_reuse_share": _ratio(t["op.key_reused"], t["op.key_calls"]),
            "anoncred.present.disclosed_per_presentation": _ratio(
                t["op.present.disclosed"], t["op.present.calls"]
            ),
            "anoncred.present.hidden_per_presentation": _ratio(
                t["op.present.hidden"], t["op.present.calls"]
            ),
            "gate.access.ms": per_op_ms("gate.access"),
            "gate.access.self_ms": per_op_ms("gate.access", "self"),
        }
    )
    for n in range(1, 5):
        m[f"gate.access.presentations.{n}.share"] = _ratio(
            t[f"op.access.presentations.{n}"], t["op.access.calls"]
        )
    m.update(
        {
            "gate.reference_fixture.ms": per_setup_ms("gate.reference_fixture"),
            "policy.evaluate.ms": per_op_ms("policy.evaluate"),
            "policy.parse_policy.ms": per_op_ms("policy.parse_policy"),
            "policy.parse_policy.calls": _ratio(t["op.calls.policy.parse_policy"], n_ops),
            "model.select_credentials.ms": per_op_ms("model.select_credentials"),
            "wire.presentation_to_json.ms": per_op_ms("wire.presentation_to_json"),
            "wire.presentation_from_json.ms": per_op_ms("wire.presentation_from_json"),
            "wire.presentation_bytes": _ratio(t["op.presentation.bytes"], t["op.presentation.count"]),
            "wire.public_key_from_json.ms": per_op_ms("wire.public_key_from_json"),
            "wallet.wallet_load.ms": per_op_ms("wallet.wallet_load"),
            "wallet.wallet_save.ms": per_op_ms("wallet.wallet_save"),
            "wallet.bytes": _ratio(t["op.wallet.bytes"], t["op.wallet.files"]),
            "cli.import.ms": 1e3 * _ratio(t["op.cli.import"], t["op.cli.commands"]),
            "cli.interpreter.ms": 1e3 * _ratio(t["op.cli.interpreter"], t["op.cli.commands"]),
        }
    )
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.ms"] = per_op_ms(f"cli.{cmd}")
    for cmd in CLI_SETUP_COMMANDS:
        m[f"cli.{cmd}.ms"] = per_setup_ms(f"cli.{cmd}")
    m["anoncred.verify_presentation.share_of_access"] = _ratio(
        t[f"op.incl.{VERIFY}"], t["op.incl.bench.access"]
    )
    m["primes.random_prime_in_interval.share_of_issue"] = _ratio(
        t["op.incl.primes.random_prime_in_interval"], t["op.incl.anoncred.issue"]
    )
    return m
