"""The benchmark's three workloads, each driven by one closed-loop client.

A workload builds its state in `setup` (key generation, provisioning and one
warm-up operation, all timed as set-up) and then performs one operation per
`run_op` call. Inputs (nonces, request kinds and times, claim values, the
randomness of proofs) come from the workload seed. Issuer keys come from
fixed seeds instead: safe-prime search time varies several-fold between
seeds, and set-up time should measure the code, not the luck of the draw.
Operations are timed with `clock.cpu_clock`.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from time import perf_counter

from abcid import anoncred, gate, model, wire
from abcid.model import Attribute, Claim
from abcid.policy import AccessRequest

import gate_cases
from clock import SpeedReference, cpu_clock
from tracer import SETUP

KEY_SEED = 20260101  # the reference fixture's own default seed
CLI_SEED = 20260101
BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class OpResult:
    """CPU timings (seconds) and checks of one operation."""

    op_s: float = 0.0
    holder_s: float = 0.0
    call_s: list[float] = field(default_factory=list)
    attempted: int = 1
    problems: list[str] = field(default_factory=list)


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _nonce(rng: random.Random) -> bytes:
    return rng.getrandbits(128).to_bytes(16, "big")


MONDAY = date(2026, 1, 5)


def _draw_at(rng: random.Random, kind: str) -> datetime:
    if kind == "any":
        day = date(2026, 1, 1) + timedelta(days=rng.randrange(365))
        hour = rng.randrange(24)
    else:  # a weekday, inside or outside the library's 08:00-18:00 window
        day = MONDAY + timedelta(days=7 * rng.randrange(52) + rng.randrange(5))
        hour = rng.randrange(8, 18) if kind == "inside" else rng.choice((*range(8), *range(18, 24)))
    return datetime(day.year, day.month, day.day, hour, rng.randrange(60), tzinfo=timezone.utc)


class GateWorkload:
    """One gate request per operation on the 1024-bit reference fixture."""

    name = "gate_1024"
    in_process = True
    block = len(gate_cases.CASES)  # one shuffled rotation over the request kinds

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = random.Random(seed)
        self.order: list[gate_cases.GateCase] = []
        self.stale: list[str] = []

    def setup(self, tracer) -> OpResult:
        self.fx = gate.reference_fixture(seed=KEY_SEED, l_n=1024)
        self.summaries = self.fx.wallet.summaries()
        return self._serve(gate_cases.BY_NAME[gate_cases.REPLAY_SOURCE], tracer)

    def run_op(self, i: int, tracer) -> OpResult:
        if i % self.block == 0:
            self.order = list(gate_cases.CASES)
            self.rng.shuffle(self.order)
        return self._serve(self.order[i % self.block], tracer)

    def _present(self, case: gate_cases.GateCase, nonce: bytes, ctx: str) -> tuple[list[str], list[str]]:
        if case.select_for is None:
            return list(self.stale), []
        fx = self.fx
        picked = model.select_credentials(fx.required_names(case.select_for), self.summaries)
        problems = [] if tuple(picked) == case.selected else [f"selected {picked}, expected {list(case.selected)}"]
        docs = []
        for cid in (*picked, *case.extra):
            cred = fx.wallet.find(cid)
            shown = {
                i for i, c in enumerate(cred.claims, start=1)
                if case.disclose is None or c.attribute.name in case.disclose
            }
            pres = anoncred.present(
                fx.public_key(cred.metadata.issuer_id), cred, fx.holder_secret, shown, nonce, ctx, self.rng
            )
            docs.append(wire.dumps(wire.presentation_to_json(pres)))
        return docs, problems

    def _serve(self, case: gate_cases.GateCase, tracer) -> OpResult:
        rng = self.rng
        nonce = _nonce(rng)
        rname = f"record_{rng.randrange(10**6)}"
        req = AccessRequest(case.action, case.rtype, rname, case.domain, _draw_at(rng, case.at))
        ctx = gate.context_string(case.domain, case.rtype, rname, case.action)

        t0 = cpu_clock()
        with _span(tracer, "bench.present"):
            docs, problems = self._present(case, nonce, ctx)
        t1 = cpu_clock()
        with _span(tracer, "bench.access"):
            presentations = [wire.presentation_from_json(json.loads(d)) for d in docs]
            outcome = gate.access(self.fx.registry, case.domain, req, presentations, nonce)
        t2 = cpu_clock()

        d = outcome.decision
        got = (d.outcome, d.matched_policy, d.reasons, outcome.presentation_errors,
               frozenset(c.attribute.name for c in outcome.verified))
        want = (case.outcome, case.matched_policy, case.reasons, case.errors, case.verified)
        if got != want:
            problems.append(f"{case.name}: got {got}, expected {want}")
        if case.name == gate_cases.REPLAY_SOURCE:
            self.stale = docs
        return OpResult(op_s=t2 - t0, holder_s=t1 - t0, call_s=[t2 - t1], problems=problems)


class IssueWorkload:
    """One blinded issuance round per operation on a 3-claim 1024-bit key."""

    name = "issue_1024"
    in_process = True
    block = 1
    claim_names = ("role", "department", "clearance")

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = random.Random(seed)

    def setup(self, tracer) -> OpResult:
        self.pk, self.sk = anoncred.setup_issuer(3, 1024, random.Random(KEY_SEED), "bench_issuer")
        self.hs = anoncred.holder_keygen(self.rng)
        return self.run_op(-1, tracer)

    def run_op(self, i: int, tracer) -> OpResult:
        rng = self.rng
        pk = self.pk
        claims = tuple(
            Claim(Attribute(n, f"v{rng.randrange(10**6)}"), pk.issuer_id, "bench_v1") for n in self.claim_names
        )
        md = anoncred.CredentialMetadata(
            pk.issuer_id, "bench_v1", date(2026, 1, 1) + timedelta(days=rng.randrange(365)), None, f"c{i}"
        )
        nonce = _nonce(rng)
        try:
            t0 = cpu_clock()
            req, state = anoncred.begin_issuance(pk, self.hs, nonce, rng)
            t1 = cpu_clock()
            pre = anoncred.issue(self.sk, pk, req, claims, md, rng)
            t2 = cpu_clock()
            cred = anoncred.complete_credential(pre, state, self.hs)
            t3 = cpu_clock()
        except anoncred.AbcError as exc:
            return OpResult(problems=[f"issuance {i} failed: {exc.code}: {exc}"])
        problems = [] if (cred.claims, cred.metadata) == (claims, md) else [f"credential {i} changed its claims"]
        return OpResult(op_s=t3 - t0, holder_s=(t1 - t0) + (t3 - t2), call_s=[t2 - t1], problems=problems)


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]
    holder: bool = False  # counted in the pass's holder time
    code: int = 0  # expected exit code
    text: str = ""  # must appear in stdout or stderr


class CliWorkload:
    """One pass of the scripts/e2e_demo.sh commands per operation, each a
    fresh ``python -m abcid`` process on the checkout's src/."""

    name = "cli_512"
    in_process = False
    block = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.env = {**os.environ, "PYTHONPATH": str(BENCH_DIR.parent / "src")}
        self.trace_totals: Counter = Counter()
        self.trace_file: Path | None = None
        self.reference: SpeedReference | None = None

    def _run(self, cmd: Command, cwd: Path, rid: str, tracer) -> tuple[float, list[str]]:
        if tracer is None:
            argv = [sys.executable, "-m", "abcid", *cmd.args]
        else:
            report = cwd / f"trace_{rid}.json"
            argv = [sys.executable, str(BENCH_DIR / "launch.py"), str(report), str(self.trace_file), rid, *cmd.args]
        if self.reference is not None:  # a pass lasts seconds: sample the speed between its commands
            self.reference.tick()
        t0, w0 = cpu_clock(), perf_counter()
        proc = subprocess.run(argv, cwd=cwd, env=self.env, capture_output=True, text=True, timeout=120)
        spent, wall = cpu_clock() - t0, perf_counter() - w0
        problems = []
        if proc.returncode != cmd.code or cmd.text not in proc.stdout + proc.stderr:
            problems.append(
                f"abcid {' '.join(cmd.args[:2])}: exit {proc.returncode} (want {cmd.code}), "
                f"output {(proc.stdout + proc.stderr).strip()[-200:]!r}"
            )
        if tracer is not None and report.exists():
            doc = json.loads(report.read_text(encoding="utf-8"))
            totals = dict(doc["totals"])
            phase = "setup" if rid == SETUP else "op"
            totals[f"{phase}.cli.commands"] = 1
            totals[f"{phase}.cli.import"] = doc["import_s"]
            totals[f"{phase}.cli.interpreter"] = wall - doc["inproc_s"]
            self.trace_totals.update(totals)
        return spent, problems

    def setup(self, tracer) -> OpResult:
        prov = Path(tempfile.mkdtemp(prefix="provision_", dir=self.workdir))
        problems = []
        for args in (
            ("issuer", "init", "--issuer-id", "clinic", "--attrs", "1", "--l-n", "512",
             "--key", "sk.json", "--issuer-pub", "pk.json", "--seed", str(CLI_SEED)),
            ("fixture", "emit", "--out-dir", "fixture"),
        ):
            problems += self._run(Command(args), prov, SETUP, tracer)[1]
        self.prov = prov
        return OpResult(attempted=0, problems=problems)

    def run_op(self, i: int, tracer) -> OpResult:
        rng = self.rng
        seed = ["--seed", str(rng.randrange(1, 2**31))]
        n_issue, n_show, n_wrong = (_nonce(rng).hex() for _ in range(3))
        rname = f"record_{rng.randrange(10**6)}"
        ctx = gate.context_string("medical_files", "patient_file", rname, "write")
        at = _draw_at(rng, "any").strftime("%Y-%m-%dT%H:%M:%SZ")
        pk, fx = str(self.prov / "pk.json"), self.prov / "fixture"
        show = ["--nonce", n_show, "--context", ctx]

        work = Path(tempfile.mkdtemp(prefix=f"pass{i}_", dir=self.workdir))
        (work / "claims.json").write_text(
            json.dumps(
                {"schema_id": "staff_v1", "credential_id": "c_demo", "issued_at": "2026-02-02",
                 "claims": [{"name": "medical_staff", "value": "true"}]}
            ),
            encoding="utf-8",
        )
        wallet = ["--wallet", "wallet.json", "--issuer-pub", pk]
        fx_present = ["holder", "present", "--wallet", str(fx / "wallet.json"),
                      "--issuer-pub", str(fx / "campus_office.pub.json")]
        commands = (
            Command(("holder", "keygen", *wallet, *seed), holder=True),
            Command(("holder", "request", *wallet, "--nonce", n_issue, "--state", "state.json",
                     "--out", "request.json", *seed), holder=True),
            Command(("issuer", "issue", "--key", str(self.prov / "sk.json"), "--issuer-pub", pk,
                     "--in", "request.json", "--claims", "claims.json", "--nonce", n_issue,
                     "--out", "precred.json", *seed)),
            Command(("holder", "complete", *wallet, "--in", "precred.json", "--state", "state.json",
                     "--label", "clinic staff card"), holder=True, text="credential c_demo added"),
            Command(("holder", "list", "--wallet", "wallet.json"), holder=True, text="c_demo: [medical_staff=true]"),
            Command(("holder", "present", *wallet, "--credential", "c_demo", "--disclose", "medical_staff",
                     *show, "--out", "presentation.json", *seed), holder=True),
            Command(("verifier", "verify", "--in", "presentation.json", "--issuer-pub", pk, *show),
                    text="valid presentation from issuer clinic"),
            Command(("verifier", "verify", "--in", "presentation.json", "--issuer-pub", pk,
                     "--nonce", n_wrong, "--context", ctx), code=1, text="error[NonceMismatch]"),
            Command((*fx_present, "--credential", "c1", "--disclose", "medical_staff", *show,
                     "--out", "p1.json", *seed), holder=True),
            Command((*fx_present, "--credential", "c5", "--disclose", "school_member", *show,
                     "--out", "p5.json", *seed), holder=True),
            Command(("gate", "eval", "--registry", str(fx / "registry.json"), "--domain", "medical_files",
                     "--action", "write", "--rtype", "patient_file", "--rname", rname, "--at", at,
                     "--nonce", n_show, "--presentation", "p1.json", "--presentation", "p5.json",
                     "--issuer-pub", str(fx / "campus_office.pub.json"),
                     "--issuer-pub", str(fx / "registry_office.pub.json"),
                     *(x for pol in sorted((fx / "policies").glob("*.pol")) for x in ("--policy", str(pol)))),
                    text="Permit  reasons: Permitted"),
        )
        result = OpResult(attempted=len(commands))
        for k, cmd in enumerate(commands):
            spent, problems = self._run(cmd, work, f"{i}.{k}", tracer)
            result.call_s.append(spent)
            result.holder_s += spent if cmd.holder else 0.0
            result.problems += problems
        result.op_s = sum(result.call_s)
        shutil.rmtree(work)
        return result


WORKLOADS = {w.name: w for w in (GateWorkload, IssueWorkload, CliWorkload)}
