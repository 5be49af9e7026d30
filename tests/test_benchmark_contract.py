"""The benchmark's traced runs wrap abcid functions by name; every name it
lists must still exist, or a traced run fails before its first operation."""

import importlib
import importlib.util
import random
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracer().TARGETS


@pytest.mark.parametrize("span, module, attr", [t[:3] for t in TARGETS], ids=[t[0] for t in TARGETS])
def test_tracer_target_resolves(span, module, attr):
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        owner = getattr(owner, cls_name)
        assert meth in vars(owner), f"{module}.{attr} is not defined on the class itself"
        attr = meth
    assert callable(getattr(owner, attr)), f"{module}.{attr}"


def test_cli_workload_lines_parse(monkeypatch, tmp_path):
    """Every command line the CLI workload runs parses and reaches the
    command it names; nothing is run."""
    from abcid.cli import build_parser

    monkeypatch.syspath_prepend(str(TRACER_PATH.parent))
    workloads = importlib.import_module("workloads")
    workload = workloads.CliWorkload(7, tmp_path)
    lines = []

    def record(cmd, cwd, rid, tracer):
        lines.append(cmd.args)
        return 0.0, []

    monkeypatch.setattr(workload, "_run", record)
    workload.setup(None)
    workload.run_op(0, None)
    assert len(lines) == 13
    for args in lines:
        ns = build_parser().parse_args(args)
        assert ns.fn.__name__ == f"cmd_{ns.group}_{ns.cmd}", args


@pytest.mark.parametrize("name", ["GateWorkload", "IssueWorkload"])
def test_in_process_workload_runs_clean(monkeypatch, tmp_path, name):
    """Set-up and one block of operations of each in-process workload, on
    512-bit keys, report no problem: every gate case gets its expected
    decision and every issued credential keeps its claims."""
    from abcid import anoncred, gate

    monkeypatch.syspath_prepend(str(TRACER_PATH.parent))
    workloads = importlib.import_module("workloads")
    fixture, setup_issuer = gate.reference_fixture, anoncred.setup_issuer
    monkeypatch.setattr(gate, "reference_fixture", lambda seed, l_n: fixture(seed=seed, l_n=512))
    monkeypatch.setattr(anoncred, "setup_issuer", lambda L, l_n, rng, issuer_id: setup_issuer(L, 512, rng, issuer_id))
    workload = getattr(workloads, name)(7, tmp_path)
    results = [workload.setup(None)] + [workload.run_op(i, None) for i in range(workload.block)]
    assert [r.problems for r in results] == [[]] * len(results)


def test_traced_issue_records_its_prime_draw(issuer512):
    """`issue` imports the prime sampler when it runs, so the tracer's
    wrapper on `abcid.primes` still catches every draw of e."""
    from abcid import anoncred

    from conftest import make_claims, metadata

    tracer_module = _load_tracer()
    pk, sk = issuer512
    rng = random.Random(31)
    hs = anoncred.holder_keygen(rng)
    nonce = rng.getrandbits(128).to_bytes(16, "big")
    req, _ = anoncred.begin_issuance(pk, hs, nonce, rng)
    tracer = tracer_module.Tracer()
    tracer.rid = 0
    tracer.install()
    try:
        anoncred.issue(sk, pk, req, make_claims(("member", "over_18", "reader"), "lab"), metadata("lab", "traced"), rng)
    finally:
        tracer.uninstall()
    names = {idx: span[0] for idx, span in enumerate(tracer.spans)}
    draws = [span for span in tracer.spans if span[0] == "primes.random_prime_in_interval"]
    assert len(draws) == 1 and names[draws[0][3]] == "anoncred.issue"
    assert tracer_module.layer_metrics(tracer.totals(), 1)["primes.is_probable_prime.calls_per_prime"] > 0
