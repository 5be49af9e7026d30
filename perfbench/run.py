#!/usr/bin/env python3
"""abcid benchmark: one workload per invocation, result as JSON on the last line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload gate_1024 --seed 1 --seconds 30 --trace 0

Workloads (see BASELINE.md for why each exists):

- gate_1024: one domain-gate request per operation on the 1024-bit
  reference fixture; the request kinds of gate_cases.py rotate.
- issue_1024: one blinded issuance round per operation on a 3-claim
  1024-bit issuer key.
- cli_512: one pass of the scripts/e2e_demo.sh commands per operation, each
  command a fresh ``python -m abcid`` process at the 512-bit profile.

``--trace 0`` measures the end-to-end metrics with nothing patched. Every
time in them is CPU time (``clock.cpu_clock``) scaled to a nominal machine
speed by a ``clock.SpeedReference`` sampled through the run and around each
set-up; the note line above the JSON gives the unscaled CPU and wall times
and the factor.
Set-up (keys, provisioning and one warm-up operation) runs SETUP_REPEATS
times and ``setup_s`` is the median. ``--trace 1`` sets up once, then
alternates traced and untraced blocks of operations: the traced blocks give
the per-layer metrics, and the time difference between the two kinds of
block gives ``trace.overhead``. Spans are written to
``.bench_work/traces/<workload>-seed<seed>.jsonl``.

Every operation's output is checked; the JSON reports how many operations
were attempted and how many failed a check.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

from clock import REF_S, SpeedReference, cpu_clock
from tracer import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
SPEC = ROOT / "BENCHMARK.json"  # names and units of the metrics to print

class Tally:
    """Attempted and failed operations, plus the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.examples: list[str] = []

    def add(self, result, counted: bool = True) -> None:
        if counted:
            self.attempted += result.attempted
            self.failed += min(len(result.problems), result.attempted)
        elif result.problems:  # a failed set-up or warm-up still fails the run
            self.attempted += 1
            self.failed += 1
        self.examples += result.problems[: 5 - len(self.examples)]


def _p(values: list[float], q: int) -> float:
    """q-th percentile (1..99); statistics' exclusive method."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def measure(wl_cls, seed: int, seconds: float, workdir: Path, tally: Tally) -> tuple[dict, str]:
    ref = SpeedReference()
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        before = ref.sample()
        wl = wl_cls(seed, workdir)
        t0 = cpu_clock()
        warm = wl.setup(None)
        raw_setups.append(cpu_clock() - t0)
        after = ref.sample()
        setups.append(raw_setups[-1] * REF_S / ((before + after) / 2))
        tally.add(warm, counted=False)

    wl.reference = ref
    ops, holders, calls = [], [], []
    start, spent, ref_spent = perf_counter(), cpu_clock(), ref.spent
    deadline = start + seconds
    i = 0
    while i == 0 or perf_counter() < deadline:
        ref.tick()
        r = wl.run_op(i, None)
        i += 1
        tally.add(r)
        if not r.problems:
            ops.append(r.op_s)
            holders.append(r.holder_s)
            calls.extend(r.call_s)
    elapsed = perf_counter() - start
    spent = cpu_clock() - spent - (ref.spent - ref_spent)

    k = ref.factor()
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "call_ms_p50": k * 1e3 * _p(calls, 50),
        "call_ms_p90": k * 1e3 * _p(calls, 90),
        "holder_ms_p50": k * 1e3 * _p(holders, 50),
        "op_ms_p50": k * 1e3 * _p(ops, 50),
        "ops_per_s": i / (k * spent),
    }
    note = (
        f"{wl.name} seed {seed}: {i} operations in {elapsed:.1f} s wall ({i / elapsed:.3g}/s), "
        f"{spent:.1f} s CPU, {len(calls)} timed calls "
        f"(p90 has {len(calls) - int(0.9 * len(calls))} beyond it), set-ups "
        + ", ".join(f"{s:.2f}" for s in raw_setups)
        + f" s CPU; speed factor {k:.4f} from {len(ref.samples)} reference samples"
    )
    return metrics, note


def trace(wl_cls, seed: int, seconds: float, workdir: Path, tally: Tally, spans_path: Path) -> tuple[dict, str]:
    tracer = Tracer()
    wl = wl_cls(seed, workdir)
    wl.trace_file = spans_path
    if wl.in_process:
        tracer.install()
    tally.add(wl.setup(tracer), counted=False)
    if wl.in_process:
        tracer.uninstall()

    busy = {True: 0.0, False: 0.0}
    done = {True: 0, False: 0}
    start = perf_counter()
    deadline = start + seconds
    i = b = 0
    # Whole traced/untraced pairs of blocks, so both see the same request mix.
    while b % 2 or b == 0 or perf_counter() < deadline:
        traced = b % 2 == 0
        if traced and wl.in_process:
            tracer.install()
        t0 = cpu_clock()
        for _ in range(wl.block):
            tracer.rid = i
            r = wl.run_op(i, tracer if traced else None)
            tally.add(r)
            i += 1
        busy[traced] += cpu_clock() - t0
        done[traced] += wl.block
        if traced and wl.in_process:
            tracer.uninstall()
        b += 1

    if wl.in_process:
        tracer.write_spans(spans_path)
    totals = Counter(tracer.totals())
    totals.update(getattr(wl, "trace_totals", {}))
    metrics = layer_metrics(totals, done[True])
    metrics["trace.op_ms"] = 1e3 * busy[True] / done[True]
    metrics["trace.overhead"] = (busy[True] / done[True]) / (busy[False] / done[False]) - 1
    note = (
        f"{wl.name} seed {seed}: traced {done[True]} and untraced {done[False]} operations; "
        f"spans in {spans_path.relative_to(ROOT)}"
    )
    return metrics, note


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "abcid" / "__init__.py").is_file():
        print(f"error: no abcid sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import abcid

    if Path(abcid.__file__).resolve().parent != (src / "abcid").resolve():
        print(f"error: imported abcid from {abcid.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    wl_cls = WORKLOADS.get(args.workload)
    if wl_cls is None:
        print(f"error: unknown workload {args.workload!r}; pick one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    work_root = ROOT / ".bench_work"
    (work_root / "traces").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}_", dir=work_root))
    tally = Tally()
    try:
        if args.trace:
            spans_path = work_root / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
            spans_path.unlink(missing_ok=True)
            values, note = trace(wl_cls, args.seed, args.seconds, workdir, tally, spans_path)
        else:
            values, note = measure(wl_cls, args.seed, args.seconds, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    listed = json.loads(SPEC.read_text(encoding="utf-8"))["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    print(note)
    print(f"error_rate {tally.failed / max(tally.attempted, 1):.4f} ({tally.failed} of {tally.attempted})")
    for problem in tally.examples:
        print(f"check failed: {problem}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
