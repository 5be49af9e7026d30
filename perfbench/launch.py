"""Run one ``abcid`` CLI command with the benchmark's tracer installed.

Usage: python3 launch.py REPORT_JSON SPANS_JSONL REQUEST_ID ABCID_ARGS...

Times the import of ``abcid.cli``, installs the same wrappers as the
in-process workloads, calls ``abcid.cli.main`` inside a ``cli.<group>_<cmd>``
span, appends the spans to SPANS_JSONL and writes the span totals to
REPORT_JSON. Exits with the command's own exit code. Needs the checkout's
src/ on PYTHONPATH.
"""

from time import perf_counter

started = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> int:
    report, spans, rid, *argv = sys.argv[1:]
    t0 = perf_counter()
    import abcid.cli

    import_s = perf_counter() - t0
    tracer = Tracer()
    tracer.rid = rid
    tracer.install()
    sys.argv = ["abcid", *argv]
    code = 0
    try:
        with tracer.span(f"cli.{argv[0]}_{argv[1]}"):
            abcid.cli.main()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
        tracer.write_spans(spans)
        with open(report, "w", encoding="utf-8") as fh:
            json.dump(
                {"totals": tracer.totals(), "import_s": import_s, "inproc_s": perf_counter() - started}, fh
            )
    return code


if __name__ == "__main__":
    sys.exit(main())
