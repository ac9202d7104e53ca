"""Traced CLI process: times its own imports, then calls coreplie.cli.main.

    PERFBENCH_TRACE_OUT=out.json python -X importtime perfbench/cli_child.py <cli args>

with src on PYTHONPATH. It prints exactly what `python -m coreplie.cli` would
print and exits with the same code. Its own timings and the layer spans of
the call go to the JSON file named by PERFBENCH_TRACE_OUT. The import-time
lines on stderr before IMPORTS_DONE belong to the import of coreplie.cli;
the parent splits them into numpy, scipy and coreplie's own share.
"""
import time

T_START = time.perf_counter()

import sys  # noqa: E402  (builtin, already loaded)

IMPORTS_DONE = "perfbench: imports done"


def main() -> int:
    t0 = time.perf_counter()
    import coreplie.cli

    import_s = time.perf_counter() - t0
    sys.stderr.write(IMPORTS_DONE + "\n")
    sys.stderr.flush()

    import json
    import os

    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    t1 = time.perf_counter()
    try:
        code = coreplie.cli.main(sys.argv[1:])
    finally:
        main_s = time.perf_counter() - t1
        tracer.uninstall()
        sys.stdout.flush()
    with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
        json.dump(
            {
                "start": T_START,
                "import_s": import_s,
                "main_s": main_s,
                "counts": dict(tracer.counts),
                "spans": tracer.spans,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
