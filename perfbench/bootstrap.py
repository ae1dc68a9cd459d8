"""Run one minflow command with the per-layer spans installed.

Usage: python perfbench/bootstrap.py TRACE_FILE ARGS...

Behaves like ``python -m minflow.cli ARGS...`` (same stdout, same exit
status) and writes the process's spans and totals to TRACE_FILE, with
the time the ``import minflow.cli`` took.
"""

import sys
import time


def main():
    trace_file, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import minflow.cli
    import_s = time.perf_counter() - t0

    from spans import Tracer
    tracer = Tracer()
    tracer.phase = "stream"
    tracer.install()
    try:
        status = minflow.cli.main(argv)
    finally:
        tracer.write(trace_file, {"argv": argv, "import_s": import_s})
    sys.exit(status)


if __name__ == "__main__":
    main()
