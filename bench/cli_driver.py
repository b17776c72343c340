"""Run `qtel.cli.main` once under the benchmark's span wrappers.

Usage: PYTHONPATH=src python bench/cli_driver.py SPAN_FILE MEMORY -- [qtel arguments]

Behaves like `python -m qtel.cli [qtel arguments]` (same stdout, stderr and
exit code, uncaught exceptions included) and also writes the spans of the
call, and the time of the cold `import qtel.cli`, to SPAN_FILE.  MEMORY is
1 to record tracemalloc peaks (slow) and 0 to record times only.
"""

import sys
import time

start = time.perf_counter()
import qtel.cli  # noqa: E402

import_ms = 1e3 * (time.perf_counter() - start)

from spans import Tracer  # noqa: E402


def main() -> int:
    span_file, memory, separator, *argv = sys.argv[1:]
    if separator != "--" or memory not in ("0", "1"):
        raise SystemExit("usage: cli_driver.py SPAN_FILE MEMORY -- [qtel arguments]")
    tracer = Tracer(memory=memory == "1")
    tracer.job = "cli"
    tracer.install()
    try:
        return qtel.cli.main(argv)
    finally:
        tracer.remove()
        tracer.dump(span_file, {"import_ms": import_ms})


if __name__ == "__main__":
    sys.exit(main())
