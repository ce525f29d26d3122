"""Run one qkdlink terminal with the benchmark's span wrappers installed.

    python3 perfbench/terminal.py SPANS_OUT alice|bob [qkdlink cli arguments...]

Installs the same wrappers as the in-process traced runs, calls
``qkdlink.cli.main`` with the remaining arguments, and writes the spans to
SPANS_OUT (one JSON object per line) when the terminal exits.  qkdlink is
imported from PYTHONPATH, which the benchmark sets to the checkout's
absolute ``src`` directory.
"""

import sys

import spans
from qkdlink import cli


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer(default_role=argv[0])
    spans.install(tracer)
    try:
        return cli.main(argv)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
