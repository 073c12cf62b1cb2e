"""Run one ionseries CLI command with spans recorded around the library layers.

Usage: python launch.py SPANS_JSON CLI_ARG...

Installs the benchmark's span wrappers, calls ``ionseries.cli.main`` with the
remaining arguments, writes the spans to SPANS_JSON and exits with the
command's exit code.
"""

import json
import sys

import spans


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    import ionseries.cli

    try:
        return ionseries.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
