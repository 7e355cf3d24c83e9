"""Run one rankedcoal CLI call in this process with layer spans installed.

Usage: python3 perfbench/traced_cli.py SPANS_JSON ARG...

The import of rankedcoal.cli is itself a span (cli.import). The spans
are written to SPANS_JSON when the call ends; the exit code is the CLI's.
"""

import sys

import tracer


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    spans = tracer.Tracer()
    try:
        with spans.span("cli.import"):
            import rankedcoal.cli as cli
        tracer.install(spans)
        return cli.main(argv)
    finally:
        spans.write(out)


if __name__ == "__main__":
    sys.exit(main())
