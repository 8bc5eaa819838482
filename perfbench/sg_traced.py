"""Run the `sg` command line with the benchmark's tracer installed.

Usage: python3 perfbench/sg_traced.py SPANS.json ARGS...

Runs `sg ARGS...` in this process, writes the span totals to SPANS.json
and exits with the command's exit code.  The sgflow sources must be on
PYTHONPATH.
"""

import json
import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    spans, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from sgflow import cli

    try:
        return cli.main(argv)
    finally:
        spans.write_text(json.dumps(tracer.snapshot()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
