"""Run one ``smaup`` CLI command with tracing on and write its spans.

    python3 perfbench/tracecli.py SPANS_FILE COMMAND [ARGS...]

The command runs in this fresh process, like ``python -m smaup.cli``, inside
a span named ``cli.<command>``; the exit code is the command's.
"""

import sys

import smaup.cli

from tracing import Tracer

spans_file, argv = sys.argv[1], sys.argv[2:]
tracer = Tracer()
with tracer:
    code = tracer.span(f"cli.{argv[0]}", smaup.cli.main, argv)
tracer.dump(spans_file)
sys.exit(code)
