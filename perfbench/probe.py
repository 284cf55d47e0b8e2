"""Set-up probe: a fresh interpreter imports chemobound and runs one query.

Usage: python3 perfbench/probe.py SRC_DIR ARGV_JSON

Prints time.monotonic() at the moment the query has returned, whatever its
status: a failing query also fails the timed operations, which count it.
The caller reads its own time.monotonic() before starting this process;
CLOCK_MONOTONIC is shared by all processes of the machine.
"""

import contextlib
import io
import json
import sys
import time

sys.path.insert(0, sys.argv[1])

from chemobound import cli  # noqa: E402

try:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(json.loads(sys.argv[2]))
except (Exception, SystemExit):
    pass
print(repr(time.monotonic()))
