"""Untraced CLI operation: ``python bench/cli_probe.py <entcap.cli argv...>``.

Runs ``entcap.cli`` as ``python -m entcap.cli`` would, with the calibration
kernel timed once before the import and once after the command.  The two
kernel times go to the last line of standard error, after MARKER, so the
benchmark can take them out of the operation's time and scale it to the
speed this process ran at.  Standard output and the exit code are the
command's own.
"""

import json
import runpy
import sys

from calib import MARKER, calibrate


def main() -> None:
    before = calibrate()
    sys.argv = ["entcap.cli", *sys.argv[1:]]
    try:
        runpy.run_module("entcap.cli", run_name="__main__", alter_sys=True)
    finally:
        sys.stdout.flush()
        after = calibrate()
        sys.stderr.write(MARKER + json.dumps([before, after]) + "\n")
        sys.stderr.flush()


if __name__ == "__main__":
    main()
