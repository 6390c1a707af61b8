"""Run jobs inside this interpreter through ``ecodyn.cli.run(argv)`` (or the
two-point driver's ``main``), capturing stdout and stderr.

As a script it is the benchmark's warm-up: it runs the argv lists in a
JSON file once each and discards the output, so that ``.pyc`` files and
the page cache are warm before anything is timed:

    PYTHONPATH=src python perfbench/inproc.py warmup.json
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from time import perf_counter

import ecodyn.cli

import twopoint


def run_one(driver: str, argv: list[str]) -> tuple[int, str, str, float]:
    """(exit code, stdout, stderr, seconds) of one job."""
    out, err = io.StringIO(), io.StringIO()
    entry = ecodyn.cli.run if driver == "cli" else twopoint.main
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        rc = entry(argv)
        seconds = perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), seconds


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        for driver, argv in json.load(fh):
            run_one(driver, argv)
