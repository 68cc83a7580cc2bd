"""Benchmark-suite plumbing: the one profile knob, and the table dump.

``BENCH_PROFILE=reduced`` is the only benchmark environment variable and
this is the only place it is read: every benchmark with a CI-sized
configuration imports :data:`REDUCED` from here.  A reduced run writes
its tables and ``BENCH_<ID>.json`` files to the git-ignored
``bench_scratch/`` instead of ``bench_results/``, so it can never
overwrite a committed full-config baseline; nothing is ever wiped — a
benchmark overwrites only the files it writes.
"""

import os

from repro.eval import report

REDUCED = os.environ.get("BENCH_PROFILE") == "reduced"
if REDUCED:
    report.RESULTS_DIR = os.path.join(
        os.path.dirname(os.path.abspath(report.RESULTS_DIR)), "bench_scratch")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    text = report.render_all()
    if not text:
        return
    terminalreporter.write_line("")
    terminalreporter.write_sep("=", "reproduced tables and figures")
    for line in text.split("\n"):
        terminalreporter.write_line(line)
