"""Benchmark-suite plumbing: the one profile knob, and the table dump.

``BENCH_PROFILE=reduced`` is the only benchmark environment variable and
this is the only place it is read: every benchmark with a CI-sized
configuration imports :data:`REDUCED` from here.  A reduced run writes
its tables and ``BENCH_<ID>.json`` files to the git-ignored
``bench_scratch/`` instead of ``bench_results/``, so it can never
overwrite a committed full-config baseline; nothing is ever wiped — a
benchmark overwrites only the files it writes.  The scenario benchmarks
(S1, O1, T2) get their reduced configuration from one place too:
:func:`scale_timeline` at :data:`SCALE`.
"""

import os
from dataclasses import replace

from repro.eval import report

REDUCED = os.environ.get("BENCH_PROFILE") == "reduced"
if REDUCED:
    report.RESULTS_DIR = os.path.join(
        os.path.dirname(os.path.abspath(report.RESULTS_DIR)), "bench_scratch")


#: time-compression factor of the reduced scenario benchmarks
SCALE = 0.5 if REDUCED else 1.0


def scale_timeline(scn):
    """Compress a scenario's timeline by :data:`SCALE`: duration,
    envelopes, chaos plan.

    Rates are untouched, so utilization — and therefore the verdict —
    is preserved; only the soak length shrinks.
    """
    if SCALE == 1.0:
        return scn

    def s(x):
        return max(1, int(x * SCALE))

    tenants = tuple(
        replace(t, arrival=replace(t.arrival, envelopes=tuple(
            replace(e, period=int(e.period * SCALE),
                    start=int(e.start * SCALE),
                    end=int(e.end * SCALE))
            for e in t.arrival.envelopes)))
        for t in scn.tenants)
    chaos = tuple(replace(c, at=s(c.at)) for c in scn.chaos)
    return replace(scn, duration=s(scn.duration), tenants=tenants,
                   chaos=chaos)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    text = report.render_all()
    if not text:
        return
    terminalreporter.write_line("")
    terminalreporter.write_sep("=", "reproduced tables and figures")
    for line in text.split("\n"):
        terminalreporter.write_line(line)
