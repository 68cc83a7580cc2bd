"""The repository's benchmark: four workloads, a noise-floor host-time
estimator, and per-layer event attribution.  See ``perf/README.md``.

Run from the repository root: ``python -m perf.bench``.
"""

import os
import sys

#: the simulator lives in ``src/`` and is not installed; the benchmark
#: measures the source of the checkout it was started in, never a copy
#: of ``repro`` that happens to be importable from somewhere else
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src")
if not os.path.isdir(os.path.join(_SRC, "repro")):
    raise ImportError(f"no simulator source at {_SRC}/repro: run the "
                      "benchmark from a checkout of the repository")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
