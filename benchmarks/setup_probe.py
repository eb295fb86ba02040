"""Set-up probe: start Python, import numpy, scipy and spdefem, parse a workload.

    python3 benchmarks/setup_probe.py WORKLOAD SEED

Prints the CLOCK_MONOTONIC reading at which the documents are parsed and
a study could start. run.py subtracts its own reading taken just before
launching this process; the difference is one setup_s sample.
"""

import sys
import time

import common

common.pin_blas_threads()
common.require_source()

import numpy  # noqa: E402,F401
import scipy  # noqa: E402,F401

import workloads  # noqa: E402  (imports spdefem)

workloads.parse(sys.argv[1], int(sys.argv[2]))
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)), flush=True)
