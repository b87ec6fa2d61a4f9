"""Reference work timed next to the measured work.

On a shared 2-vCPU VM the machine's speed drifts by tens of percent over
tens of seconds (other tenants), and medians within a run cannot average
that out.  So fixed reference work is timed next to the measured work, and
every time is reported at the speed where the reference takes its nominal
time:
``reported = measured * nominal / reference``.  A change to toric3d cannot
move the reference; the host's drift moves both.

Two references, matched to what they calibrate:

* ``time_probe``: pure-Python work (tuples, dict inserts, integer
  arithmetic) for in-process ops.  On that VM it cut the spread
  of ``decide`` throughput over ten 20 s windows on one input from 28% to 2%
  (interquartile range over median).
* ``time_import``: a fresh ``python -c "import numpy"`` for ``cli``
  commands and for set-up (process start to first op ready), which the
  in-process probe did not track.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter

PROBE_NOMINAL_S = 5e-4
IMPORT_NOMINAL_S = 0.15


def probe():
    d = {}
    s = 0
    for i in range(800):
        t = (i, i ^ 5, i * 3)
        s = (s + t[0] * t[2]) % 1000003
        d[t] = s
    for i in range(5000):
        s += i * i % 7
    return len(d) + s


def time_probe():
    t0 = perf_counter()
    probe()
    return perf_counter() - t0


def time_import():
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return perf_counter() - t0
