"""Set-up as the benchmark times it, in a fresh interpreter: ``import krchar``
and the root systems of the algebras named on the command line built.

    python3 perfbench/setup_child.py SPAWNED D5 B4 C4

SPAWNED is the parent's ``time.perf_counter()`` just before it started this
process (the system-wide monotonic clock on Linux, so it compares with this
process's).  Prints the time from SPAWNED to the end at reference speed (see
``speed.py``); the interpreter start before this script's first line is
scaled by the speed sampled in the rest.
"""

import sys
import time

from speed import SpeedSampler

sampler = SpeedSampler(period_s=0.002)  # set-up is short: sample it densely
sampler.start()
import krchar  # noqa: E402

for label in sys.argv[2:]:
    krchar.build_root_system(label)
end = time.perf_counter()
sampler.stop()
print(sampler.at_reference(float(sys.argv[1]), end))
