"""One timed set-up in a fresh interpreter: import, kernel load, traces.

Traces are generated only for single-core grids.  A mix's traces are
generated again inside every ``Session.run``, so they count in the
simulation rate and not here.

``run.py`` starts this script several times per run, with the
environment it prepared (``PYTHONPATH``, ``REPRO_CACHE_DIR`` holding the
already-built kernel, ``REPRO_KERNEL=compiled``), and reports the median.
Host speed is sampled just before and just after the set-up, and the
printed time is scaled to the nominal host (see ``run.HostSpeed``).

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
Prints the set-up time in seconds.
"""

import sys
import time

from run import HostSpeed

#: Host-speed samples taken on each side of the set-up.
SAMPLES = 10

if __name__ == "__main__":
    host = HostSpeed()
    for _ in range(SAMPLES):
        host.sample()
    start = time.perf_counter()

    import grid
    from repro.kernel import kernel_available, kernel_unavailable_reason

    if not kernel_available():
        sys.exit(f"compiled kernel unavailable: {kernel_unavailable_reason()}")
    chosen = grid.GRIDS[sys.argv[1]]
    if not chosen.mixes:
        grid.build_traces(chosen, int(sys.argv[2]))
    elapsed = time.perf_counter() - start
    for _ in range(SAMPLES):
        host.sample()
    print(elapsed * host.scale())
