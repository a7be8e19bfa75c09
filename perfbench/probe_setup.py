"""Set-up as a user pays it: import smaup, then build the workload's weights.

    python3 perfbench/probe_setup.py lattice 10 10
    python3 perfbench/probe_setup.py geojson FILE

The caller times this process from launch to exit, so interpreter start-up
is included; the benchmark's own input generation is not.
"""

import sys

import smaup

if sys.argv[1] == "lattice":
    w = smaup.build_lattice_rook(int(sys.argv[2]), int(sys.argv[3]))
else:
    with open(sys.argv[2]) as fh:
        w = smaup.from_geojson(fh.read())
print(w.n)
