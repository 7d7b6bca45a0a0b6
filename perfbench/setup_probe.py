"""Time one set-up of a workload in a fresh interpreter and print the seconds.

Set-up is importing limitcone (with numpy and scipy) and writing the
workload's input files; the time is printed as JSON, in wall and in reference
seconds (see bench_clock.py).  A fresh process is the only way to pay the import
again, so `run.py` starts this script several times and reports the median.

    python3 perfbench/setup_probe.py SRC_DIR WORKLOAD SEED SIZE WORK_DIR
"""

import json
import os
import sys


def main(argv):
    src, name, seed, size, workdir = argv
    sys.path.insert(0, src)
    from bench_clock import SpeedClock

    clock = SpeedClock("python")
    with clock:
        ref, wall = clock.read()
        import bench_workloads as bw  # imports limitcone: part of what is measured

        workload = bw.WORKLOADS[name](int(seed), bw.SIZES[size][name])
        os.makedirs(workdir)
        os.chdir(workdir)
        workload.prepare()
        ref_end, wall_end = clock.read()
    print(json.dumps({"wall_s": wall_end - wall, "reference_s": ref_end - ref}))


if __name__ == "__main__":
    main(sys.argv[1:])
