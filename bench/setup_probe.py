"""Set-up as a fresh interpreter pays it: ``python bench/setup_probe.py WORKLOAD SEED``.

Imports entcap and generates the workload's inputs from the seed.  The
benchmark times this whole process from the outside.  The calibration
kernel is timed CAL_REPEATS times before the import and CAL_REPEATS times
after the inputs are made.  The last line of standard output is a JSON
object with the median kernel time and the total time the kernels took, so
the benchmark can take them out of the set-up time and scale it to the
speed this child ran at.
"""

import json
import statistics
import sys

from calib import calibrate

CAL_REPEATS = 3

if __name__ == "__main__":
    times = [calibrate() for _ in range(CAL_REPEATS)]
    import entcap  # noqa: F401  (the import is the measured work)
    from workloads import WORKLOADS

    WORKLOADS[sys.argv[1]]().make_inputs(int(sys.argv[2]))
    times += [calibrate() for _ in range(CAL_REPEATS)]
    print(json.dumps({"cal_s": statistics.median(times), "cal_total_s": sum(times)}))
