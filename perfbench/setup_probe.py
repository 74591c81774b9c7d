"""Set-up probe: does what a benchmark run does before its first timed
call, then prints ``ready``. ``run.py`` times fresh copies of it for
``setup_s``.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys

from run import prepare

if __name__ == "__main__":
    prepare(sys.argv[1], int(sys.argv[2]))
    print("ready", flush=True)
