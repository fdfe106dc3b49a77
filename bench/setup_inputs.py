"""Write one workload's seeded input files; the timed set-up step of run.py.

Usage: python3 bench/setup_inputs.py WORKLOAD SEED OUTDIR [--smoke]

run.py times this script as a fresh process, so set-up time covers
interpreter start, the numpy and povmquad imports and file generation.
"""
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

import povmquad  # noqa: E402,F401  (part of the timed set-up)
import workloads  # noqa: E402


def main(argv):
    if len(argv) not in (3, 4) or (len(argv) == 4 and argv[3] != "--smoke"):
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 64
    workload, seed, out = argv[0], int(argv[1]), Path(argv[2])
    workloads.generate(
        workload, seed, out, SRC / "povmquad" / "data" / "grids", smoke=len(argv) == 4
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
