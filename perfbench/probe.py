"""Set-up probe: a fresh interpreter imports actfactors and runs the first
operation of one workload once, then exits.

The runner times this whole process from outside, so ``setup_s`` covers
interpreter start, imports and one warm-up operation. The input CSVs must
already exist; writing them is not part of set-up.

Usage: python3 perfbench/probe.py <workload> <seed> [--tiny]
"""

import sys


def main(argv: list[str]) -> int:
    name, seed = argv[0], int(argv[1])
    import workloads as wl

    w = wl.sized(wl.WORKLOADS[name], "--tiny" in argv)
    wl.run_op(w, seed, 0, tag="probe")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
