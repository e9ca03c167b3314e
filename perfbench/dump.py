"""Set-up of one benchmark run: write a workload's dump, timing synth.generate.

Usage: python3 perfbench/dump.py SRC_DIR WORKLOAD SEED N_PATIENTS REPEATS OUT_DIR

Generates the dump REPEATS times into OUT_DIR and prints the seconds each
took as a JSON list.  It runs in its own process so that the benchmark
process stays small: on Linux a child's peak RSS starts from its parent's
at spawn, which would otherwise leak into the children's memory figures.
"""

from __future__ import annotations

import json
import sys
import time


def main(src: str, workload: str, seed: str, n_patients: str, repeats: str, out: str) -> int:
    sys.path.insert(0, src)
    from workloads import WORKLOADS

    from icubench.synth import SynthConfig, generate

    cfg = SynthConfig(n_patients=int(n_patients), seed=int(seed), **WORKLOADS[workload].synth)
    times = []
    for _ in range(int(repeats)):
        start = time.perf_counter()
        generate(cfg, out)
        times.append(time.perf_counter() - start)
    print(json.dumps(times))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:7]))
