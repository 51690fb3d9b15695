#!/usr/bin/env python3
"""Synthesize a tensor and write it as a .dten file.

    python3 perfbench/write_input.py '{"dims": [9, 10, 11], "rank": 3,
        "snr_db": 20.0, "seed": 1}' <path>

run.py starts this in a process of its own, so that the measured process
begins from read_tensor and synthesis's peak memory stays out of its RSS.
Prints one JSON line with the seconds each step took.
"""

import json
import sys
import time
from pathlib import Path

import run as bench


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec_json, path = argv
    spec = bench.experiments.SyntheticSpec(**json.loads(spec_json))
    t0 = time.perf_counter()
    tensor = bench.experiments.generate_synthetic(spec)[0]
    t1 = time.perf_counter()
    bench.storage.write_tensor(tensor, Path(path))
    t2 = time.perf_counter()
    print(json.dumps({"generate_synthetic_s": t1 - t0, "write_tensor_s": t2 - t1}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
