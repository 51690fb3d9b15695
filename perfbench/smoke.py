#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at toy sizes (well under a minute).

    python3 perfbench/smoke.py

For a toy version of every workload, in both modes, it checks that every
metric BENCHMARK.json names comes out, with its unit and a value, and that the
output checks pass.  It then runs a toy cell on which brascpd with alpha=50 diverges
(m_k = nan from checkpoint 1) and checks that the trial is counted as failed
against the attempts.  Exits 1 on the first mismatch.
"""

import json
import sys
import warnings
from dataclasses import replace

import run as bench
from fibercpd.solvers import Diminishing

TOY_SECONDS = 0.5


def toy(w: bench.Workload) -> bench.Workload:
    dims = (9, 10, 11) if w.from_file else (12, 12, 12)
    return replace(w, dims=dims, rank=3, block=10, budget=3, target=0.95)


def check(ok: bool, message: str) -> None:
    if not ok:
        print(f"smoke: FAIL: {message}")
        sys.exit(1)


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    check(sorted(m["name"] for m in spec["workloads"]) == sorted(bench.WORKLOADS),
          "BENCHMARK.json workloads differ from run.py's")
    for name, w in bench.WORKLOADS.items():
        for trace in (0, 1):
            result = bench.run_benchmark(toy(w), seed=1, seconds=TOY_SECONDS, trace=bool(trace))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected[trace], f"{name} trace={trace}: metrics/units differ: "
                  f"missing {sorted(set(expected[trace]) - set(got))}, "
                  f"extra {sorted(set(got) - set(expected[trace]))}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 5,
                  f"{name} trace={trace}: {result['correct']=} {result['failed']=} "
                  f"{result['attempted']=}")
            empty = [k for k, v in result["metrics"].items() if v["value"] is None]
            check(not empty, f"{name} trace={trace}: no value for {empty}")

    diverging = bench.Workload("diverging", (20, 20, 20), 3, 20, "none", None, 100.0,
                               budget=3, target=0.95,
                               schedules={"brascpd": Diminishing(alpha=50.0)})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = bench.run_benchmark(diverging, seed=1, seconds=TOY_SECONDS, trace=False)
    check(result["failed"] == 1 and result["attempted"] >= 5,
          f"diverging brascpd: expected 1 failed trial, got {result['failed']} "
          f"of {result['attempted']}")
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
