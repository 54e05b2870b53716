"""Record a trajectory point: every workload over several seeds.

Run from the root of a checkout:

    python3 perfbench/baseline.py --seconds 30 --seeds 10 --output perfbench/baseline.json

Each run is a fresh `perfbench/run.py` process. For every workload the
output holds, per end-to-end metric, the median, quartiles and quartile
spread (q3 - q1 over the median) of the per-seed values, then the
per-layer metrics of one traced run on the first seed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from host import host_facts
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--seeds", type=int, required=True)
    parser.add_argument("--output", required=True)
    args = parser.parse_args(argv)

    point = {"host": host_facts(), "seconds": args.seconds,
             "seeds": list(range(1, args.seeds + 1)), "workloads": {}}
    for name in WORKLOADS:
        results = [run_once(name, seed, args.seconds, 0) for seed in point["seeds"]]
        traced = run_once(name, 1, args.seconds, 1)
        if not all(r["correct"] for r in results + [traced]):
            sys.stderr.write(f"baseline: {name} failed its checks\n")
            return 1
        end_to_end = {
            metric: dict(summarize([r["metrics"][metric]["value"] for r in results]),
                         unit=unit["unit"])
            for metric, unit in results[0]["metrics"].items()}
        point["workloads"][name] = {
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for metric, row in end_to_end.items():
            print(f"{name:<10} {metric:<18} median {row['median']:.4f} "
                  f"spread {row['spread']:.4f}", flush=True)
    with open(args.output, "w") as fh:
        json.dump(point, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
