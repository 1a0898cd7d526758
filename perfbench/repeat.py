"""Repeat the benchmark over several seeds and summarize each metric.

usage (from the repository root):

    python3 perfbench/repeat.py --workload spectral-sweep --seeds 1-10 [--out runs.json]

Runs ``perfbench/run.py`` once per seed (``--trace 0``, 30 s) and prints,
for every end-to-end metric, the median, the quartiles and the spread
(inter-quartile distance over the median, from
``statistics.quantiles(values, n=4)``).  With ``--out`` the per-run
results, their ``env`` lines and the summary are written as JSON.  Exits
1 if any run fails or reports ``correct: false``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(results):
    """{metric: {median, q1, q3, spread, unit}} over a list of results."""
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else 0.0,
                         "unit": results[0]["metrics"][name]["unit"]}
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--out")
    args = parser.parse_args()
    runs, status = [], 0
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", args.workload, "--seed",
             str(seed), "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print("seed %d: exit %d %s" % (seed, proc.returncode,
                                         proc.stderr.strip()[-300:]))
            status = 1
            continue
        result = json.loads(lines[-1])
        env = json.loads(lines[0][len("env "):])
        runs.append({"seed": seed, "env": env, "result": result})
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.5g" % (k, v["value"])
            for k, v in result["metrics"].items())), flush=True)
    if not runs:
        return 1
    summary = summarize([r["result"] for r in runs])
    for name, s in summary.items():
        print("%-12s median %.6g %s  quartiles %.6g .. %.6g  spread %.4f"
              % (name, s["median"], s["unit"], s["q1"], s["q3"],
                 s["spread"]))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "runs": runs,
                       "summary": summary}, fh, indent=1)
            fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
