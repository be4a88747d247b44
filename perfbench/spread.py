"""Run the benchmark on several seeds and summarise every metric.

    python3 perfbench/spread.py [--out FILE]

Run from the repository root. For each workload, runs perfbench/run.py
once per seed in SEEDS, one run at a time, and reports each end-to-end
metric's median, quartiles and spread ((q3 - q1) / median, as
statistics.quantiles gives them). A spread above a third of the metric's
BENCHMARK.json bound is flagged: the bound would not reliably separate a
regression from noise. One traced run per workload, on seed 0, adds the
per-layer table. --out writes everything as JSON.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent
# small and large seeds alike: a run must accept any non-negative seed
SEEDS = (0, 1, 2, 3, 4, 1_000_003, 2**31 - 1, 2**32 + 1, 2**48 + 5, 2**63 - 1)


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    fingerprint = next(
        (json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("fingerprint ")),
        None,
    )
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace}: run failed")
    return result, fingerprint


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in SEEDS:
            result, fingerprint = run_once(bench, workload, seed, trace=0)
            runs.append(result["metrics"])
            report.setdefault("fingerprint", fingerprint)
            print(f"{workload} seed {seed}: run_s {result['metrics']['run_s']['value']:.3f}",
                  flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r[name]["value"] for r in runs]
            q1, med, q3, spread = stats.quartile_spread(values)
            steady = spread < bound / 3
            summary[name] = {
                "unit": runs[0][name]["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": spread, "bound": bound, "values": values,
            }
            print(f"  {name:24s} median {med:12.6g}  spread {spread:.3f}  "
                  f"bound {bound}{'' if steady else '  NOT STEADY'}")
        result, _ = run_once(bench, workload, SEEDS[0], trace=1)
        report["workloads"][workload] = {
            "seeds": list(SEEDS), "end_to_end": summary, "per_layer_seed": SEEDS[0],
            "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
        }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
