"""Steadiness check: two sets of runs of the same code, side by side.

Usage (from the repository root)::

    python3 pqa_bench/steady.py                  # 10 seeds a set, all workloads
    python3 pqa_bench/steady.py --runs 5 --workloads cold-asp

Each run is one ``run.py`` process with its own ``--seed``; set 1 uses
seeds 1..N and set 2 seeds 101..100+N.  For every workload and
end-to-end metric the table shows each set's median, its spread (the
distance between the first and third quartile as a share of the
median), the bound from ``BENCHMARK.json``, and how much worse set 2's
median is than set 1's.  A metric fails when a spread exceeds its bound
or set 2's median is worse than set 1's by more than the bound, and
``setup_s`` is held to both rules like every other metric; a metric is
marked ``thin`` when a spread exceeds a third of the bound, the margin
the benchmark aims for.  A failed operation in either set fails the
check.  Exits 1 when anything fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: the first seed of each set
SET_SEEDS = (1, 101)


def spread(values: list[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    change = (second - first) / first
    return change if better == "lower" else -change


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """The result line and the raw-figures line of one run."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False, timeout=300)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"{workload} seed {seed}: exited "
                         f"{completed.returncode}")
    return json.loads(lines[-1]), json.loads(lines[-2])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    names = args.workloads.split(",")
    results: dict[str, list[list[dict]]] = {n: [] for n in names}
    for set_index, first_seed in enumerate(SET_SEEDS):
        for name in names:
            runs = []
            for seed in range(first_seed, first_seed + args.runs):
                result, raw = one_run(name, seed, args.seconds)
                runs.append(result)
                print(f"set {set_index + 1} {name} seed {seed}: "
                      + json.dumps({k: round(v["value"], 4) for k, v in
                                    result["metrics"].items()})
                      + f" raw {json.dumps(raw['raw'])}"
                      + f" ref_ms {raw['ref_ms']:.4f}", flush=True)
            results[name].append(runs)

    steady = True
    for name in names:
        sets = results[name]
        shares = {(sum(r["failed"] for r in runs),
                   sum(r["attempted"] for r in runs)) for runs in sets}
        print(f"\n{name}: failed/attempted per set "
              f"{[f'{f}/{a}' for f, a in sorted(shares)]}")
        if any(f for f, _a in shares) or not all(
                r["correct"] for runs in sets for r in runs):
            steady = False
        print(f"  {'metric':20} {'bound':>6} " + " ".join(
            f"{'median' + str(i + 1):>12} {'spread' + str(i + 1):>8}"
            for i in range(len(sets))) + f" {'worse':>7}")
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            columns, medians, widths = [], [], []
            for runs in sets:
                values = [r["metrics"][key]["value"] for r in runs]
                medians.append(statistics.median(values))
                widths.append(spread(values))
                columns.append(f"{medians[-1]:12.4f} {widths[-1]:8.3f}")
            drift = worse_by(medians[0], medians[1], metric["better"])
            widest = max(widths)
            fails = widest > bound or drift > bound
            steady &= not fails
            note = ("  <-- FAILS" if fails
                    else "  thin" if widest > bound / 3 else "")
            print(f"  {key:20} {bound:6.3f} " + " ".join(columns)
                  + f" {drift:7.3f}{note}")
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
