"""Steadiness aid: run the benchmark over several seeds, the workloads
interleaved, and print each end-to-end metric's spread against its bound.

  python3 perfbench/steady.py [--seeds 10] [--sets 2]

Every workload of BENCHMARK.json runs for its run_seconds, once per seed
1..seeds, the workloads interleaved, and the whole round runs `--sets`
times.  Spread is the distance between the first and third quartile of a
metric's values over the seeds, as a share of their median (the rule in
stats.py).  A metric is steady when its spread stays under a third of its
bound in every set, and the change of its median from the first set to
the last is not worse than the bound.  Each run records the host's
Python, nproc, load average and reference loop, printed beside its
values.  Raw results go to .perfbench/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import stats  # noqa: E402
from checks import ROOT, WORK  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """(result object, report) of one benchmark run."""
    p = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {p.returncode}: {p.stderr[-500:]}")
    lines = p.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    values: dict = {}  # [set][workload][metric] -> values over seeds
    for s in range(args.sets):
        for seed in range(1, args.seeds + 1):
            for w in workloads:
                result, report = run_once(w, seed, bench["run_seconds"])
                row = values.setdefault(s, {}).setdefault(w, {})
                for name, m in result["metrics"].items():
                    row.setdefault(name, []).append(m["value"])
                print(f"set {s} seed {seed} {w:8s} ok={result['correct']} "
                      f"n={result['attempted']} ref_loop={report['host.ref_loop_s']:.4f} "
                      f"load={report['loadavg_start'][0]:.2f} "
                      + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
                      flush=True)
    (ROOT / WORK).mkdir(exist_ok=True)
    (ROOT / WORK / "steady.json").write_text(json.dumps(values, indent=1))

    steady = True
    print(f"\n{'workload':9s} {'metric':15s} {'median':>10s} "
          f"{'spread per set':>16s} {'bound':>6s} {'drift':>8s}")
    for w in workloads:
        for name, m in metrics.items():
            bound = m["bound"]
            runs = [values[s][w][name] for s in range(args.sets)]
            spreads = [stats.spread(v) for v in runs]
            med = [statistics.median(v) for v in runs]
            drift = (med[-1] - med[0]) / med[0]
            worse = drift if m["better"] == "lower" else -drift
            ok = name == "setup_s" or max(spreads) < bound / 3
            steady &= ok and worse <= bound
            print(f"{w:9s} {name:15s} {med[0]:10.4g} "
                  f"{'/'.join(f'{x:.3f}' for x in spreads):>16s} {bound:6.2f} "
                  f"{drift:+8.3f} {'' if ok else '  <- spread over bound/3'}")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
