"""Benchmark pairs: perfbench/run.py on a parent commit and on the working
tree, run in alternating pairs, summarized into one BENCH_<n>.json.

    python tests/bench_pairs.py --number 31 --workload build --pairs 10 \\
        --first-seed 3101 [--seconds 30] [--parent HEAD] [--description TEXT]

The parent side is a `git archive` of --parent (default HEAD, the base of
uncommitted work; give HEAD~1 for a committed change), and the change side
a copy of the working tree's src/ and perfbench/, each in its own
temporary directory, so both run perfbench/run.py as committed and the
tree can be edited while the pairs run.  Before every pair, both sides
are byte-compiled (`python -m compileall -q src perfbench` without
PYTHONDONTWRITEBYTECODE); the runs themselves set it, so no run writes
bytecode.  Pair i uses seed first_seed + i, and the parent runs first in
even pairs, the change in odd ones.

The file keeps, per side and workload, every run's command, host fields
and result line, and per workload its pairs, each metric's median,
quartiles (inclusive method), min and max on both sides, and the number
of pairs the change wins (lower is better, but for ops_per_s).  Running
it again for another workload adds that workload to the same file.
pytest does not collect this file; tests/test_bench_pairs.py checks its
arithmetic.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = {"latency_p50_s": "lower", "latency_tail_s": "lower",
           "ops_per_s": "higher", "setup_s": "lower", "peak_rss_mb": "lower"}
HOST_FIELDS = ("python", "nproc", "loadavg_start", "cpu", "host.ref_loop_s")


def spread(xs: list[float]) -> dict[str, float]:
    """Median, quartiles (statistics.quantiles, inclusive), min and max."""
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(xs), "max": max(xs)}


def change_wins(pairs: list[dict], metric: str) -> int:
    """The pairs in which the change's value of metric is the better one."""
    sign = 1 if METRICS[metric] == "higher" else -1
    return sum(sign * (p["change"][metric] - p["parent"][metric]) > 0 for p in pairs)


def summarize(pairs: list[dict]) -> dict:
    """Per metric: the wins of the change and the spread on each side."""
    out = {f"{m}_change_wins": change_wins(pairs, m) for m in METRICS}
    out["summary"] = {m: {side: spread([p[side][m] for p in pairs])
                          for side in ("parent", "change")} for m in METRICS}
    return out


def claim(summary: dict, metric: str) -> dict:
    """The figures a claimed gain on metric rests on: the change's wins,
    the median change, and whether the gap between the medians exceeds
    the parent's interquartile spread."""
    parent, change = summary["summary"][metric]["parent"], summary["summary"][metric]["change"]
    gap = change["median"] - parent["median"]
    return {"wins": summary[f"{metric}_change_wins"],
            "relative": gap / parent["median"],
            "parent_iqr": parent["q3"] - parent["q1"],
            "gap_exceeds_iqr": abs(gap) > parent["q3"] - parent["q1"]}


def checkout_parent(rev: str, into: Path) -> None:
    archive = subprocess.run(["git", "archive", rev, "src", "perfbench"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def copy_working_tree(into: Path) -> None:
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, into / part, ignore=shutil.ignore_patterns(
            "__pycache__", "*.egg-info", ".pytest_cache"))


def compile_tree(tree: Path) -> None:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=tree, env=env, check=True, stdout=subprocess.DEVNULL)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run([sys.executable, *argv], cwd=tree, capture_output=True, text=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(argv)} in {tree} failed: {proc.stderr[-500:]}")
    report = json.loads(lines[-2])["report"]
    return {"command": f"python3 {' '.join(argv)}",
            "host": {k: report[k] for k in HOST_FIELDS if k in report},
            "result": json.loads(lines[-1])}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--number", type=int, required=True, help="n of BENCH_<n>.json")
    parser.add_argument("--workload", choices=("proof", "certify", "build"), required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--description", default=None)
    args = parser.parse_args(argv)

    out_path = ROOT / f"BENCH_{args.number}.json"
    doc = json.loads(out_path.read_text()) if out_path.exists() else {}
    rev = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    runs = {"parent": [], "change": []}
    pairs = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        checkout_parent(args.parent, trees["parent"])
        copy_working_tree(trees["change"])
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for tree in trees.values():
                compile_tree(tree)
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                run = run_once(trees[side], args.workload, seed, args.seconds)
                runs[side].append(run)
                pair[side] = {m: run["result"]["metrics"][m]["value"] for m in METRICS}
                result = run["result"]
                print(f"pair {i} seed {seed} {side}: correct {result['correct']}, "
                      f"failed {result['failed']}, p50 {pair[side]['latency_p50_s']:.5f} s",
                      flush=True)
            pairs.append(pair)

    failed = sum(r["result"]["failed"] + (r["result"]["correct"] is not True)
                 for side in runs.values() for r in side)
    summary = summarize(pairs)
    p50 = claim(summary, "latency_p50_s")
    doc.setdefault("description", args.description or "")
    if args.description:
        doc["description"] = args.description
    doc["host_note"] = (
        f"Python {sys.version.split()[0]}; perfbench pins each run to one CPU and scales "
        "timings by its host.ref_loop_s gauge. The parent side is a git archive of "
        f"{rev}, the change side a copy of the working tree's src/ and perfbench/. "
        "PYTHONDONTWRITEBYTECODE=1 was set for every run; before every pair "
        "`python -m compileall -q src perfbench` ran without it in both. Each pair has its "
        "own seed, and the side that ran first alternated, parent first in even pairs "
        "(counting from 0). Other tenants of the host were not controlled; each run's "
        "loadavg_start is in its host fields. Written by tests/bench_pairs.py.")
    for side in runs:
        doc.setdefault("runs", {}).setdefault(side, {})[args.workload] = runs[side]
    doc[f"{args.workload}_pairs"] = {
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed <seed> "
                   f"--seconds {args.seconds:g} --trace 0",
        "note": (f"{args.pairs} parent/change pairs, seeds {args.first_seed}-"
                 f"{args.first_seed + args.pairs - 1}; {failed} failed or incorrect runs. "
                 f"latency_p50_s: the change ahead in {p50['wins']}/{args.pairs}, "
                 f"median {summary['summary']['latency_p50_s']['parent']['median'] * 1e3:.2f} -> "
                 f"{summary['summary']['latency_p50_s']['change']['median'] * 1e3:.2f} ms "
                 f"({p50['relative'] * 100:+.1f} %), parent interquartile spread "
                 f"{p50['parent_iqr'] * 1e3:.2f} ms."),
        **summary,
        "pairs": pairs,
    }
    doc.setdefault("notes", [])
    out_path.write_text(json.dumps(doc, indent=1) + "\n")
    print(doc[f"{args.workload}_pairs"]["note"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
