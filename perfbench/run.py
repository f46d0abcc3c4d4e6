"""Benchmark of fullerene-belyi: three closed-loop workloads, one client each.

  proof    cold `python -m fullerene_belyi.cli derive 6` processes, the C22
           non-existence proof, alternating --format text and json.
  certify  in-process `FactoredBelyi.from_text(doc).verify()` over a seeded
           corpus of belyi v1 documents (see corpus.py), a fifth of them
           tampered and expected to be rejected with a named error.
  build    cold CLI processes cycling through the other README commands
           (passport 0, derive 5, verify d6, compose d12/d60/d72 --write,
           verify of the written file, compose schwarz, geometry barrel
           --svg) in text and json, in a seeded order.

Run from the repository root:

  python3 perfbench/run.py --workload proof --seed 1 --seconds 30 --trace 0

Whole cycles (proof: one text and one json run; build: all eighteen
command/format pairs; certify: one pass over the corpus) are run until
--seconds have passed, so every run measures the same mix.  With --trace 0
the last line of standard output holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of the traced run in tracing.py,
which does a fixed amount of work (40-70 s on a 2-vCPU Xeon VM) whatever
--seconds and --workload say.
The line before it is a report with the host, sample counts, the tail
percentile, the first failures and the wall-clock figures.

The whole run is pinned to one CPU, and the end-to-end timings are given
at a nominal host speed: every wall time is scaled by the host-speed
gauge of harness.py, timed in the same run on the same CPU.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus  # noqa: E402
import harness  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("proof", "certify", "build")
# set-ups per run: a cold set-up is one interpreter start (0.1-0.3 s),
# certify's imports the package and builds the corpus (about 1 s)
SETUP_REPEATS = {"proof": 9, "certify": 5, "build": 9}


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(tally: harness.Tally, setup_s: float, rss_mb: float) -> tuple[dict, dict]:
    """The metrics, timings at the nominal host speed (harness.REF_NOMINAL_S),
    and a report that also holds the wall-clock figures."""
    tail, pct, beyond = stats.tail(tally.latencies)
    ok = tally.attempted - tally.failed
    scale = harness.scale(tally.gauge)
    wall = {"latency_p50_s": statistics.median(tally.latencies),
            "latency_tail_s": tail,
            "ops_per_s": ok / tally.elapsed}
    metrics = {
        "latency_p50_s": (wall["latency_p50_s"] * scale, "s"),
        "latency_tail_s": (tail * scale, "s"),
        "ops_per_s": (wall["ops_per_s"] / scale, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = {
        "samples": tally.attempted,
        "tail_percentile": round(pct, 2),
        "tail_samples_beyond": beyond,
        "error_rate": tally.failed / tally.attempted,
        "measured_s": tally.elapsed,
        "gauge_median_s": statistics.median(tally.gauge),
        "scale": scale,
        "wall": wall,
        "p50_by_operation": {name: {"p50_s": statistics.median(xs), "n": len(xs)}
                             for name, xs in sorted(tally.by_name.items())},
    }
    return metrics, notes


def run_workload(workload: str, seed: int, seconds: float, report: dict):
    if workload == "certify":
        lib, setup_s, samples = harness.timed_setup(
            lambda: harness.setup_certify(seed), SETUP_REPEATS[workload])
        report["corpus"] = corpus.summary(lib.docs)
        tally = harness.closed_loop(harness.certify_cycles(lib), seconds,
                                    harness.certify_op(lib))
        rss = peak_rss_mb(resource.RUSAGE_SELF)
    else:
        script = harness.WARM if workload == "proof" else harness.WARM_AND_D72
        d72_text, setup_s, samples = harness.timed_setup(
            lambda: harness.setup_cold(script), SETUP_REPEATS[workload])
        cycles = (harness.proof_cycles(seed) if workload == "proof"
                  else harness.build_cycles(seed))
        tally = harness.closed_loop(cycles, seconds, harness.cold_op(d72_text))
        rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
    report["setup_samples_s"] = samples
    metrics, notes = end_to_end(tally, setup_s, rss)
    report.update(notes)
    return metrics, tally.attempted, tally.failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (harness.SRC / harness.PACKAGE / "cli.py").is_file():
        print(f"error: no {harness.PACKAGE} sources under {harness.SRC}",
              file=sys.stderr)
        return 2

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              **harness.host_info()}  # before pinning, so nproc is the host's
    report["cpu"] = harness.pin_to_one_cpu()
    report["host.ref_loop_s"] = harness.ref_loop_s()
    if args.trace:
        metrics, attempted, failures = tracing.run(args.workload, args.seed, report)
    else:
        metrics, attempted, failures = run_workload(
            args.workload, args.seed, args.seconds, report)
    report["failures"] = failures[:20]
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
