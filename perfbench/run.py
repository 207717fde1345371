"""Benchmark of the pasfusion pipeline: one workload per process.

    python3 perfbench/run.py --workload compare-micro --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``. The
workload's inputs come from ``--seed``. After set-up (repeated, median
reported as ``setup_s``) it runs whole rounds of the workload's operations
until ``--seconds`` have passed, checks every output, and prints one JSON
object as the last line of standard output. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` traces every other round and reports the
per-layer metrics and the tracing overhead. See README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "_results"
WORKLOAD_NAMES = ("compare-micro", "paper-infer", "ingest-paper")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _pin_threads(workload: str) -> tuple[int, int]:
    """Size the BLAS/OpenMP pools before numpy loads: one thread for the
    compare command, as ``--deterministic`` pins it in its own process, and
    one per usable CPU otherwise. -> (nproc, threads)."""
    nproc = len(os.sched_getaffinity(0))
    threads = 1 if workload == "compare-micro" else nproc
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(threads)
    return nproc, threads


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    args = _parse(argv)
    nproc, threads = _pin_threads(args.workload)
    if not (ROOT / "src" / "pasfusion").is_dir():
        print(f"no pasfusion sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracing
    from workloads import WORKLOADS

    work = HERE / "_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = tracing.Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed)
    try:
        # set-up, several times; the last one's inputs are kept
        if tracer:
            tracer.install()
        setup_times = []
        for rep in range(workload.setup_reps):
            gc.collect()
            t0 = time.perf_counter()
            workload.setup(work / f"setup{rep}")
            setup_times.append(time.perf_counter() - t0)
            if rep:
                shutil.rmtree(work / f"setup{rep - 1}", ignore_errors=True)
        if tracer:
            setup_spans, _ = tracer.take()
            tracer.uninstall()

        # whole rounds until the time is up; traced runs trace every other round
        rounds, attempted, failed = [], 0, 0
        min_rounds = max(workload.min_rounds, 2 if tracer else 1)
        start = time.perf_counter()
        while True:
            traced = bool(tracer) and len(rounds) % 2 == 1
            if traced:
                tracer.install()
            seconds, n, bad = workload.run_round(len(rounds))
            if traced:
                tracer.uninstall()
            rounds.append((seconds, traced))
            attempted += n
            failed += bad
            if time.perf_counter() - start >= args.seconds and len(rounds) >= min_rounds:
                break
        peak_rss = _peak_rss_mb()
        if tracer:
            round_spans, counts = tracer.take()
        workload.finish()

        untraced = [s for s, traced in rounds if not traced]
        if tracer:
            traced = [s for s, t in rounds if t]
            metrics = tracing.layer_metrics(setup_spans, round_spans, counts, len(traced))
            metrics.update(workload.probe())
            overhead = statistics.median(traced) - statistics.median(untraced)
            metrics["trace.overhead_s"] = overhead
            metrics["trace.overhead_share"] = overhead / statistics.median(untraced)
            RESULTS.mkdir(exist_ok=True)
            tracing.write_spans(RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl",
                                {"setup": setup_spans, "rounds": round_spans})
            units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
        else:
            metrics = {"setup_s": statistics.median(setup_times),
                       "round_s": statistics.median(untraced),
                       "peak_rss_mb": peak_rss}
            units = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    for message in workload.errors:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"{args.workload}: seed {args.seed}, nproc {nproc}, BLAS threads {threads}, "
          f"{len(rounds)} rounds, "
          f"round seconds {[round(s, 3) for s, _ in rounds]}, "
          f"setup seconds {[round(s, 3) for s in setup_times]}", file=sys.stderr)
    result = {"correct": not workload.errors, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                          for name, unit in units.items()}}
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1))
    print(json.dumps(result))
    return 0


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


if __name__ == "__main__":
    sys.exit(main())
