"""Benchmark launcher: run a workload in fresh processes and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without ``--workload`` every workload runs, one after the other.  ``--seconds``
defaults to ``run_seconds`` in BENCHMARK.json and must lie in 1..MAX_SECONDS,
so that every worker ends inside WORKER_TIMEOUT_S.  Load model:
closed loop, one client, one process at a time, no worker threads; BLAS is
pinned to one thread.  ``--trace 0`` prints the end-to-end metrics
(set-up time as the median of SETUP_SAMPLES fresh processes, the last of
which then runs the timed loop); ``--trace 1`` prints the per-layer metrics
and the tracing overhead, and writes the spans under ``.bench_out/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("selflearn", "theorem", "gap")
SETUP_SAMPLES = 3
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
MAX_SECONDS = 60
WORKER_TIMEOUT_S = 150  # set-up, MAX_SECONDS of units and the last unit's overrun
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _worker_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def _worker(workload: str, seed: int, mode: str, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)],
        cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, text=True,
        timeout=WORKER_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    """What the numbers depend on besides the code: recorded with each result."""
    probe = subprocess.run(
        [sys.executable, "-c",
         "import json, numpy; c = numpy.show_config(mode='dicts');"
         "b = c['Build Dependencies']['blas'];"
         "print(json.dumps([numpy.__version__, b.get('name'), b.get('version')]))"],
        env=_worker_env(), stdout=subprocess.PIPE, text=True, timeout=60, check=True)
    numpy_version, blas, blas_version = json.loads(probe.stdout)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas": f"{blas} {blas_version}",
        "blas_threads": {var: _worker_env()[var] for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile of ``latencies`` with at least 10 samples beyond it.

    Returns (value, percentile, samples beyond); the value at sorted rank
    n - 10 (1-based) has exactly 10 samples ranked after it.
    """
    xs = sorted(latencies)
    rank = len(xs) - 10
    if rank < 1:
        raise ValueError(f"need at least 11 samples for a tail, got {len(xs)}")
    return xs[rank - 1], 100.0 * rank / len(xs), len(xs) - rank


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    """Untraced run: set-up samples, then the timed loop in the last process."""
    setups = [_worker(workload, seed, "setup", seconds)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    timed = _worker(workload, seed, "timed", seconds)
    setups.append(timed["setup_s"])
    lat_ms = [1000.0 * x for x in timed["latencies_s"]]
    tail_ms, tail_pct, beyond = tail(lat_ms)
    attempted, failed = timed["attempted"], timed["failed"]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "correct": failed == 0 and timed["checksum"] is not None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": _metric(statistics.median(setups), "s"),
            "units_per_s": _metric(attempted / timed["elapsed_s"], "1/s"),
            "unit_p50_ms": _metric(statistics.median(lat_ms), "ms"),
            "unit_tail_ms": _metric(tail_ms, "ms"),
            "peak_rss_mb": _metric(timed["peak_rss_kb"] / 1024.0, "MB"),
        },
        "failed_frac": failed / attempted,
        "tail_percentile": tail_pct,
        "tail_beyond": beyond,
        "setup_samples_s": setups,
        "checksum": timed["checksum"],
        "checksum_units": timed["checksum_units"],
        "problems": timed["problems"],
    }


def layer_metrics(out: dict) -> tuple[dict, bool]:
    """Per-layer metrics from a traced worker's output, and whether every
    count repeated exactly across its traced passes."""
    runs, counts = out["layers"], out["counts"]
    metrics = {}
    repeatable = all(c == counts[0] for c in counts)
    for name in runs[0]:
        values = [run[name] for run in runs]
        if name.endswith(".self_s"):
            metrics[name] = _metric(statistics.median(values), "s")
        else:  # every pass runs the same units, so counts must repeat exactly
            repeatable = repeatable and len(set(values)) == 1
            metrics[name] = _metric(values[0], "count")
    c = counts[0]
    for name, num, den, base in (
            ("pipeline.pairs_kept_frac", "pairs_kept", "pairs_offered",
             "pipeline.pairs_offered"),
            ("practice.dbscan.noise_frac", "noise_points", "clustered_points",
             "practice.dbscan.clustered_points"),
            ("discrepancy.mmd_squared.ok_frac", "mmd_logged", "mmd_attempted",
             "discrepancy.mmd_squared.attempted")):
        metrics[name] = _metric(c[num] / c[den] if c[den] else 0.0, "ratio")
        metrics[base] = _metric(c[den], "count")
    per_pass = out["units_per_pass"]
    plain = per_pass / statistics.median(out["plain_pass_s"])
    traced = per_pass / statistics.median(out["traced_pass_s"])
    metrics["trace.units_per_s_untraced"] = _metric(plain, "1/s")
    metrics["trace.units_per_s_traced"] = _metric(traced, "1/s")
    metrics["trace.overhead_units_per_s"] = _metric(plain - traced, "1/s")
    return metrics, repeatable


def per_layer(workload: str, seed: int, seconds: float) -> dict:
    """Traced run: medians over traced passes of the per-layer metrics."""
    out = _worker(workload, seed, "traced", seconds)
    metrics, repeatable = layer_metrics(out)
    checksums = out["checksums"]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "correct": (out["failed"] == 0 and repeatable
                    and len(checksums) == 1 and checksums != ["none"]),
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
        "passes": len(out["layers"]),
        "checksum": checksums[0] if len(checksums) == 1 else None,
        "checksum_units": out["units_per_pass"],
        "spans_file": out["spans_file"],
        "spans": out["spans"],
        "problems": out["problems"],
    }


def _report(row: dict, trace: bool) -> None:
    print(f"workload {row['workload']}  seed {row['seed']}  seconds {row['seconds']}  "
          f"{'traced' if trace else 'untraced'}")
    for name, m in row["metrics"].items():
        if trace and not m["value"]:
            continue
        note = ""
        if name == "unit_tail_ms":
            note = (f"  (p{row['tail_percentile']:.1f}: {row['tail_beyond']} of "
                    f"{row['attempted']} units beyond)")
        elif name == "setup_s":
            note = f"  (median of {len(row['setup_samples_s'])} fresh processes)"
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}{note}")
    if not trace:
        print(f"  {'failed_frac':<44} {row['failed_frac']:>14.6g}  "
              f"({row['failed']} of {row['attempted']} units)")
    else:
        m = row["metrics"]
        print(f"  tracing overhead {m['trace.overhead_units_per_s']['value']:.4g} units/s "
              f"of {m['trace.units_per_s_untraced']['value']:.4g} untraced")
        print(f"  (zero-valued metrics omitted; spans: {row['spans']} in "
              f"{row['spans_file']}, {row['passes']} traced passes)")
    print(f"  checksum {row['checksum']}  (first {row['checksum_units']} units)")
    print(f"  checks {'ok' if row['correct'] else 'FAILED'}")
    for problem in row["problems"][:10]:
        print(f"    {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS,
                        help=f"timed seconds per run, 1..{MAX_SECONDS} "
                             f"(default: run_seconds in BENCHMARK.json, {RUN_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must lie in 1..{MAX_SECONDS}, got {args.seconds}")

    missing = [p for p in ("src/pseudobound/__init__.py", "configs/practice.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"not a pseudobound checkout: missing {', '.join(missing)} under {ROOT}",
              file=sys.stderr)
        return 2

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    measure = per_layer if args.trace else end_to_end
    rows = []
    for workload in ([args.workload] if args.workload else WORKLOADS):
        row = measure(workload, args.seed, args.seconds)
        row["env"] = env
        rows.append(row)
        _report(row, bool(args.trace))
    if len(rows) == 1:
        row = rows[0]
        print(json.dumps({key: row[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
    else:
        print(json.dumps({row["workload"]: {key: row[key] for key in
                          ("correct", "attempted", "failed", "metrics")}
                          for row in rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
