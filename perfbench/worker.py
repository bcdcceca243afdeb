"""One benchmark process for one workload; ``run.py`` starts it fresh.

Modes:
  setup   time the set-up alone and exit;
  timed   set up, then run units back to back (closed loop, one client) for
          ``--seconds``, untraced;
  traced  set up, then alternate untraced and traced passes over the
          workload's checksum units for ``--seconds``.

Set-up is timed from the start of this process: importing ``pseudobound``,
loading the configs, building the inputs and one untimed warm-up unit.
Prints one JSON object on its last line of standard output.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import pseudobound as pb  # noqa: E402

import spans  # noqa: E402
import units  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MIN_UNITS = 11  # the tail percentile needs 10 units beyond it


def _set_up(workload: units.Workload, seed: int):
    inputs = workload.build(seed)
    _attempt(workload, inputs, 0)
    return inputs, time.perf_counter() - _STARTED


def _attempt(workload, inputs, u: int):
    """Run unit ``u``; returns (result or None, latency in s, problems)."""
    start = time.perf_counter()
    try:
        result = workload.run(inputs, u)
    except pb.PseudoboundError as err:
        return None, time.perf_counter() - start, [f"{type(err).__name__}: {err}"]
    latency = time.perf_counter() - start
    return result, latency, workload.check(inputs, u, result)


def _timed(workload, inputs, seconds: float) -> dict:
    latencies, problems, kept = [], [], []
    failed = 0
    start = time.perf_counter()
    u = 0
    while (time.perf_counter() - start < seconds
           or u < max(MIN_UNITS, workload.check_units)):
        result, latency, unit_problems = _attempt(workload, inputs, u)
        latencies.append(latency)
        if unit_problems:
            failed += 1
            problems.extend(f"unit {u}: {p}" for p in unit_problems)
        if u < workload.check_units:
            kept.append(result)
        u += 1
    elapsed = time.perf_counter() - start
    return {
        "elapsed_s": elapsed,
        "latencies_s": latencies,
        "attempted": u,
        "failed": failed,
        "problems": problems,
        "checksum": (units.checksum(kept) if None not in kept else None),
        "checksum_units": workload.check_units,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def _pass(workload, inputs, tracer):
    """One pass over the checksum units, traced when ``tracer`` is given.

    Returns (seconds, results, failed units, problems)."""
    results, problems = [], []
    failed = 0
    with spans.installed(tracer) if tracer else nullcontext():
        start = time.perf_counter()
        for u in range(workload.check_units):
            with tracer.unit(f"u{u}") if tracer else nullcontext():
                result, _, unit_problems = _attempt(workload, inputs, u)
            results.append(result)
            failed += bool(unit_problems)
            problems.extend(f"unit {u}: {p}" for p in unit_problems)
        took = time.perf_counter() - start
    return took, results, failed, problems


def _traced(workload, inputs, seconds: float, spans_path: Path) -> dict:
    """Alternate untraced and traced passes; per-layer metrics per traced pass."""
    pass_s = {"plain": [], "traced": []}
    tracers, layer_runs, count_runs, problems = [], [], [], []
    checksums = set()
    failed = 0
    start = time.perf_counter()
    # stop before a pair of passes would overrun ``seconds``; run at least one
    while not tracers or (time.perf_counter() - start) * (1 + 1 / len(tracers)) < seconds:
        for kind, tracer in (("plain", None), ("traced", spans.Tracer())):
            took, results, bad, found = _pass(workload, inputs, tracer)
            pass_s[kind].append(took)
            failed += bad
            problems.extend(found)
            checksums.add(units.checksum(results) if None not in results else None)
        tracers.append(tracer)
        layer_runs.append(spans.layer_metrics(tracer.spans))
        count_runs.append(workload.counts(inputs, [r for r in results if r is not None]))
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w") as fh:
        for pass_id, tracer in enumerate(tracers):
            tracer.write_jsonl(fh, pass_id)
    return {
        "attempted": 2 * len(tracers) * workload.check_units,
        "failed": failed,
        "problems": problems,
        "units_per_pass": workload.check_units,
        "plain_pass_s": pass_s["plain"],
        "traced_pass_s": pass_s["traced"],
        "layers": layer_runs,
        "counts": count_runs,
        "checksums": sorted(c or "none" for c in checksums),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans": sum(len(t.spans) for t in tracers),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(units.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    package_dir = (ROOT / "src" / "pseudobound").resolve()
    if Path(pb.__file__).resolve().parent != package_dir:
        print(f"pseudobound imported from {pb.__file__}, not {package_dir}",
              file=sys.stderr)
        return 2
    workload = units.WORKLOADS[args.workload]
    inputs, setup_s = _set_up(workload, args.seed)
    out = {"setup_s": setup_s}
    if args.mode == "timed":
        out.update(_timed(workload, inputs, args.seconds))
    elif args.mode == "traced":
        spans_path = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        out.update(_traced(workload, inputs, args.seconds, spans_path))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
