"""Tests of the benchmark harness itself: span arithmetic, binding restore,
tracing transparency and agreement with BENCHMARK.json."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pseudobound as pb  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import units  # noqa: E402
from spans import Span  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _synthetic_tree():
    # unit [0, 10] > mmd_squared [1, 6] > median [2, 5]; erm [7, 9] under unit
    return [
        Span("unit", 0.0, 10.0, None, "u0", 0),
        Span("discrepancy.mmd_squared", 1.0, 6.0, 0, "u0", 40),
        Span("discrepancy.median_heuristic_bandwidth", 2.0, 5.0, 1, "u0", 80),
        Span("stumps.erm", 7.0, 9.0, 0, "u0", 100, failed=True),
    ]


def test_self_times_subtract_child_spans():
    assert spans.self_times(_synthetic_tree()) == [3.0, 2.0, 3.0, 2.0]
    # overlapping children are counted once; a child sticking out is clipped
    tree = [Span("unit", 0.0, 10.0, None, "u0", 0),
            Span("stumps.erm", 1.0, 4.0, 0, "u0", 1),
            Span("stumps.erm", 3.0, 6.0, 0, "u0", 1),
            Span("stumps.erm", 9.0, 12.0, 0, "u0", 1)]
    assert spans.self_times(tree)[0] == pytest.approx(4.0)


def test_layer_metrics_sum_per_function():
    m = spans.layer_metrics(_synthetic_tree())
    assert m["discrepancy.mmd_squared.calls"] == 1
    assert m["discrepancy.mmd_squared.points"] == 40
    assert m["discrepancy.mmd_squared.self_s"] == 2.0
    assert m["discrepancy.median_heuristic_bandwidth.self_s"] == 3.0
    assert m["stumps.erm.failed"] == 1
    assert m["unit.self_s"] == 3.0
    assert m["domains.draw_pair_process.calls"] == 0


def _bindings():
    return {(name, attr): value
            for name, module in sorted(sys.modules.items())
            if name == "pseudobound" or name.startswith("pseudobound.")
            for attr, value in vars(module).items()}


@pytest.fixture(scope="module")
def selflearn_unit():
    """Unit 0 of selflearn, untraced and traced, with bindings around it."""
    workload = units.WORKLOADS["selflearn"]
    inputs = workload.build(0)
    before = _bindings()
    plain = workload.run(inputs, 0)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        rebound = pb.run_self_learning is not before[("pseudobound", "run_self_learning")]
        with tracer.unit("u0"):
            traced = workload.run(inputs, 0)
    return before, _bindings(), plain, traced, tracer, rebound


def test_traced_run_restores_every_binding(selflearn_unit):
    before, after, _, _, tracer, rebound = selflearn_unit
    assert rebound
    assert any(s.name == "discrepancy.mmd_squared" for s in tracer.spans)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    # an exception inside the traced block restores them too
    with pytest.raises(RuntimeError):
        with spans.installed(spans.Tracer()):
            assert pb.discrepancy.mmd_squared is not before[
                ("pseudobound.discrepancy", "mmd_squared")]
            raise RuntimeError
    assert all(_bindings()[k] is before[k] for k in before)


def test_traced_unit_checksum_matches_untraced(selflearn_unit):
    _, _, plain, traced, tracer, _ = selflearn_unit
    assert units.checksum([traced]) == units.checksum([plain])
    assert {s.trace_id for s in tracer.spans} == {"u0"}


def test_reported_metric_names_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    zeros = spans.layer_metrics([])
    out = {"layers": [zeros], "counts": [dict.fromkeys(units.COUNTS, 0)],
           "units_per_pass": 1, "plain_pass_s": [1.0], "traced_pass_s": [2.0]}
    metrics, repeatable = run.layer_metrics(out)
    assert repeatable
    assert [m["name"] for m in declared["per_layer"]] == list(metrics)
    assert all(metrics[m["name"]]["unit"] == m["unit"] for m in declared["per_layer"])
    assert [w["name"] for w in declared["workloads"]] == list(units.WORKLOADS)
    assert run.WORKLOADS == tuple(units.WORKLOADS)


def test_tail_has_ten_samples_beyond():
    value, percentile, beyond = run.tail([float(x) for x in range(40, 0, -1)])
    assert (value, percentile, beyond) == (30.0, 75.0, 10)
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


def test_seconds_outside_worker_timeout_is_refused():
    assert run.RUN_SECONDS == json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    for seconds in ("0", str(run.MAX_SECONDS + 1)):
        with pytest.raises(SystemExit) as exc:
            run.main(["--seconds", seconds])
        assert exc.value.code == 2
