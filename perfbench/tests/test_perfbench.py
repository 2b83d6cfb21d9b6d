"""Tests of the benchmark harness: job generation, output checks, span arithmetic."""
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks, jobs, run, spans  # noqa: E402


def first_cycles(workload, seed, count=3):
    it = jobs.cycles(workload, seed)
    return [next(it) for _ in range(count)]


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_job_list_is_identical_for_equal_seeds(workload):
    assert first_cycles(workload, 7) == first_cycles(workload, 7)
    assert first_cycles(workload, 7) != first_cycles(workload, 8)


def run_cli(job, tmp_path):
    from susypep import cli

    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(job["argv"] + ["--out", str(out)]) == 0
    return out


def rewrite(out_dir, name, text):
    """Replace a file and its manifest checksum, so only the physics checks can object."""
    (out_dir / name).write_text(text, encoding="utf-8")
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    for entry in manifest["files"]:
        if entry["path"] == name:
            entry["sha256"] = hashlib.sha256(text.encode()).hexdigest()
    (out_dir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def test_wrong_eigenvalue_fails_its_check(tmp_path):
    job = jobs.warmup_job("bound-chain")
    out = run_cli(job, tmp_path)
    assert checks.check_job(job, out).ok

    name = "spectrum_deuteron.json"
    data = json.loads((out / name).read_text(encoding="utf-8"))
    data["levels"][1]["numerical_MeV"] *= 1.001
    (out / name).write_text(json.dumps(data), encoding="utf-8")
    reasons = checks.check_job(job, out).reasons
    assert any("sha256" in r for r in reasons)

    rewrite(out, name, json.dumps(data))
    reasons = checks.check_job(job, out).reasons
    assert len(reasons) == 2   # the level itself and kappa = sqrt(-E/c)
    assert any("n=1: eigenvalue vs closed form" in r for r in reasons)


def test_broken_phase_gap_fails_its_check(tmp_path):
    job = jobs.warmup_job("phase-scan")
    out = run_cli(job, tmp_path)
    assert checks.check_job(job, out).ok

    energies, deltas, _ = checks.read_csv(out / "phase_V3.csv", checks.PHASE_HEADER)
    deltas[5] += 0.05
    lines = [checks.PHASE_HEADER] + [
        f"{e:.17g},{d:.17g},{deg:.17g}" for e, d, deg in zip(energies, deltas, np.degrees(deltas))
    ]
    rewrite(out, "phase_V3.csv", "\n".join(lines) + "\n")
    reasons = checks.check_job(job, out).reasons
    assert any("mod pi" in r for r in reasons), reasons


def test_missing_output_is_a_failure_not_a_crash(tmp_path):
    job = jobs.warmup_job("halo-report")
    outcome = checks.check_job(job, tmp_path)
    assert not outcome.ok
    assert outcome.reasons[0].startswith("unreadable output")


def span(id, parent, start, end, layer="solver", name="solve_bound_state"):
    return spans.Span(id, layer, name, parent, "job", start, end)


def test_self_time_subtracts_nested_children():
    tree = [
        span(0, None, 0.0, 10.0, "cli", "main"),
        span(1, 0, 1.0, 4.0),
        span(2, 1, 2.0, 3.0, "kernels", "sweep_outward"),
        span(3, 0, 5.0, 6.0),
    ]
    assert spans.self_times(tree) == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})


def test_self_time_counts_overlapping_children_once():
    tree = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 4.0), span(2, 0, 3.0, 5.0),
            span(3, 0, 9.0, 12.0)]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_layer_busy_time_counts_nested_calls_of_one_layer_once():
    tree = [
        span(0, None, 0.0, 10.0, "transform", "iterate_removals"),
        span(1, 0, 1.0, 5.0, "transform", "remove_lowest"),
        span(2, 1, 2.0, 4.0),
        span(3, 0, 6.0, 9.0, "transform", "remove_lowest"),
    ]
    metrics = spans.layer_metrics(tree, passes=2)
    assert metrics["transform.busy_s"] == pytest.approx(5.0)
    assert metrics["transform.self_s"] == pytest.approx((10 - 7 + 4 - 2 + 3) / 2)
    assert metrics["transform.removals"] == 1.0
    assert metrics["solver.bound_self_s"] == pytest.approx(1.0)


def test_wrappers_reach_every_namespace_and_come_off():
    import susypep.cli
    import susypep.fitting
    import susypep.solver
    import susypep.transform

    original = susypep.solver.solve_bound_state
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = susypep.solver.solve_bound_state
        assert wrapped is not original and wrapped.__wrapped__ is original
        for module in (susypep, susypep.cli, susypep.fitting, susypep.transform):
            assert module.solve_bound_state is wrapped
    finally:
        tracer.uninstall()
    for module in (susypep, susypep.cli, susypep.fitting, susypep.transform, susypep.solver):
        assert module.solve_bound_state is original


def test_benchmark_json_names_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
