"""The benchmark's own tests: reduced-size smoke runs and a gate that fails closed.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import probe
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent

SMALL_DIMS = (("dual_numbers", 5), ("f2_c2", 5))
SMALL_VERIFY = {"rationals": (43, 0), "dual_numbers": (50, 2)}
SMALL_CAP = (("upper_triangular", 4),)  # its grid digest is the frozen one
SMALL_DIAGONAL = (("dual_numbers", 2),)


@pytest.fixture(scope="module", autouse=True)
def package():
    run.import_package()


def small_jobs(name, **over):
    if name == "dims":
        return workloads.dims_jobs(1, plan=SMALL_DIMS, **over)
    if name == "verify":
        return workloads.verify_jobs(1, table=over.get("table", SMALL_VERIFY))
    return workloads.products_jobs(
        1, plan=SMALL_CAP, diagonal=SMALL_DIAGONAL,
        digests=over.get("digests", workloads.CAP_DIGESTS), pairs=1)


@pytest.mark.parametrize("name", ["dims", "verify", "products"])
def test_smoke_run_passes_the_gate(name):
    p = run.run_pass(small_jobs(name))
    assert p.failures == []
    assert len(p.job_s) == len(small_jobs(name))
    assert all(t > 0 for t in p.job_s.values()) and p.raw_wall_s > 0


def test_forged_dimension_table_fails_the_job():
    table = dict(workloads.DIMS_TABLE)
    table["dual_numbers", "homology"] = (2, 2)
    p = run.run_pass(small_jobs("dims", table=table))
    assert [f.split(":", 1)[0] for f in p.failures] == ["homology"]
    assert "dual_numbers" in p.failures[0] and "GateFailure" in p.failures[0]


def test_perturbed_grid_digest_fails_the_job():
    digests = dict(workloads.CAP_DIGESTS)
    good = digests["upper_triangular"]
    digests["upper_triangular"] = good[:-1] + ("0" if good[-1] != "0" else "1")
    p = run.run_pass(small_jobs("products", digests=digests))
    assert len(p.failures) == 1 and "grid digest" in p.failures[0]


def test_wrong_suite_count_fails_the_job():
    p = run.run_pass(small_jobs("verify", table={"dual_numbers": (50, 0)}))
    assert len(p.failures) == 1 and "verify:dual_numbers" in p.failures[0]


def test_exception_counts_as_failure_and_the_pass_goes_on():
    def boom():
        raise ZeroDivisionError("forged")

    jobs = [workloads.Job("boom", boom)] + small_jobs("verify")
    p = run.run_pass(jobs)
    assert p.failures == ["boom: ZeroDivisionError: forged"]
    assert set(p.job_s) == {j.name for j in jobs}


def test_largest_job_is_in_its_workload():
    for make, largest in workloads.WORKLOADS.values():
        assert largest in {j.name for j in make(1)}


def test_tracer_wraps_every_binding_and_restores_it():
    import hochcap.complexes
    import hochcap.linalg

    orig = hochcap.linalg.kernel_basis
    orig_reduce = hochcap.linalg.SubquotientSpace.coset_reduce
    tracer = spans.Tracer()
    missing = tracer.install()
    try:
        assert missing == []
        assert hochcap.complexes.kernel_basis is hochcap.linalg.kernel_basis
        assert hochcap.complexes.kernel_basis.__wrapped__ is orig
        assert hochcap.linalg.SubquotientSpace.coset_reduce.__wrapped__ is orig_reduce
    finally:
        tracer.uninstall()
    assert hochcap.complexes.kernel_basis is orig
    assert hochcap.linalg.SubquotientSpace.coset_reduce is orig_reduce


def test_failing_counter_hook_never_reaches_the_program():
    tracer = spans.Tracer()
    result = object()
    wrapped = tracer.wrap("kernels.build_rref", lambda *args: result)
    assert wrapped(None, [], 0) is result
    assert "kernels.build_rref" in tracer.hook_errors
    assert tracer.stats["kernels.build_rref"]["calls"] == 1


def test_speed_sampler_scales_by_the_ticks_inside_the_interval():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with probe.SpeedSampler() as speed:
        start = speed.mark()
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
        end = speed.mark()
    assert signal.getsignal(signal.SIGALRM) == before
    assert end[2] - start[2] >= 5
    raw = end[0] - start[0] - (end[1] - start[1])
    mean_tick = (end[1] - start[1]) / (end[2] - start[2])
    assert speed.scaled(start, end) == pytest.approx(raw * probe.REFERENCE_S / mean_tick)


def test_traced_run_covers_wall_time_and_reports_every_layer():
    passes, metrics = run.measure_traced(small_jobs("dims"), seconds=0)
    assert all(not p.failures for p in passes)
    assert [n for n, _ in run.per_layer_names()] == list(metrics)
    assert metrics["trace.coverage"] > 0.95
    assert metrics["kernels.build_rref.calls"] > 0
    assert 0 < metrics["complexes.boundary_matrix.cache_hit_ratio"] < 1
    # self times of nested spans never exceed the traced wall time
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_total <= passes[-1].raw_wall_s


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_result_line_format():
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "verify",
         "--seed", "5", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=120,
    ).stdout.splitlines()
    env, result = json.loads(out[-2])["env"], json.loads(out[-1])
    assert env["seed"] == 5 and env["lane"] in ("pure", "compiled")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # seven suites, then the largest once more
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 8
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dims", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
