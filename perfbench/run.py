"""The hochcap benchmark: three workloads of the public API, checked and timed.

    python3 perfbench/run.py --workload dims --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py                 # every workload, one process each

Load is one single-threaded closed loop: a job starts when the previous
one ends, and the job list repeats while another pass fits in
`--seconds` (it runs at least once).  Each pass ends with the workload's
largest job once more, which doubles its samples.  Every job builds
fresh algebra objects and its answer is checked against frozen values
(workloads.py); a wrong answer or an exception counts as a failed job
and the run goes on.

With `--trace 0` the last line of stdout holds the end-to-end metrics,
medians over the passes of the run:

    wall_s         one pass over the job list (the repeat not included)
    largest_job_s  the workload's largest job (named in workloads.py)
    peak_rss_mb    ru_maxrss of this process
    setup_s        import the package, load the seven shipped JSON
                   descriptions, build their regular bimodules (median
                   of SETUP_REPS fresh imports)

Times are seconds at a fixed host speed: each job's time is scaled by
the host speed sampled while it ran (probe.py).  The unscaled medians are
printed on the line before the result, with the machine, the elimination
lane and the seed; a number is comparable only with numbers of the same
lane.

With `--trace 1` untraced and traced passes alternate, and the last line
holds the per-layer metrics of spans.py, per traced pass and unscaled
(self times include the speed sampler's ticks, under 1% of the time),
with `trace.coverage` (share of traced wall time inside named spans) and
`trace.overhead` (scaled traced over scaled untraced wall time).
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import namedtuple
from pathlib import Path

import probe
import spans
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP_REPS = 15
PACKAGE_MODULES = ("hochcap", "hochcap.zoo", "hochcap.serialize",
                   "hochcap.complexes", "hochcap.cap", "hochcap.axioms")

END_TO_END = (
    ("wall_s", "s"),
    ("largest_job_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def per_layer_names():
    """(name, unit) of every per-layer metric, in output order."""
    return spans.metric_names() + [("trace.coverage", "ratio"), ("trace.overhead", "ratio")]


# -- the package under test ----------------------------------------------------

def _purge_package():
    for name in [k for k in sys.modules if k == "hochcap" or k.startswith("hochcap.")]:
        del sys.modules[name]


def import_package():
    """Import hochcap from this checkout's src/, never from anywhere else."""
    if not (SRC / "hochcap" / "__init__.py").is_file():
        raise RuntimeError(f"no hochcap sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in PACKAGE_MODULES:
        importlib.import_module(name)
    found = Path(sys.modules["hochcap"].__file__).resolve()
    if SRC not in found.parents:
        raise RuntimeError(f"imported hochcap from {found}, not from {SRC}")


def load_zoo():
    """Parse and validate every shipped JSON description, then its regular bimodule."""
    zoo = sys.modules["hochcap.zoo"]
    serialize = sys.modules["hochcap.serialize"]
    for name in zoo.ZOO:
        A, _ = serialize.load(zoo.data_path(name))
        A.regular()


def measure_setup():
    """(scaled, raw) seconds of each set-up, each from a fresh import."""
    intervals = []
    with probe.SpeedSampler() as speed:
        for _ in range(SETUP_REPS):
            _purge_package()
            gc.collect()
            start = speed.mark()
            import_package()
            load_zoo()
            intervals.append((start, speed.mark()))
    return ([speed.scaled(a, b) for a, b in intervals],
            [b[0] - a[0] for a, b in intervals])


def environment(seed):
    try:
        kernels = importlib.import_module("hochcap.kernels")
        lane, compiled = kernels.active_lane(), kernels.compiled_available()
    except (ImportError, AttributeError):  # a package with a single lane
        lane, compiled = "pure", False
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "lane": lane,
        "compiled_available": compiled,
        "seed": seed,
    }


# -- passes --------------------------------------------------------------------

# job_s maps job names to seconds at the reference speed; raw_wall_s is the
# whole pass unscaled, set-up and speed ticks included
Pass = namedtuple("Pass", "job_s failures raw_wall_s")


def run_pass(jobs, with_setup=False):
    """One closed-loop pass over the job list; failures are collected, not raised."""
    gc.collect()
    failures, intervals = [], []
    with probe.SpeedSampler() as speed:
        first = speed.mark()
        if with_setup:
            load_zoo()
        for job in jobs:
            start = speed.mark()
            try:
                job.run()
            except Exception as e:  # a failed job is counted, the run goes on
                failures.append(f"{job.name}: {type(e).__name__}: {e}")
            intervals.append((job.name, start, speed.mark()))
        last = speed.mark()
    job_s = {name: speed.scaled(a, b) for name, a, b in intervals}
    return Pass(job_s, failures, last[0] - first[0])


def repeat(step, seconds):
    """Call step() at least once, and again while another call fits in `seconds`."""
    out = []
    start = time.perf_counter()
    while True:
        out.append(step())
        elapsed = time.perf_counter() - start
        if elapsed * (len(out) + 1) / len(out) > seconds:
            return out


def measure(jobs, seconds, largest):
    again = f"{largest} again"
    extra = [workloads.Job(again, j.run) for j in jobs if j.name == largest]
    passes = repeat(lambda: run_pass(jobs + extra), seconds)
    metrics = {
        "wall_s": statistics.median(
            sum(p.job_s.values()) - p.job_s[again] for p in passes),
        "largest_job_s": statistics.median(
            p.job_s[name] for p in passes for name in (largest, again)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return passes, metrics


def measure_traced(jobs, seconds):
    """Alternate untraced and traced passes; per-layer metrics per traced pass."""
    tracer = spans.Tracer()
    plain, traced, missing = [], [], []

    def pair():
        plain.append(run_pass(jobs, with_setup=True))
        missing[:] = tracer.install()
        try:
            traced.append(run_pass(jobs, with_setup=True))
        finally:
            tracer.uninstall()

    repeat(pair, seconds)
    if missing:
        print(f"perfbench: no span for {', '.join(missing)}", file=sys.stderr)
    for name, err in tracer.hook_errors.items():
        print(f"perfbench: counters of {name} failed: {err}", file=sys.stderr)

    metrics = tracer.metrics(len(traced))
    metrics["trace.coverage"] = tracer.covered_s / sum(p.raw_wall_s for p in traced)
    metrics["trace.overhead"] = (sum(sum(p.job_s.values()) for p in traced)
                                 / sum(sum(p.job_s.values()) for p in plain))
    return plain + traced, metrics


def run_workload(args):
    try:
        setup_times, setup_raw = measure_setup()
    except (RuntimeError, ImportError) as e:
        print(f"perfbench: cannot set up hochcap: {e}", file=sys.stderr)
        return 2
    make_jobs, largest = workloads.WORKLOADS[args.workload]
    jobs = make_jobs(args.seed)
    if args.trace:
        passes, metrics = measure_traced(jobs, args.seconds)
        units = dict(per_layer_names())
    else:
        passes, metrics = measure(jobs, args.seconds, largest)
        metrics["setup_s"] = statistics.median(setup_times)
        units = dict(END_TO_END)

    failures = [f for p in passes for f in p.failures]
    for f in failures:
        print(f"perfbench: FAILED {f}", file=sys.stderr)
    env = environment(args.seed)
    env.update(
        workload=args.workload, trace=args.trace, passes=len(passes),
        raw={"pass_s": statistics.median(p.raw_wall_s for p in passes),
             "setup_s": statistics.median(setup_raw)},
        job_s={j.name: statistics.median(p.job_s[j.name] for p in passes) for j in jobs},
    )
    print(json.dumps({"env": env}))
    attempted = sum(len(p.job_s) for p in passes)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def run_all(args):
    """Each workload in its own fresh process; prints one table and one result."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        print(f"{name}: failed_ratio {result['failed'] / result['attempted']:.4g} "
              f"({result['failed']}/{result['attempted']} jobs)")
        for metric, m in result["metrics"].items():
            print(f"{name}: {metric} {m['value']:.6g} {m['unit']}")
            merged["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(merged))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
