#!/usr/bin/env python3
"""End-to-end benchmark of the ``susypep`` command line.

Usage:
    python3 perfbench/run.py --workload {phase-scan,bound-chain,halo-report}
        --seed N --seconds S --trace {0,1}

One single-threaded process drives a closed loop with one client: it calls
``susypep.cli.main(argv)`` in-process, one job after another, each job
writing into a fresh output directory. Outside the timed region every job's
files are checked (``checks.py``). Jobs come from ``jobs.py``, seeded by
``--seed``. Runs stop at a cycle boundary near ``--seconds`` of job time.

``--trace 0`` reports the end-to-end metrics. Their times are *paced*: a
fixed plain-Python probe runs around every job, and each job time is scaled
by the probe's nominal duration over the median probe around that job, so
the drift of a shared machine's speed cancels while a change in the
program's own speed does not. The unscaled figures are kept in the record
under ``unpaced``. ``--trace 1`` runs passes over
one cycle of jobs, each pass once untraced and once with spans around every
layer, and reports the per-layer metrics, the standalone kernel rate and the
tracing overhead. Both print provenance and failures first and one JSON
result as the last line, and write the full run record (and, traced, the
spans) under ``.perfbench/results/`` in the checkout.
"""
import argparse
import contextlib
import hashlib
import importlib
import io
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# one process, one thread: keep numpy's thread pools from starting
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(ROOT))
from perfbench import checks, jobs, spans  # noqa: E402

SETUP_REPEATS = 5
# Highest percentile with at least ten jobs beyond it at the measured job
# counts (36-48, 50-80 and 18-30 jobs per 30 s run); it sits inside one block
# of equally expensive jobs, so it does not jump with the cycle count.
TAIL_PERCENTILE = {"phase-scan": 72, "bound-chain": 83, "halo-report": 58}
# Pace probe: a fixed pure-Python recurrence run before and after every job.
# A shared machine's speed for interpreted code drifts by 15-40 % over tens
# of seconds, so job times are scaled to the probe's nominal duration, using
# the median probe of the PROBE_WINDOW jobs on either side of each one.
PROBE_POINTS = 2500
PROBE_REPEATS = 24
PROBE_NOMINAL_S = 0.008
PROBE_WINDOW = 3
KERNEL_REF_POINTS = 3500      # deuteron mesh: 0.01 fm to 35 fm
KERNEL_REF_BLOCK_S = 0.2
KERNEL_REF_BLOCKS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "kernels.calls": "count",
    "kernels.steps": "count",
    "kernels.busy_s": "s",
    "kernels.msteps_per_s": "Msteps/s",
    "kernels.rescaled_calls": "count",
    "kernels.bytes_computed": "bytes",
    "kernels.standalone_msteps_per_s": "Msteps/s",
    "kernels.efficiency": "ratio",
    "solver.bound_solves": "count",
    "solver.sweeps_per_solve": "count",
    "solver.bound_busy_s": "s",
    "solver.bound_self_s": "s",
    "solver.energy_solves": "count",
    "solver.count_calls": "count",
    "solver.errors": "count",
    "observables.curves": "count",
    "observables.energies": "count",
    "observables.curve_busy_s": "s",
    "observables.s_per_energy": "s",
    "observables.sweeps_per_energy": "count",
    "observables.self_s": "s",
    "transform.removals": "count",
    "transform.busy_s": "s",
    "transform.self_s": "s",
    "fitting.fits": "count",
    "fitting.iterations": "count",
    "fitting.solves_per_fit": "count",
    "fitting.busy_s": "s",
    "io.files": "count",
    "io.bytes": "bytes",
    "io.busy_s": "s",
    "io.mb_per_s": "MB/s",
    "cli.jobs": "count",
    "cli.self_s": "s",
    "cli.bound_solves_per_job": "count",
    "cli.runtime_warnings": "count",
    "cli.log_warnings": "count",
    "trace.overhead_frac": "ratio",
    "trace.jobs_per_s": "1/s",
    "trace.untraced_jobs_per_s": "1/s",
}


class LogCounter(logging.Handler):
    """Counts ``susypep`` log warnings. Installed on the root logger before
    the first job, so the CLI's ``basicConfig`` adds no stderr handler."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if record.name.startswith("susypep"):
            self.count += 1


def run_job(cli, job, work: Path, logs: LogCounter) -> dict:
    """Run one job in a fresh directory, time ``main`` alone, then check it."""
    job_dir = Path(tempfile.mkdtemp(prefix="job-", dir=work))
    out_dir = job_dir / "out"
    argv = list(job["argv"])
    if job["config"] is not None:
        config = job_dir / "system.cfg"
        config.write_text(jobs.config_text(job["config"]), encoding="utf-8")
        argv = [str(config) if arg == "{config}" else arg for arg in argv]
    argv += ["--out", str(out_dir)]
    before = probe()
    sink = io.StringIO()
    logs_before = logs.count
    error = None
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crashing job is a failed job; the run goes on
            code, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    reasons = []
    worst = {}
    if error is not None:
        reasons.append(f"exception {error}")
    elif code != 0:
        reasons.append(f"exit code {code}: {sink.getvalue().strip()[-300:]}")
    else:
        outcome = checks.check_job(job, out_dir)
        reasons, worst = outcome.reasons, outcome.worst
    shutil.rmtree(job_dir)
    after = probe()
    return {
        "id": job["id"] if "id" in job else "warmup",
        "argv": job["argv"],
        "seconds": elapsed,
        "probes_s": (before, after),
        "ok": not reasons,
        "reasons": reasons,
        "runtime_warnings": sum(issubclass(w.category, RuntimeWarning) for w in caught),
        "log_warnings": logs.count - logs_before,
        "worst": worst,
    }


def probe() -> float:
    """Seconds for a fixed three-term recurrence in plain Python.

    It calls nothing in ``susypep``, so a change to the program cannot move
    it; it moves only with how fast the host runs Python at the moment."""
    t = 0.01**2 / 12.0 * -0.5
    a = [1.0 - t] * PROBE_POINTS
    b = [2.0 + 10.0 * t] * PROBE_POINTS
    start = time.perf_counter()
    for _ in range(PROBE_REPEATS):
        u0, u1 = 0.0, 1e-3
        for i in range(1, PROBE_POINTS - 1):
            u0, u1 = u1, (b[i] * u1 - a[i - 1] * u0) / a[i + 1]
    return time.perf_counter() - start


def paced(records, key="seconds"):
    """Times scaled to the nominal pace by the median probe around each one."""
    out = []
    for i, record in enumerate(records):
        near = records[max(0, i - PROBE_WINDOW): i + PROBE_WINDOW + 1]
        pace = statistics.median(p for r in near for p in r["probes_s"])
        out.append(record[key] * PROBE_NOMINAL_S / pace)
    return out


def timed_setup(workload, work, logs):
    """Import ``susypep`` afresh and run one warm-up job; returns (s, cli, record)."""
    for name in [m for m in sys.modules if m == "susypep" or m.startswith("susypep.")]:
        del sys.modules[name]
    start = time.perf_counter()
    cli = importlib.import_module("susypep.cli")
    imported = time.perf_counter() - start
    record = run_job(cli, jobs.warmup_job(workload), work, logs)
    return imported + record["seconds"], cli, record


def measure(cli, workload, seed, seconds, work, logs):
    """Whole cycles until the job time reaches ``seconds`` (nearest boundary)."""
    records, cycle_times = [], []
    for cycle in jobs.cycles(workload, seed):
        done = [run_job(cli, job, work, logs) for job in cycle]
        records += done
        cycle_times.append(sum(r["seconds"] for r in done))
        if sum(cycle_times) + 0.5 * statistics.fmean(cycle_times) >= seconds:
            return records


def measure_traced(cli, workload, seed, seconds, work, logs):
    """Passes over one cycle, each untraced then traced; spans from the latter.

    Returns the job records in the order they ran, each marked ``traced``."""
    cycle = next(jobs.cycles(workload, seed))
    tracer = spans.Tracer()
    records = []
    passes = 0
    while True:
        records += [dict(run_job(cli, job, work, logs), traced=False) for job in cycle]
        tracer.install()
        try:
            for job in cycle:
                tracer.job = f"p{passes}:{job['id']}"
                records.append(dict(run_job(cli, job, work, logs), traced=True))
        finally:
            tracer.uninstall()
        passes += 1
        spent = sum(r["seconds"] for r in records)
        if spent + 0.5 * spent / passes >= seconds:
            return records, tracer, passes


def kernel_reference():
    """Standalone ``sweep_outward`` rates (Msteps/s) on the deuteron mesh, per
    backend: one per block of KERNEL_REF_BLOCK_S seconds."""
    import numpy as np

    from susypep._kernels import BACKEND, _numerov_py

    impls = {"python": _numerov_py}
    try:
        from susypep._kernels import _numerov_cy
        impls["cython"] = _numerov_cy
    except ImportError:
        pass
    step, c = 0.01, 41.47
    r = step * np.arange(1, KERNEL_REF_POINTS + 1)
    v = -c * 3.146 * 4.146 * 1.587**2 / np.cosh(1.587 * r) ** 2
    f = (v - 5.0) / c
    stop = KERNEL_REF_POINTS - 1
    rates = {}
    for name, impl in impls.items():
        impl.sweep_outward(f, step, 0.01, 0.02, stop)
        blocks = []
        for _ in range(KERNEL_REF_BLOCKS):
            calls, start = 0, time.perf_counter()
            while time.perf_counter() - start < KERNEL_REF_BLOCK_S:
                impl.sweep_outward(f, step, 0.01, 0.02, stop)
                calls += 1
            blocks.append(calls * stop / (time.perf_counter() - start) / 1e6)
        rates[name] = blocks
    return BACKEND, rates


def calibration():
    """Sweeps and steps of single library calls on the default grid (ROADMAP 1)."""
    import numpy as np
    import susypep as sp

    tracer = spans.Tracer()
    grid = sp.default_grid()
    calls = []
    for name in ("deuteron", "be11", "alpha"):
        preset = sp.get_preset(name)
        if preset.canonical_a_tilde is None:
            fit = sp.fit_parameters(preset, grid=grid)
            pair = (fit.a_tilde, fit.beta)
        else:
            pair = (preset.canonical_a_tilde, preset.canonical_beta)
        potential = sp.SechSquared(*pair, preset.channel.hbar2_over_2mu)
        calls.append((f"solve_bound_state {name} n=0", lambda p=potential, ch=preset.channel:
                      sp.solve_bound_state(p, ch, 0, grid=grid)))
    deuteron = sp.get_preset("deuteron")
    v1 = sp.SechSquared(3.146, 1.587, deuteron.channel.hbar2_over_2mu)
    calls.append(("phase_shift_curve deuteron V1, 200 energies", lambda: sp.phase_shift_curve(
        v1, deuteron.channel, 0.1 + 0.1 * np.arange(200), grid=grid)))
    out = {}
    tracer.install()
    try:
        for label, call in calls:
            first = len(tracer.spans)
            call()
            sweeps = [s for s in tracer.spans[first:] if s.layer == "kernels"]
            out[label] = {
                "outward": sum(s.name == "sweep_outward" for s in sweeps),
                "inward": sum(s.name == "sweep_inward" for s in sweeps),
                "steps": sum(s.steps for s in sweeps),
            }
    finally:
        tracer.uninstall()
    return out


def git_commit(root: Path):
    """HEAD commit read from ``.git`` without running git; None outside a repo."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest(package: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*")):
        if path.suffix in (".py", ".pyx") and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(package)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, cli):
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": sys.modules["susypep"].BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(SRC / "susypep"),
        "susypep_file": cli.__file__,
    }


def summarize_jobs(records):
    failures = [r for r in records if not r["ok"]]
    worst = {}
    for r in records:
        for name, value in r["worst"].items():
            worst[name] = max(worst.get(name, 0.0), value)
    return {
        "attempted": len(records),
        "failed": len(failures),
        "failed_frac": len(failures) / len(records),
        "runtime_warnings": sum(r["runtime_warnings"] for r in records),
        "log_warnings": sum(r["log_warnings"] for r in records),
        "worst_deviation": worst,
        "failures": [{"id": r["id"], "argv": r["argv"], "reasons": r["reasons"]}
                     for r in failures],
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "susypep" / "__init__.py").is_file():
        print(f"perfbench: no susypep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    (WORK / "results").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    logs = LogCounter()
    logging.getLogger().addHandler(logs)
    try:
        setups = [timed_setup(args.workload, work, logs) for _ in range(SETUP_REPEATS)]
        cli = setups[-1][1]
        if Path(cli.__file__).resolve().parents[2] != ROOT:
            print(f"perfbench: imported susypep from {cli.__file__}, not {SRC}", file=sys.stderr)
            return 2
        warmups = [s[2] for s in setups]
        prov = provenance(args, cli)
        if args.trace:
            # the standalone rate is taken before and after the passes, so it
            # sees the same machine speed as the traced jobs
            backend, before = kernel_reference()
            records, tracer, passes = measure_traced(
                cli, args.workload, args.seed, args.seconds, work, logs)
            after = kernel_reference()[1]
            rates = {name: statistics.median(before[name] + after[name]) for name in before}
            times = paced(records)
            traced = [r for r in records if r["traced"]]
            metrics = spans.layer_metrics(tracer.spans, passes)
            calib = calibration()
            plain_rate, traced_rate = (
                len(picked) / sum(picked) for picked in
                ([t for t, r in zip(times, records) if r["traced"] == flag] for flag in (0, 1)))
            metrics.update({
                "kernels.standalone_msteps_per_s": rates[backend],
                "kernels.efficiency": metrics["kernels.msteps_per_s"] / rates[backend],
                "cli.runtime_warnings": sum(r["runtime_warnings"] for r in traced) / passes,
                "cli.log_warnings": sum(r["log_warnings"] for r in traced) / passes,
                "trace.overhead_frac": plain_rate / traced_rate - 1.0,
                "trace.jobs_per_s": traced_rate,
                "trace.untraced_jobs_per_s": plain_rate,
            })
            units = PER_LAYER_UNITS
            extra = {"passes": passes, "jobs_per_pass": len(traced) // passes,
                     "standalone_msteps_per_s": rates, "calibration": calib}
            spans_path = WORK / "results" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.dump(spans_path)
            extra["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            records = measure(cli, args.workload, args.seed, args.seconds, work, logs)
            raw = [r["seconds"] for r in records]
            times = paced(records)
            setup = paced([dict(s[2], setup_s=s[0]) for s in setups], "setup_s")
            q = TAIL_PERCENTILE[args.workload]

            def tail(values):
                return statistics.quantiles(values, n=100, method="inclusive")[q - 1]

            metrics = {
                "setup_s": statistics.median(setup),
                "jobs_per_s": len(times) / sum(times),
                "job_p50_s": statistics.median(times),
                "job_tail_s": tail(times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END_UNITS
            extra = {"tail_percentile": q, "jobs": len(times),
                     "jobs_beyond_tail": sum(t > metrics["job_tail_s"] for t in times),
                     "setup_samples_s": setup,
                     "unpaced": {"setup_s": statistics.median(s[0] for s in setups),
                                 "jobs_per_s": len(raw) / sum(raw),
                                 "job_p50_s": statistics.median(raw),
                                 "job_tail_s": tail(raw)}}
    finally:
        logging.getLogger().removeHandler(logs)
        shutil.rmtree(work, ignore_errors=True)

    summary = summarize_jobs(records)
    warmup_failures = [r for r in warmups if not r["ok"]]
    correct = summary["failed"] == 0 and not warmup_failures
    record = {
        "provenance": prov,
        "correct": correct,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        **extra,
        **summary,
        "warmup_failures": [r["reasons"] for r in warmup_failures],
        "job_list": [{"id": r["id"], "argv": r["argv"], "seconds": r["seconds"],
                      "probes_s": r["probes_s"]}
                     for r in records],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK / "results" / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("provenance " + json.dumps(prov, sort_keys=True))
    print("jobs " + json.dumps({k: v for k, v in summary.items() if k != "failures"}))
    print("run " + json.dumps(extra))
    for failure in summary["failures"][:20] + [{"id": "warmup", "argv": [], "reasons": r}
                                               for r in record["warmup_failures"]]:
        print(f"FAILED {failure['id']} {' '.join(failure['argv'])}: {'; '.join(failure['reasons'])}")
    print(f"record {Path('.perfbench') / 'results' / name}")
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
