"""Workloads, timed and traced runs, and the report of the sosdw benchmark.

``run.py`` is the entry point: it pins BLAS threads to one and puts the
checkout's ``src`` first on the import path before importing this module.
See README.md for the workloads and every metric.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

import mpmath
import numpy

import sosdw
from sosdw import cli, contour, core, sampling, verify

import reference
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# The program's own agreement gate, as used by `sosdw compute`.
AGREEMENT = cli.DEFAULT_TOLERANCES["route_agreement"]
VERIFY_DRAWS = 20
SETUP_REPEATS = 3
IMPORT_PROBES = 5
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
PROCESS_TIMEOUT_S = 120

# Public route functions, looked up at call time so that traced runs see
# the wrappers installed by tracing.install.
ROUTE_FUNCTIONS = {
    "face": ("face_model", "enumerate_partition"),
    "algebra": ("yb_algebra", "partition_algebraic"),
    "permutation": ("closed_form", "partition_permutation_sum"),
    "residue": ("contour", "partition_residue"),
    "quadrature": ("contour", "partition_quadrature"),
}

# Domain-wall configuration counts (the alternating sign matrix numbers).
CONFIGS = {1: 1, 2: 2, 3: 7, 4: 42, 5: 429}


@dataclass(frozen=True)
class Workload:
    name: str
    L: int | None  # None: the verify suites choose their own sizes
    routes: tuple
    pool: int  # distinct jobs drawn per run
    traced: int  # leading jobs of the pool that the traced run repeats


WORKLOADS = {
    w.name: w for w in (
        Workload("crosscheck_L5", 5,
                 ("face", "algebra", "permutation", "residue"), 24, 6),
        Workload("crosscheck_L8", 8, ("algebra", "permutation", "residue"),
                 3, 1),
        Workload("verify_all", None, (), 24, 3),
    )
}


@dataclass
class Job:
    index: int
    path: Path
    params: core.ModelParams | None = None
    lambdas: tuple = ()
    seed: int = 0  # suite seed for verify passes


class Ledger:
    """Operations attempted and failed, and correctness problems seen."""

    SHOWN = 20  # messages kept of each kind

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.problems = []

    def op(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if what and len(self.failures) < self.SHOWN:
                self.failures.append(what)

    def problem(self, text: str) -> None:
        if len(self.problems) < self.SHOWN:
            self.problems.append(text)


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "load": "one serial benchmark process; child processes one at a time",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "not_controlled": "CPU frequency, CPU pinning, page cache",
    }


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def peak_rss_mb(pid="self") -> float:
    """Peak resident memory (VmHWM) of a live process, 0.0 once it is gone.

    ``ru_maxrss`` is not used: Linux carries the parent's high-water mark
    across fork and exec, so it would report the larger of the two.
    """
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


class ChildPeak:
    """Largest peak resident memory seen in the watched child processes."""

    POLL_S = 0.005

    def __init__(self):
        self.mb = 0.0

    def watch(self, pid, done: threading.Event) -> None:
        while not done.wait(self.POLL_S):
            self.mb = max(self.mb, peak_rss_mb(pid))


def children_cpu() -> float:
    """CPU seconds used so far by the reaped child processes."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_child(args, peak: ChildPeak | None = None) -> tuple:
    """Run one child process to completion.

    Returns (seconds, CPU seconds of the child, completed).  Children run
    one at a time, so the growth of the reaped children's CPU time is this
    child's.  With ``peak``, a thread samples the child's peak resident
    memory while the main thread waits for it.
    """
    c0 = children_cpu()
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        done = threading.Event()
        watcher = None
        if peak is not None:
            watcher = threading.Thread(target=peak.watch, args=(proc.pid, done))
            watcher.start()
        try:
            out, err = proc.communicate(timeout=PROCESS_TIMEOUT_S)
        finally:
            done.set()
            if watcher is not None:
                watcher.join()
    dt = perf_counter() - t0
    return dt, children_cpu() - c0, subprocess.CompletedProcess(
        proc.args, proc.returncode, out, err)


def import_seconds(module: str) -> tuple:
    """Wall and CPU seconds to import ``module`` in a fresh interpreter.

    Interpreter start is excluded.
    """
    code = ("import time; t = time.perf_counter(); c = time.process_time(); "
            "import " + module + "; "
            "print(time.perf_counter() - t, time.process_time() - c)")
    _, _, proc = run_child(["-c", code])
    if proc.returncode != 0:
        raise RuntimeError(f"importing {module} failed: {proc.stderr.strip()}")
    wall, cpu = proc.stdout.split()
    return float(wall), float(cpu)


# ---- inputs -----------------------------------------------------------------


def _contour_ok(params, lambdas) -> bool:
    """The quadrature route's own check of its automatic contour."""
    try:
        contour.check_contour(contour.auto_contour(lambdas), lambdas)
    except core.ValidationError:
        return False
    return True


def _cjson(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def make_jobs(workload: Workload, seed: int) -> list:
    """Draw the workload's jobs from ``seed`` and write them as job files.

    Draws are kept only when the program's validators accept them for
    every route of the workload; timing and accuracy play no part.
    """
    folder = OUT / "jobs" / workload.name
    folder.mkdir(parents=True, exist_ok=True)
    jobs = []
    if workload.L is None:
        for i in range(workload.pool):
            job = Job(i, folder / f"pass_{i:03d}.json", seed=seed * 1000 + i)
            doc = {"suites": list(verify.SUITE_NAMES), "seed": job.seed,
                   "draws": VERIFY_DRAWS}
            jobs.append(job)
            job.path.write_text(json.dumps(doc, allow_nan=False) + "\n")
        return jobs
    rng = random.Random(seed * 1000 + workload.L)
    predicate = _contour_ok if "quadrature" in workload.routes else None
    for i in range(workload.pool):
        params, lambdas = sampling.draw_model(
            rng, workload.L, routes=workload.routes, predicate=predicate)
        job = Job(i, folder / f"job_{i:03d}.json", params, tuple(lambdas))
        doc = {"L": params.L, "gamma": _cjson(params.gamma),
               "theta": _cjson(params.theta),
               "mu": [_cjson(m) for m in params.mu],
               "lambda": [_cjson(z) for z in lambdas],
               "routes": list(workload.routes), "seed": seed}
        job.path.write_text(json.dumps(doc, allow_nan=False) + "\n")
        jobs.append(job)
    return jobs


def setup(workload: Workload, seed: int, repeats: int):
    """Import, draw and write the jobs, and run one warm-up job; ``repeats`` times.

    Repetition k warms up on job k, so that no single draw decides the
    median.  Returns the jobs, and the wall and the CPU time of each
    repetition.
    """
    times, cpu_times = [], []
    for k in range(repeats):
        imported, imported_cpu = import_seconds("sosdw")
        t0, c0 = perf_counter(), process_time()
        jobs = make_jobs(workload, seed)
        attempt(workload, jobs[k % len(jobs)], Ledger())  # warm-up, not counted
        times.append(imported + perf_counter() - t0)
        cpu_times.append(imported_cpu + process_time() - c0)
    return jobs, times, cpu_times


# ---- one job ----------------------------------------------------------------


def run_in_process(workload: Workload, job: Job):
    """One job through the library API.

    Crosscheck: ({route: value}, {route: seconds}).  Verify: ({suite:
    report}, {suite: seconds}), where a suite that raised has the
    exception as its report, so that the other suites still run.
    """
    out, times = {}, {}
    if workload.L is None:
        for suite in verify.SUITE_NAMES:
            t0 = perf_counter()
            try:
                out[suite] = verify.run_suite(suite, job.seed, VERIFY_DRAWS)
            except Exception as exc:  # noqa: BLE001 - counted by attempt
                out[suite] = exc
            times[suite] = perf_counter() - t0
        return out, times
    for route in workload.routes:
        module, name = ROUTE_FUNCTIONS[route]
        fn = getattr(getattr(sosdw, module), name)
        t0 = perf_counter()
        out[route] = fn(job.params, job.lambdas)
        times[route] = perf_counter() - t0
    return out, times


def suite_passed(report) -> bool:
    return not isinstance(report, Exception) and report.passed


def suite_text(report) -> str:
    return repr(report) if isinstance(report, Exception) else report.render()


def relative_deviation(za: complex, zb: complex) -> float:
    """The pairwise deviation `sosdw compute` reports."""
    scale = max(abs(za), abs(zb))
    return abs(za - zb) / scale if scale > 0 else 0.0


def max_deviation(values: dict) -> float:
    names = list(values)
    return max((relative_deviation(values[a], values[b])
                for i, a in enumerate(names) for b in names[i + 1:]),
               default=0.0)


def in_process_ok(workload: Workload, result) -> bool:
    if workload.L is None:
        return all(suite_passed(report) for report in result.values())
    return max_deviation(result) < AGREEMENT


def attempt(workload: Workload, job: Job, ledger: Ledger):
    """Run one job in process and count its operations.

    Returns (result, per-route or per-suite seconds, seconds, CPU
    seconds).  A job that raises is a failed operation and returns None as
    its result.
    """
    t0, c0 = perf_counter(), process_time()
    try:
        result, times = run_in_process(workload, job)
    except Exception as exc:  # noqa: BLE001 - any raise is a failed operation
        ledger.op(False, f"job {job.index} raised {exc!r}")
        return None, {}, perf_counter() - t0, process_time() - c0
    dt, cpu = perf_counter() - t0, process_time() - c0
    if workload.L is None:
        for suite, report in result.items():
            ledger.op(suite_passed(report), f"verify {suite} seed {job.seed}: "
                      + (f"raised {report!r}" if isinstance(report, Exception)
                         else f"{len(report.rows) - report.n_passed} rows "
                         f"failed"))
    else:
        ledger.op(in_process_ok(workload, result),
                  f"job {job.index}: routes deviate by "
                  f"{max_deviation(result):.3g}")
    return result, times, dt, cpu


def run_process(workload: Workload, job: Job, peak: ChildPeak):
    """The same job through the `sosdw` executable.

    Returns (seconds, CPU seconds of the processes, outputs).
    """
    if workload.L is None:
        total = total_cpu = 0.0
        outs = {}
        for suite in verify.SUITE_NAMES:
            dt, cpu, proc = run_child(
                ["-m", "sosdw.cli", "verify", "--suite", suite, "--seed",
                 str(job.seed), "--draws", str(VERIFY_DRAWS)], peak)
            total += dt
            total_cpu += cpu
            outs[suite] = proc
        return total, total_cpu, outs
    dt, cpu, proc = run_child(["-m", "sosdw.cli", "compute", "--config",
                               str(job.path), "--json", "--no-timings"], peak)
    return dt, cpu, {"compute": proc}


def check_process(workload: Workload, job: Job, expected, outs,
                  ledger: Ledger) -> None:
    """Compare a process job with the in-process result for the same job.

    The process runs are timing samples, not operations: the in-process
    run already counted the job's verdict, and the executable must agree
    with it.  ``expected`` is None when the job raised in process; then
    the executable must fail too.
    """
    if expected is None:
        for name, proc in outs.items():
            if proc.returncode == 0:
                ledger.problem(f"{job.path.name} {name}: exit 0 where the "
                               f"library raised")
        return
    if workload.L is None:
        for suite, proc in outs.items():
            report = expected[suite]
            if isinstance(report, Exception):
                if proc.returncode == 0:
                    ledger.problem(f"verify {suite} seed {job.seed}: exit 0 "
                                   f"where run_suite raised")
            elif proc.returncode != (0 if report.passed else 1):
                ledger.problem(f"verify {suite} seed {job.seed}: exit "
                               f"{proc.returncode}, passed={report.passed}")
            elif proc.stdout != report.render() + "\n":
                ledger.problem(f"verify {suite} seed {job.seed}: output "
                               f"differs from run_suite")
        return
    proc = outs["compute"]
    want_code = 0 if max_deviation(expected) < AGREEMENT else 1
    if proc.returncode != want_code:
        ledger.problem(f"{job.path.name}: exit {proc.returncode}, expected "
                       f"{want_code}: {proc.stderr.strip()[:200]}")
        return
    routes = json.loads(proc.stdout)["routes"]
    for route, value in expected.items():
        got = complex(routes[route]["value"]["re"], routes[route]["value"]["im"])
        if got != value:
            ledger.problem(f"{job.path.name}: CLI {route} value {got!r} is "
                           f"not bit-identical to in-process {value!r}")


def same_result(workload: Workload, a, b) -> bool:
    if a is None or b is None:
        return a is b
    if workload.L is None:
        return all(suite_text(a[s]) == suite_text(b[s]) for s in a)
    return a == b


# ---- timed run --------------------------------------------------------------


def tail(samples):
    """(percentile, value) with TAIL_BEYOND samples beyond it, or None.

    Only percentiles at or above the median are reported.
    """
    n = len(samples)
    if n < 2 * TAIL_BEYOND:
        return None
    ordered = sorted(samples)
    k = n - TAIL_BEYOND - 1
    return 100.0 * (k + 1) / n, ordered[k]


def pool_mean_of_medians(by_job: dict) -> float:
    """Mean over the jobs of each job's median time.

    The median damps a slow moment of the machine; the mean over jobs
    weighs every job of the pool once, whatever its repeat count.  A plain
    median over all runs would depend on how the seed's draws split
    between cheap and dear jobs (one verify pass costs up to 1.8 times
    another).
    """
    return statistics.fmean(statistics.median(ts) for ts in by_job.values())


def timed_run(workload: Workload, seed: int, seconds: float) -> dict:
    jobs, setup_times, setup_cpu = setup(workload, seed, SETUP_REPEATS)
    ledger = Ledger()
    first = {}  # job index -> in-process result
    job_times, route_times, proc_outs = [], {}, []
    job_by_index, proc_by_index = {}, {}  # job index -> wall seconds
    job_cpu, proc_cpu = {}, {}  # job index -> CPU seconds
    peak = ChildPeak()
    inproc_busy = proc_busy = 0.0
    n_in = n_proc = 0
    start = perf_counter()
    # One caller, closed loop: the in-process and process sides take turns
    # so that each gets half the time and both see the same machine noise.
    while (perf_counter() - start < seconds) or n_in == 0 or n_proc == 0:
        if inproc_busy <= proc_busy:
            job = jobs[n_in % len(jobs)]
            # Only a job's first run is counted: the operations are the
            # pool's jobs, fixed by the seed.  Repeats must match it.
            counted = ledger if job.index not in first else Ledger()
            result, times, dt, cpu = attempt(workload, job, counted)
            if result is not None:
                job_times.append(dt)
                job_by_index.setdefault(job.index, []).append(dt)
                job_cpu.setdefault(job.index, []).append(cpu)
                for key, t in times.items():
                    route_times.setdefault(key, []).append(t)
            if job.index not in first:
                first[job.index] = result
            elif not same_result(workload, first[job.index], result):
                ledger.problem(f"job {job.index} gave a different result "
                               f"when repeated")
            inproc_busy += dt
            n_in += 1
        else:
            job = jobs[n_proc % len(jobs)]
            dt, cpu, outs = run_process(workload, job, peak)
            proc_by_index.setdefault(job.index, []).append(dt)
            proc_cpu.setdefault(job.index, []).append(cpu)
            proc_outs.append((job, outs))
            proc_busy += dt
            n_proc += 1

    # Run once each job the loop did not reach, so that the per-job
    # figures always cover the whole pool; then check everything.
    for job in jobs:
        if job.index not in first:
            result, _, dt, cpu = attempt(workload, job, ledger)
            first[job.index] = result
            if result is not None:
                job_by_index.setdefault(job.index, []).append(dt)
                job_cpu.setdefault(job.index, []).append(cpu)
    for job, outs in proc_outs:
        check_process(workload, job, first[job.index], outs, ledger)

    deviation = forward = None
    if workload.L is not None:
        deviation = max((max_deviation(v) for v in first.values()
                         if v is not None), default=None)
        forward = 0.0
        for job in jobs:
            if first[job.index] is None:
                continue
            ref = reference.permutation_reference(job.params, job.lambdas)
            for value in first[job.index].values():
                forward = max(forward, reference.relative_error(value, ref))
                if not math.isfinite(value.real + value.imag):
                    ledger.problem(f"job {job.index}: non-finite value")

    metrics = {
        "job_p50_s": pool_mean_of_medians(job_by_index) if job_times else None,
        "job_cpu_s": pool_mean_of_medians(job_cpu) if job_times else None,
        "process_s": pool_mean_of_medians(proc_by_index),
        "process_cpu_s": pool_mean_of_medians(proc_cpu),
        "setup_wall_s": statistics.median(setup_times),
        "setup_s": statistics.median(setup_cpu),
        "peak_rss_mb": peak_rss_mb(),
        "peak_rss_children_mb": peak.mb,
    }
    extra = {
        "jobs_per_s": len(job_times) / sum(job_times) if job_times else None,
        "tail": tail(job_times),
        "routes": {r: (statistics.median(ts), len(ts))
                   for r, ts in route_times.items() if r in core.ROUTES},
        "max_route_deviation": deviation,
        "max_forward_error": forward,
        "failed_share": ledger.failed / max(ledger.attempted, 1),
        "n_in": len(job_times),
        "n_proc": n_proc,
        "jobs_in": len(job_by_index),
        "jobs_proc": len(proc_by_index),
        "pool": len(jobs),
    }
    return {"metrics": metrics, "extra": extra, "ledger": ledger}


# ---- traced run -------------------------------------------------------------


def traced_run(workload: Workload, seed: int) -> dict:
    """Per-layer counts and times over one traced pass of the leading jobs.

    The same jobs also run untraced first, which gives the tracing
    overhead.  The work is fixed by the seed, so counts repeat exactly.
    """
    pool, _, _ = setup(workload, seed, 1)
    jobs = pool[:workload.traced]
    ledger = Ledger()
    import_s = statistics.median(import_seconds("sosdw.cli")[0]
                                 for _ in range(IMPORT_PROBES))
    plain, plain_times = [], []
    for job in jobs:
        result, _, dt, _ = attempt(workload, job, ledger)
        plain.append(result)
        plain_times.append(dt)

    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        tracer.job = "draw"
        if workload.L is not None:
            redrawn = make_jobs(workload, seed)
            if [(j.params, j.lambdas) for j in redrawn] != \
                    [(j.params, j.lambdas) for j in pool]:
                ledger.problem("the same seed drew different jobs")
        traced_times = []
        for job, expected in zip(jobs, plain):
            tracer.job = f"job{job.index}"
            t0 = perf_counter()
            result = tracer.call("bench.job", attempt, workload, job,
                                 Ledger())[0]
            traced_times.append(perf_counter() - t0)
            if not same_result(workload, expected, result):
                ledger.problem(f"job {job.index}: traced result differs")
        if workload.L is not None:
            for job, expected in zip(jobs, plain):
                tracer.job = f"cli{job.index}"
                with contextlib.redirect_stdout(io.StringIO()):
                    code = tracer.call("bench.cli", cli.main,
                                       ["compute", "--config", str(job.path),
                                        "--no-timings"])
                ok = expected is not None and in_process_ok(workload, expected)
                if (code == 0) != ok:
                    ledger.problem(f"{job.path.name}: in-process CLI exit {code}")
    finally:
        uninstall()

    lib_jobs = [f"job{j.index}" for j in jobs]
    cli_jobs = [f"cli{j.index}" for j in jobs] if workload.L else []
    summary = tracer.summary()
    counts = tracer.counts

    def per_job(name, which=lib_jobs):
        return statistics.median(summary[j]["inclusive"][name] for j in which) \
            if which else 0.0

    def mean_count(key):
        return sum(counts[j][key] for j in lib_jobs) / len(lib_jobs)

    def total(key, which):
        return sum(counts[j][key] for j in which)

    def share(num, den):
        return num / den if den else 0.0

    draw_jobs = ["draw", *lib_jobs]
    weights_distinct = sum(len(tracer.weight_args[j]) for j in lib_jobs)
    m = {
        "cli.import_s": import_s,
        "cli.load_job_config_s": per_job("cli.load_job_config", cli_jobs),
        "cli.compute_report_s": per_job("cli.compute_report", cli_jobs),
        "cli.render_report_s": per_job("cli.render_report", cli_jobs),
        "core.validate_calls": mean_count("core.validate_calls"),
        "core.validate_s": per_job("core.validate"),
        "core.pairwise_sum_terms": mean_count("core.pairwise_sum_terms"),
        "core.pairwise_sum_s": per_job("core.pairwise_sum"),
        # A crosscheck job is one draw; a verify pass draws inside its suites.
        "sampling.draw_model_s": per_job("sampling.draw_model")
        if workload.L is None else statistics.median(
            end - start for _, name, start, end, _, job in tracer.spans
            if job == "draw" and name == "sampling.draw_model"),
        "sampling.accept_share": share(total("sampling.accepted", draw_jobs),
                                       total("sampling.candidates", draw_jobs)),
        "rmatrix.weights_calls": mean_count("rmatrix.weights_calls"),
        "rmatrix.weights_s": per_job("rmatrix.weights"),
        "rmatrix.weights_distinct_share": share(
            weights_distinct, total("rmatrix.weights_calls", lib_jobs)),
        "face_model.configs": mean_count("face_model.configs"),
        "face_model.face_weight_calls": mean_count("face_model.face_weight_calls"),
        "face_model.enumerate_height_grids_s":
            per_job("face_model.enumerate_height_grids"),
        "face_model.enumerate_partition_s":
            per_job("face_model.enumerate_partition"),
        "yb_algebra.apply_calls": mean_count("yb_algebra.apply_calls"),
        "yb_algebra.apply_s": per_job("yb_algebra.apply"),
        "closed_form.permutation_terms": mean_count("closed_form.permutation_terms"),
        "closed_form.permutation_s": per_job("closed_form.permutation"),
        "closed_form.coeff_calls": mean_count("closed_form.coeff_calls"),
        "closed_form.coeff_s": per_job("closed_form.coeff"),
        "contour.residue_terms": mean_count("contour.residue_terms"),
        "contour.residue_s": per_job("contour.residue"),
        "contour.quadrature_calls": mean_count("contour.quadrature_calls"),
        "contour.quadrature_node_evals":
            mean_count("contour.quadrature_node_evals"),
        "contour.quadrature_useful_share": share(
            total("contour.quadrature_useful_evals", lib_jobs),
            total("contour.quadrature_node_evals", lib_jobs)),
        "contour.quadrature_s": per_job("contour.quadrature"),
    }
    for suite in verify.SUITE_NAMES:
        m[f"verify.{suite}_s"] = per_job(f"verify.{suite}")
    m["verify.rows_failed"] = total("verify.rows_failed", lib_jobs)
    for layer in tracing.LAYERS:
        which = cli_jobs if layer == "cli" else lib_jobs
        m[f"{layer}.self_s"] = statistics.median(
            summary[j]["self"][layer] for j in which) if which else 0.0
    m["trace.overhead_s"] = (statistics.median(traced_times)
                             - statistics.median(plain_times))

    if workload.L is not None:
        L = workload.L
        expected = {}
        if "face" in workload.routes:
            expected["face_model.configs"] = CONFIGS[L]
            expected["face_model.face_weight_calls"] = CONFIGS[L] * L * L
        if "permutation" in workload.routes:
            expected["closed_form.permutation_terms"] = math.factorial(L)
        if "residue" in workload.routes:
            expected["contour.residue_terms"] = math.factorial(L)
        for key, want in expected.items():
            if m[key] != want:
                ledger.problem(f"{key} is {m[key]} per job, expected {want}")

    write_trace(workload, seed, tracer)
    return {"metrics": m, "ledger": ledger, "spans": len(tracer.spans)}


def write_trace(workload: Workload, seed: int, tracer: tracing.Tracer) -> None:
    """Write the spans and counts of a traced run as JSON lines."""
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace_{workload.name}.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": workload.name, "seed": seed,
                             "environment": environment(),
                             "fields": ["id", "name", "start", "end",
                                        "parent", "job"]}) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
        fh.write(json.dumps({"counts": tracer.counts}) + "\n")


# ---- report -----------------------------------------------------------------

def report_timed(workload: Workload, seed: int, seconds: float, res: dict):
    m, x = res["metrics"], res["extra"]
    lines = [
        f"workload {workload.name}  seed {seed}  seconds {seconds}  "
        f"pool {x['pool']} jobs  in-process runs {x['n_in']}  "
        f"process runs {x['n_proc']}",
        "environment " + json.dumps(environment()),
    ]

    def line(name, value, unit, note=""):
        shown = "n/a" if value is None else f"{value:.6g} {unit}"
        lines.append(f"  {name:<22}{shown:<20}{note}")

    line("job_p50_s", m["job_p50_s"], "s", f"mean of per-job medians over "
         f"{x['jobs_in']} jobs, {x['n_in']} runs in the loop")
    line("job_cpu_s", m["job_cpu_s"], "s", "the same, in CPU time")
    if x["tail"] is None:
        line("job_tail_s", None, "s",
             f"omitted: {x['n_in']} runs, needs {2 * TAIL_BEYOND}")
    else:
        pct, value = x["tail"]
        line("job_tail_s", value, "s",
             f"p{pct:.1f} of {x['n_in']} runs, {TAIL_BEYOND} beyond it")
    line("jobs_per_s", x["jobs_per_s"], "1/s", "completed per busy second"
         + (f" at L={workload.L}" if workload.L else ", one suite pass each"))
    for route in core.ROUTES:
        if route in x["routes"]:
            value, n = x["routes"][route]
            line(f"{route}_s", value, "s", f"median of {n} calls")
        else:
            line(f"{route}_s", None, "s", "route not run on this workload")
    line("process_s", m["process_s"], "s", f"mean of per-job medians, "
         f"{x['n_proc']} runs of {x['jobs_proc']} jobs")
    line("process_cpu_s", m["process_cpu_s"], "s",
         "the same, in the processes' CPU time")
    line("setup_wall_s", m["setup_wall_s"], "s",
         f"median of {SETUP_REPEATS} set-ups")
    line("setup_s", m["setup_s"], "s", "the same, in CPU time")
    line("peak_rss_mb", m["peak_rss_mb"], "MB", "benchmark process")
    line("peak_rss_children_mb", m["peak_rss_children_mb"], "MB",
         "largest child process")
    line("max_route_deviation", x["max_route_deviation"], "ratio",
         "worst pair over all jobs")
    line("max_forward_error", x["max_forward_error"], "ratio",
         "worst route against the 50-digit reference")
    line("failed_share", x["failed_share"], "ratio",
         f"{res['ledger'].failed} of {res['ledger'].attempted} operations")
    return lines


def main(args, declared: dict) -> int:
    """Run one workload; ``declared`` is the parsed BENCHMARK.json."""
    workload = WORKLOADS[args.workload]
    if args.trace:
        res = traced_run(workload, args.seed)
        names = [d["name"] for d in declared["per_layer"]]
        units = {d["name"]: d["unit"] for d in declared["per_layer"]}
        lines = [f"workload {workload.name}  seed {args.seed}  traced  "
                 f"{res['spans']} spans"]
        for name in names:
            lines.append(f"  {name:<40}{res['metrics'][name]:.6g} {units[name]}")
    else:
        res = timed_run(workload, args.seed, args.seconds)
        names = [d["name"] for d in declared["end_to_end"]]
        units = {d["name"]: d["unit"] for d in declared["end_to_end"]}
        lines = report_timed(workload, args.seed, args.seconds, res)
    ledger = res["ledger"]
    for text in ledger.failures:
        lines.append(f"  operation failed: {text}")
    for text in ledger.problems:
        lines.append(f"  CHECK FAILED: {text}")
    print("\n".join(lines))
    values = {n: res["metrics"][n] for n in names}
    correct = not ledger.problems and all(
        isinstance(v, (int, float)) and math.isfinite(v) for v in values.values())
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }), flush=True)
    return 0
