"""End-to-end and per-layer benchmark for the ``colsel`` CLI.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bt-criterion5 --seed 1 --seconds 30 --trace 0

Generates the workload's matrix files from ``--seed``, then runs its jobs
in-process through ``colsel.cli.main``: one caller, jobs back to back (a
closed loop), BLAS pinned to one thread.  Every report is checked
independently (``checks.py``), and a job that is run again must print the
same bytes.

``--trace 0`` measures the end-to-end metrics with tracing off: it runs the
whole job list round after round, each round on the next usable CPU.
``--trace 1`` alternates untraced and traced passes over the workload's
fixed pass of jobs and reports the per-layer metrics (``spans.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details: provenance, job counts, rounds, the tail percentile and
its sample count, and the failures, if any.
"""

import os

# Pin every BLAS pool to one thread before numpy is imported anywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from checks import KAPPA_SLACK, Checker, stable_rank  # noqa: E402
from spans import EIGH_SPAN, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"
SETUP_REPS = 5
MIN_ROUNDS = 2  # every job runs at least twice, so its report bytes are compared
TAIL_BEYOND = 10  # the tail percentile leaves at least this many jobs beyond it
MAX_FAILURES_SHOWN = 10


def import_colsel():
    """Import ``colsel`` from this checkout's ``src``, or exit with code 1."""
    if not (SRC / "colsel" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'colsel'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import colsel
    import colsel.cli

    if Path(colsel.__file__).resolve().parent != (SRC / "colsel").resolve():
        sys.exit(f"error: imported colsel from {colsel.__file__}, not from {SRC}")
    return colsel


class Runner:
    """Runs jobs through ``cli.main`` and keeps what the checks need."""

    def __init__(self, cli, workload, workdir):
        self.cli = cli
        self.workload = workload
        self.workdir = workdir
        self.attempted = 0
        self.failures = Counter()
        self.messages = []
        self.first = {}  # job index -> report text of its first run

    def execute(self, job):
        """One CLI call; returns (seconds, exit code, stdout, stderr)."""
        argv = job.argv[:-1] + [str(self.workdir / job.argv[-1])]
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception as exc:  # a crash is a failed job, not a crashed benchmark
            code = f"uncaught {exc!r}"
        return perf_counter() - start, code, out.getvalue(), err.getvalue()

    def fail(self, index, message):
        self.failures[index] += 1
        if len(self.messages) < MAX_FAILURES_SHOWN:
            self.messages.append(f"job {index} {' '.join(self.workload.jobs[index].argv)}: {message}")

    def run(self, index):
        """Run job ``index`` and compare it with its first copy.

        Returns (latency in seconds, report text, exit code was 0).
        """
        job = self.workload.jobs[index]
        seconds, code, out, err = self.execute(job)
        self.attempted += 1
        if code != 0:
            self.fail(index, f"exit {code}: {err.strip()[:200]}")
        elif index not in self.first:
            self.first[index] = out
        elif out != self.first[index]:
            self.fail(index, "report bytes differ from the first run of the same job")
        return seconds, out, code == 0

    def check_all(self):
        """Independent checks of the first report of every job that ran."""
        checker = Checker(self.workload.matrices)
        reports = {}
        for index, text in sorted(self.first.items()):
            report = json.loads(text)
            reports[index] = report
            for message in checker.check(self.workload.jobs[index], report):
                self.fail(index, message)
        return reports


def setup(workload_name, seed, cli, workdir):
    """Generate and write the inputs, import cold, run one warm-up job.

    Done ``SETUP_REPS`` times, each into a fresh directory; returns the
    workload, the directory of the last repetition and the times.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for rep in range(SETUP_REPS):
        start = perf_counter()
        workload = workloads.build(workload_name, seed)
        directory = workdir / f"setup{rep}"
        directory.mkdir(parents=True)
        for name, matrix in workload.matrices.items():
            workloads.write_csv(directory / name, matrix)
        subprocess.run([sys.executable, "-c", "import colsel"], env=env, cwd=ROOT,
                       check=True, timeout=120)
        # A failing warm-up job fails again, and is counted, in the loop.
        Runner(cli, workload, directory).execute(workload.jobs[0])
        times.append(perf_counter() - start)
    return workload, directory, times


def peak_rss():
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(latencies):
    """(value, percentile): the highest percentile with TAIL_BEYOND jobs beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def quality(workload, reports):
    """cardinality_ratio_mean and bracket_ratio_mean over the job list."""
    cardinality, bracket = [], []
    for index, job in enumerate(workload.jobs):
        report = reports.get(index)
        if report is None:
            continue
        result = report["result"]
        if job.kind in ("kt", "bt"):
            a = workload.matrices[job.matrix]
            cardinality.append(len(result["tau"]) / stable_rank(a))
        elif job.kind == "norm":
            bracket.append(result["upper"] / result["lower"])
    return (statistics.fmean(cardinality) if cardinality else None,
            statistics.fmean(bracket) if bracket else None)


def end_to_end(runner, seconds, setup_times):
    """Whole rounds over the job list until the time is up, at least MIN_ROUNDS.

    Whole rounds keep the mix of jobs the same in every run, however fast
    the host is, and every run of a job after its first is a determinism
    check.
    """
    workload = runner.workload
    latencies = []
    completed = 0
    rounds = 0
    last_round = 0.0
    cpus = sorted(os.sched_getaffinity(0))
    start = perf_counter()
    try:
        # No round starts that is expected to end after --seconds.
        while rounds < MIN_ROUNDS or perf_counter() - start + last_round <= seconds:
            # Rounds take the usable CPUs in turn, so a run does not measure
            # only the one core that other tenants of the host keep busy.
            os.sched_setaffinity(0, {cpus[rounds % len(cpus)]})
            t0 = perf_counter()
            for index in range(len(workload.jobs)):
                latency, _, ok = runner.run(index)
                latencies.append(latency)
                completed += ok
            last_round = perf_counter() - t0
            rounds += 1
            if rounds == 1:
                # The first round runs every job once, as a CLI user would;
                # later rounds in one process only add heap fragmentation.
                peak_rss_mb = peak_rss()
    finally:
        os.sched_setaffinity(0, cpus)
    elapsed = perf_counter() - start
    reports = runner.check_all()
    tail_value, percentile = tail(latencies)
    cardinality, bracket = quality(workload, reports)
    e2e = {
        "setup_s": (statistics.median(setup_times), "s"),
        "jobs_per_s": (completed / elapsed, "1/s"),
        "job_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
        "job_tail_ms": (1000.0 * tail_value, "ms"),
        "fail_frac": (sum(runner.failures.values()) / runner.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "cardinality_ratio_mean": (cardinality, "ratio"),
        "bracket_ratio_mean": (bracket, "ratio"),
    }
    detail = {
        "end_to_end": {name: {"value": v, "unit": u} for name, (v, u) in e2e.items()},
        "rounds": rounds,
        "job_tail_percentile": percentile,
        "job_samples": len(latencies),
        "setup_samples_s": setup_times,
        "measured_s": elapsed,
        "peak_rss_mb_end_of_loop": peak_rss(),
    }
    # fail_frac is 0 on a healthy tree (any failure makes the run incorrect)
    # and each quality mean applies to some workloads only, so the result
    # line carries the others plus one quality figure that applies to every
    # workload, higher better.
    metrics = {name: e2e[name] for name in
               ("setup_s", "jobs_per_s", "job_p50_ms", "job_tail_ms", "peak_rss_mb")}
    metrics["result_quality"] = (cardinality if cardinality is not None else 1.0 / bracket,
                                 "ratio")
    return metrics, detail, []


def per_layer(runner, seconds, colsel):
    """Untraced and traced passes over the fixed pass, in turn.

    A traced report that differs from the untraced one fails its job in
    :meth:`Runner.run`, like any other repeat that differs.
    """
    workload = runner.workload
    fixed = range(workload.trace_pass)
    tracer = Tracer(colsel)
    problems = []
    plain_times, traced_times, counts, timings = [], [], [], []
    start = perf_counter()
    while not traced_times or perf_counter() - start + traced_times[-1] + plain_times[-1] <= seconds:
        t0 = perf_counter()
        for index in fixed:
            runner.run(index)
        plain_times.append(perf_counter() - t0)

        tracer.reset()
        tracer.install()
        try:
            problems += [f"unwrapped binding {b}" for b in tracer.unwrapped_bindings()]
            t0 = perf_counter()
            texts = [runner.run(index)[1] for index in fixed]
            traced_times.append(perf_counter() - t0)
        finally:
            tracer.uninstall()
        reports = [json.loads(text) for text in texts if text]
        pass_counts, pass_timings = layer_metrics(tracer, accepted_rounds(reports))
        counts.append(pass_counts)
        timings.append(pass_timings)
        problems += consistency(tracer, reports)
    reports = runner.check_all()
    if any(c != counts[0] for c in counts[1:]):
        problems.append("per-layer counts differ between traced passes")
    metrics = {name: (value, unit) for name, (value, unit) in counts[0].items()}
    for name, (_, unit) in timings[0].items():
        metrics[name] = (statistics.median(t[name][0] for t in timings), unit)
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_times) / statistics.median(plain_times) - 1.0, "ratio")
    cardinality, bracket = quality(workload, reports)
    detail = {
        "passes": len(traced_times),
        "pass_jobs": workload.trace_pass,
        "untraced_pass_s": plain_times,
        "traced_pass_s": traced_times,
        "cardinality_ratio_mean": cardinality,
        "bracket_ratio_mean": bracket,
    }
    return metrics, detail, problems


def layer_metrics(t, accepted):
    """Per-pass counts (machine independent) and times from one traced pass."""
    c = t.counters
    attempts = t.count("select.norm_reduce") + t.count("select.cond_reduce")
    solves = t.count("emd.emd_minimize")
    evals, objective_s = t.objective_spans()
    eig_calls = t.count("linalg.max_eig_pair")
    eig_s = t.total("linalg.max_eig_pair")
    exact_calls = t.count("exact.norm_inf2_exact") + t.count("exact.norm_inf1_exact")
    exact_s = t.total("exact.norm_inf2_exact") + t.total("exact.norm_inf1_exact")
    select_spans = {"select.kt_select", "select.bt_select"}
    verify_s = (t.total("linalg.spectral_norm", select_spans)
                + t.total("linalg.condition_number", select_spans))
    mc_calls = c["montecarlo_calls"]
    counts = {
        "io.bytes_in": (c["io_bytes_in"], "B"),
        "io.bytes_out": (c["io_bytes_out"], "B"),
        "select.attempts": (attempts, "count"),
        "select.accept_yield": (accepted / attempts if attempts else 0.0, "ratio"),
        "select.reduce_none": (c["select_reduce_none"], "count"),
        "emd.solves": (solves, "count"),
        "emd.evals": (evals, "count"),
        "emd.evals_per_solve": (evals / solves if solves else 0.0, "count"),
        "emd.exit_feasible": (c["emd_exit_feasible"], "count"),
        "emd.exit_stall": (c["emd_exit_stall"], "count"),
        "emd.exit_budget": (c["emd_exit_budget"], "count"),
        "pietsch.factorize_calls": (t.count("pietsch.pietsch_factorize"), "count"),
        "pietsch.infeasible": (c["pietsch_infeasible"], "count"),
        "pietsch.bracket_calls": (t.count("pietsch.pietsch_optimal_alpha"), "count"),
        "pietsch.bracket_probes": (c["pietsch_probes_reported"], "count"),
        "groth.factorize_calls": (t.count("grothendieck.groth_factorize"), "count"),
        "groth.infeasible": (c["groth_infeasible"], "count"),
        "groth.bracket_calls": (t.count("grothendieck.groth_optimal_alpha"), "count"),
        "groth.bracket_probes": (c["groth_probes_reported"], "count"),
        "linalg.eig_calls": (eig_calls, "count"),
        "linalg.eig_n3": (c["eig_n3"], "count"),
        "linalg.eig_bytes_in": (c["eig_bytes_in"], "B"),
        "linalg.verify_calls": (t.count("linalg.spectral_norm") + t.count("linalg.condition_number"), "count"),
        "exact.calls": (exact_calls, "count"),
        "exact.sign_vectors": (c["exact_sign_vectors"], "count"),
        "exact.s": (c["exact_s_sum"] / exact_calls if exact_calls else 0.0, "count"),
        "montecarlo.trials": (c["montecarlo_trials"], "count"),
        "montecarlo.s": (c["montecarlo_s_sum"] / mc_calls if mc_calls else 0.0, "count"),
    }
    timings = {
        "io.load_s": (t.total("io.load_matrix"), "s"),
        "io.report_s": (t.total("io.write_report"), "s"),
        "select.verify_s": (verify_s, "s"),
        "select.self_s": (t.layer_self_time("select"), "s"),
        "emd.self_s": (t.layer_self_time("emd"), "s"),
        "emd.objective_s": (objective_s, "s"),
        "pietsch.factorize_self_s": (t.self_time("pietsch.pietsch_factorize"), "s"),
        "pietsch.bracket_self_s": (t.self_time("pietsch.pietsch_optimal_alpha"), "s"),
        "pietsch.witness_s": (t.total("pietsch.improve_sign_witness_inf2"), "s"),
        "groth.factorize_self_s": (t.self_time("grothendieck.groth_factorize"), "s"),
        "groth.bracket_self_s": (t.self_time("grothendieck.groth_optimal_alpha"), "s"),
        "groth.witness_s": (t.total("grothendieck.improve_sign_witness_inf1"), "s"),
        "linalg.eig_s": (eig_s, "s"),
        "linalg.eig_us_per_call": (1e6 * eig_s / eig_calls if eig_calls else 0.0, "us"),
        "linalg.eigh_frac": (t.total(EIGH_SPAN, {"linalg.max_eig_pair"}) / eig_s if eig_s else 0.0, "ratio"),
        "exact.ns_per_vector": (1e9 * exact_s / c["exact_sign_vectors"] if exact_calls else 0.0, "ns"),
    }
    return counts, timings


def consistency(t, reports):
    """Trace counts must equal what the program itself reports."""
    problems = []
    attempts = sum(r["result"]["attempts"] for r in reports if r["command"] in ("kt", "bt"))
    probes = sum(r["result"]["probes"] for r in reports if r["command"] == "norm")
    traced_attempts = t.count("select.norm_reduce") + t.count("select.cond_reduce")
    if not attempts == traced_attempts == t.counters["select_attempts_reported"]:
        problems.append(f"attempts: reports {attempts}, spans {traced_attempts}")
    brackets = {"pietsch.pietsch_optimal_alpha", "grothendieck.groth_optimal_alpha"}
    probe_spans = (t.count("pietsch.pietsch_factorize", brackets)
                   + t.count("grothendieck.groth_factorize", brackets))
    reported = t.counters["pietsch_probes_reported"] + t.counters["groth_probes_reported"]
    if not probes == probe_spans == reported:
        problems.append(f"probes: reports {probes}, spans {probe_spans}")
    evals, _ = t.objective_spans()
    if evals != t.counters["emd_iterations_reported"]:
        problems.append(f"emd evaluations: spans {evals}, "
                        f"EmdRun.iterations {t.counters['emd_iterations_reported']}")
    return problems


def accepted_rounds(reports):
    """Selection attempts whose candidate passed the report's threshold."""
    accepted = 0
    for r in reports:
        if r["command"] == "kt":
            limit = r["config"]["kt_norm_threshold"]
        elif r["command"] == "bt":
            limit = r["config"]["bt_kappa_threshold"] * (1.0 + KAPPA_SLACK)
        else:
            continue
        accepted += sum(1 for entry in r["result"]["per_round_log"]
                        if entry[3] is not None and entry[3] <= limit)
    return accepted


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, workload):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "jobs_in_list": len(workload.jobs),
        "jobs_in_trace_pass": workload.trace_pass,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    colsel = import_colsel()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload, directory, setup_times = setup(args.workload, args.seed, colsel.cli, workdir)
        runner = Runner(colsel.cli, workload, directory)
        if args.trace:
            metrics, detail, problems = per_layer(runner, args.seconds, colsel)
        else:
            metrics, detail, problems = end_to_end(runner, args.seconds, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    failed = sum(runner.failures.values())
    detail.update(provenance(args, workload))
    detail["failures"] = runner.messages
    detail["problems"] = problems
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
