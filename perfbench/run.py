"""Benchmark for kslab: cold ``kslab`` jobs timed end to end.

    python3 perfbench/run.py --workload sweep|evaluate|ingest|all --seed N \\
        --seconds S --trace 0|1

Run from the root of a kslab source tree.  One client runs the
workload's job list back to back (a closed loop, one job in flight),
each job in a fresh interpreter with ``src`` on ``PYTHONPATH``, as every
command-line user pays cold imports and cold caches on every call.
Passes over the job list repeat while the next one is expected to end
within ``--seconds``; at least one pass runs.  Every job's answer is
checked against a reference the benchmark computes itself.

With ``--trace 0`` the result holds the end-to-end metrics:
``setup_s`` (median wall time of fresh interpreters that import
``kslab.cli`` and build its parser, probed before every pass), the means
over passes of ``wall_s`` (the job list) and ``cpu_s`` (user + system
time of every job process, pool workers included), and the median over
passes of ``peak_rss_mb`` (largest max-RSS of any job).  With ``--trace 1`` untraced and traced passes alternate, and
the result holds the per-layer metrics of ``layers.py`` from the traced
passes plus ``trace_overhead_s``.  The last line of stdout is the JSON
result; with ``--workload all`` the workloads run in turn and each
metric name is prefixed with its workload.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import layers
import selftest
import workloads

BENCH_DIR = Path(__file__).resolve().parent
PROBES_PER_PASS = 3
MIN_PROBES = 9
JOB_TIMEOUT_S = 60.0
# Jobs started after this many seconds of a run get a one-second timeout,
# so that a hanging program still ends the run well within three minutes.
RUN_DEADLINE_S = 140.0
SETUP_CODE = "import kslab.cli as c; c.build_parser()"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Outcome:
    """One finished process, measured by ``os.wait4`` on it alone."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int | None  # None after a timeout


def run_process(argv: list[str], env: dict, root: Path, stdout_path: Path,
                deadline: float) -> Outcome:
    """Run argv to completion in its own session, killing the session on
    timeout, and return its own rusage (children it waited for included)."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=root,
                                start_new_session=True)
        pidfd = os.pidfd_open(proc.pid)
        timeout = min(JOB_TIMEOUT_S, max(1.0, deadline - time.monotonic()))
        try:
            finished, _, _ = select.select([pidfd], [], [], timeout)
            if not finished:
                os.killpg(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if not finished:
        _reap_group(proc.pid)
    return Outcome(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        returncode=proc.returncode if finished else None,
    )


def _reap_group(pgid: int) -> None:
    """Wait until the killed session's orphaned pool workers are gone."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def job_argv(job: workloads.Job, spans: Path | None) -> list[str]:
    if spans is None and job.kind == "cli":
        return [sys.executable, "-m", "kslab.cli", *job.args]
    trace = [] if spans is None else ["--spans", str(spans), job.name]
    return [sys.executable, str(BENCH_DIR / "driver.py"), *trace, job.kind, *job.args]


@dataclass
class Pass:
    outcomes: list[Outcome]
    errors: list[str | None]
    spans: list[Path]


def run_pass(jobs: list[workloads.Job], env: dict, root: Path, work: Path,
             traced: bool, index: int, deadline: float) -> Pass:
    """Run the job list back to back, then judge the answers."""
    tag = f"{'traced' if traced else 'pass'}{index}"
    outs = [work / f"{tag}-{job.name}.out" for job in jobs]
    spans = [work / f"{tag}-{job.name}.spans" if traced else None for job in jobs]
    outcomes = [run_process(job_argv(job, s), env, root, out, deadline)
                for job, s, out in zip(jobs, spans, outs)]
    errors = [workloads.judge(job, o.returncode, out.read_text(encoding="utf-8", errors="replace"))
              for job, o, out in zip(jobs, outcomes, outs)]
    for job, error, out in zip(jobs, errors, outs):
        if error is not None:
            tail = out.with_suffix(".err").read_text(errors="replace")[-2000:]
            print(f"FAILED {job.name}: {error}\n{tail}", file=sys.stderr)
    return Pass(outcomes, errors, [s for s in spans if s is not None])


def traced_job(outcome: Outcome, path: Path) -> tuple[float, int, list]:
    """(wall time without the span dump, exit code, spans) of a traced job."""
    if not path.exists():
        return outcome.wall_s, outcome.returncode or 0, []
    trace = json.loads(path.read_text())
    return outcome.wall_s - trace["serialize_s"], outcome.returncode or 0, trace["spans"]


def job_env(root: Path) -> dict:
    """The caller's environment with only kslab's source on the import
    path.  KS_LAB_THREADS is dropped so that ``--workers`` alone sets the
    pool, and BLAS runs one thread, so that ``os.cpu_count()`` never sets
    parallelism."""
    env = {k: v for k, v in os.environ.items() if k not in ("KS_LAB_THREADS", "PYTHONPATH")}
    env.update(PYTHONPATH=str(root / "src"), **dict.fromkeys(BLAS_THREAD_VARS, "1"))
    return env


NUMPY_STAMP = """import json, numpy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas['name']} {blas.get('version', '')}".strip()
except (TypeError, KeyError):
    blas = "unknown"
print(json.dumps({"numpy": numpy.__version__, "blas": blas}))
"""


def environment_stamp(root: Path, env: dict, seed: int) -> dict:
    commit = "unknown"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    numpy_stamp = subprocess.run([sys.executable, "-c", NUMPY_STAMP], env=env, cwd=root,
                                 capture_output=True, text=True, timeout=60, check=True).stdout
    return {
        "commit": commit,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        **json.loads(numpy_stamp),
        "blas_threads": env[BLAS_THREAD_VARS[0]],
    }


def per_pass(passes: list[Pass], field: str) -> float:
    """Mean over the passes of an outcome field summed over the job list.

    The mean, not the median: on a shared host whose speed drifts over
    seconds, the mean of a few passes spreads least from run to run.
    """
    return statistics.mean(sum(getattr(o, field) for o in p.outcomes) for p in passes)


def measure(workload: str, args: argparse.Namespace, root: Path,
            work: Path) -> tuple[dict, int, int]:
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = job_env(root)
    specs = subprocess.run(
        [sys.executable, str(BENCH_DIR / "inputs.py"), workload, str(args.seed), str(work)],
        env=env, cwd=root, capture_output=True, text=True, timeout=120, check=True).stdout
    jobs = [workloads.Job.from_spec(spec) for spec in json.loads(specs)]

    def probe() -> Outcome:
        outcome = run_process([sys.executable, "-c", SETUP_CODE], env, root, work / "setup.out",
                              deadline)
        if outcome.returncode != 0:
            raise RuntimeError("a fresh interpreter could not import kslab.cli")
        return outcome

    # Untraced runs spread their set-up probes over the run, a few before every pass.
    probes: list[Outcome] = []
    untraced: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while True:
        if not args.trace:
            probes += [probe() for _ in range(PROBES_PER_PASS)]
        untraced.append(run_pass(jobs, env, root, work, False, len(untraced), deadline))
        if args.trace:
            traced.append(run_pass(jobs, env, root, work, True, len(traced), deadline))
        elapsed = time.perf_counter() - start
        if elapsed * (len(untraced) + 1) / len(untraced) > args.seconds:
            break
    while not args.trace and len(probes) < MIN_PROBES:
        probes.append(probe())

    done = untraced + traced
    attempted = sum(len(p.outcomes) for p in done)
    failed = sum(e is not None for p in done for e in p.errors)
    units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
    if args.trace:
        layer_passes = [layers.pass_metrics([traced_job(o, s) for o, s in zip(p.outcomes, p.spans)])
                        for p in traced]
        values = {name: statistics.median(m[name] for m in layer_passes)
                  for name in layers.PREDICTIONS if name != "trace_overhead_s"}
        values["trace_overhead_s"] = per_pass(traced, "wall_s") - per_pass(untraced, "wall_s")
        units = {name: unit for name, (unit, _, _) in layers.PREDICTIONS.items()}
    else:
        values = {
            "setup_s": statistics.median(p.wall_s for p in probes),
            "wall_s": per_pass(untraced, "wall_s"),
            "cpu_s": per_pass(untraced, "cpu_s"),
            "peak_rss_mb": statistics.median(max(o.rss_mb for o in p.outcomes) for p in untraced),
        }
    print(f"workload {workload}: seed {args.seed}, {len(untraced)} untraced and "
          f"{len(traced)} traced passes of {len(jobs)} jobs, {len(probes)} set-up probes")
    for name, value in values.items():
        print(f"  {name:36s} {value:14.6f} {units[name]}")
    print(f"  {'fail_ratio':36s} {failed / attempted:14.6f} ratio ({failed} of {attempted} jobs)")
    if args.trace:
        print("per job, first traced pass (s):")
        for job, o, path in zip(jobs, traced[0].outcomes, traced[0].spans):
            m = layers.pass_metrics([traced_job(o, path)])
            spent = (f"{k} {v:.3f}" for k, v in m.items() if units[k] == "s" and v >= 0.001)
            print(f"  {job.name}: wall {o.wall_s:.3f}, " + ", ".join(spent))
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    return metrics, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "kslab" / "cli.py").is_file():
        print(f"error: {root} holds no kslab source tree (src/kslab)", file=sys.stderr)
        return 2
    problems = selftest.problems()
    if problems:
        print("error: checker self-test failed:\n  " + "\n  ".join(problems), file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
        try:
            found, tried, wrong = measure(name, args, root, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + metric: value for metric, value in found.items()})
        attempted += tried
        failed += wrong
    print("env " + json.dumps(environment_stamp(root, job_env(root), args.seed)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
