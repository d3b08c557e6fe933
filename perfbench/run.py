#!/usr/bin/env python3
"""Benchmark of equivar: wall time to a verdict, end to end and per module.

Run from the repository root:

    python3 perfbench/run.py --workload index-expand --seed 1 --seconds 25 --trace 0

Every job is one CLI-equivalent call, equivar.cli.main([..., "--json", PATH]),
made in this process on one thread as a closed loop with one client: the next
job starts when the previous one has returned.  Each job's exit code and
report are checked against answers computed here (checks.py).  --seconds sets
the amount of work: the job list has as many rounds as the seed code runs in
that time (workloads.py), so a faster program finishes sooner on the same
jobs.

--trace 0 measures the end-to-end metrics with nothing traced.  --trace 1
runs a shorter job list twice, untraced and then traced, and reports the
per-layer metrics; the spans are written to perfbench/_work when it ends.
Only the last line of standard output is the result object.
"""

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import genmodels
import layers
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

END_TO_END_UNITS = {
    "jobs_per_s": "jobs/s",
    "job_s.p50": "s",
    "job_s.tail": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
SETUP_REPEATS = 9
TRACE_SHARE = 3      # a traced run gets 1/TRACE_SHARE of the rounds


def tail_percentile(samples, beyond=10):
    """(p, value): the highest integer percentile p whose nearest-rank value
    has at least `beyond` samples ranked above it."""
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples, got {n}")
    ordered = sorted(samples)
    p = max(q for q in range(1, 100) if n - -(-q * n // 100) >= beyond)
    return p, ordered[-(-p * n // 100) - 1]


def spawn_import():
    """Wall time of a fresh interpreter importing equivar.cli."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import equivar.cli"], cwd=ROOT,
                   env=dict(os.environ, PYTHONPATH=str(SRC)), check=True, timeout=60,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


def environment(seed):
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        sha = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    src = hashlib.sha256()
    for path in sorted((SRC / "equivar").rglob("*")):
        if path.suffix in (".py", ".json"):
            src.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            src.update(path.read_bytes())
    return {"python": platform.python_version(), "git_sha": sha,
            "src_sha256": src.hexdigest(), "nproc": len(os.sched_getaffinity(0)), "seed": seed}


class Runner:
    """Runs jobs through the CLI entry point and checks their reports."""

    def __init__(self, cli, run_dir):
        self.cli = cli
        self.run_dir = run_dir
        self.report = run_dir / "report.json"
        self.frames = {}    # built-in name -> frame ids

    def prepare(self, jobs):
        for job in jobs:
            if job.model is not None:
                (self.run_dir / job.argv[1]).write_text(
                    genmodels.model_json(job.model), encoding="utf-8")
            elif job.check == "verify-builtin" and job.param not in self.frames:
                doc = json.loads((SRC / "equivar" / "models" / f"{job.param}.json")
                                 .read_text(encoding="utf-8"))
                self.frames[job.param] = tuple(f["frameId"] for f in doc["frames"])

    def run_one(self, job):
        """(seconds, failure reason or None, report text) of one job."""
        self.report.unlink(missing_ok=True)
        argv = list(job.argv)
        if job.model is not None:
            argv[1] = str(self.run_dir / argv[1])
        argv += ["--json", str(self.report)]
        out, err = io.StringIO(), io.StringIO()
        reason = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except SystemExit as e:
            rc = e.code
        except Exception as e:  # a job that raises is a failed job, not a crash
            rc, reason = None, f"raised {type(e).__name__}: {e}"
        seconds = time.perf_counter() - t0
        text = self.report.read_text(encoding="utf-8") if self.report.exists() else ""
        if reason is None and not text:
            reason = f"exit code {rc} and no report"
        if reason is None:
            frame_ids = job.param if job.check == "verify" else self.frames.get(job.param)
            try:
                reason = checks.check_job(job, rc, json.loads(text), frame_ids)
            except json.JSONDecodeError as e:
                reason = f"report is not JSON: {e}"
        if reason is not None:
            reason = f"{' '.join(job.argv)}: {reason}"
        return seconds, reason, text


def end_to_end(runner, jobs):
    """Set-up is timed SETUP_REPEATS times, spread between the jobs so that
    its median does not hang on one moment of machine load; one unmeasured
    start goes first, so bytecode caches exist for every timed one."""
    spawn_import()
    setup_at = {i * len(jobs) // SETUP_REPEATS for i in range(SETUP_REPEATS)}
    setup, times, failures = [], [], []
    digest = hashlib.sha256()
    for i, job in enumerate(jobs):
        if i in setup_at:
            setup.append(spawn_import())
        seconds, reason, text = runner.run_one(job)
        times.append(seconds)
        digest.update(text.encode("utf-8") + b"\0")
        if reason is not None:
            failures.append(reason)
    p, tail = tail_percentile(times)
    metrics = {
        "jobs_per_s": len(times) / sum(times),
        "job_s.p50": statistics.median(times),
        "job_s.tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }
    notes = [f"job_s.tail is p{p} over {len(times)} samples"]
    return metrics, END_TO_END_UNITS, len(jobs), failures, digest.hexdigest(), notes


def per_layer(runner, jobs, spans_path):
    """Each job runs untraced and traced back to back, the order alternating
    from job to job, so the overhead ratio compares the same jobs under the
    same machine load without favouring the second run of a pair."""
    rec = spans.Recorder()
    rebinding = spans.Rebinding(rec, layers.FUNCTIONS, "equivar")
    untraced = traced = 0.0
    failures = []
    digest = hashlib.sha256()
    for i, job in enumerate(jobs):
        rec.job = i
        runs = {}
        for traced_run in ((False, True) if i % 2 == 0 else (True, False)):
            with rebinding.installed() if traced_run else contextlib.nullcontext():
                runs[traced_run] = runner.run_one(job)
        (plain_s, plain_reason, text), (traced_s, traced_reason, traced_text) = \
            runs[False], runs[True]
        untraced += plain_s
        traced += traced_s
        if plain_reason is None and traced_reason is None and traced_text != text:
            traced_reason = f"{' '.join(job.argv)}: traced report differs"
        failures += [r for r in (plain_reason, traced_reason) if r is not None]
        digest.update(text.encode("utf-8") + b"\0")
    with gzip.open(spans_path, "wt", encoding="utf-8", compresslevel=1) as fh:
        json.dump({"names": rec.names, "fields": ["fid", "start", "end", "parent", "job"],
                   "spans": rec.spans, "jobs": [list(j.argv) for j in jobs]}, fh)
    metrics = layers.layer_values(rec, traced, untraced)
    notes = [f"{len(rec.spans)} spans written to {spans_path.relative_to(ROOT)}"]
    return metrics, layers.metric_units(), 2 * len(jobs), failures, digest.hexdigest(), notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "equivar" / "cli.py").is_file():
        print(f"error: no equivar sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("EQUIVAR_MAX_DEGREE", None)   # reports must use the documented default
    sys.path.insert(0, str(SRC))
    import equivar.cli as cli

    wl = workloads.WORKLOADS[args.workload]
    rounds = workloads.rounds_for(wl, args.seconds)
    if args.trace:
        rounds = max(1, round(args.seconds / (TRACE_SHARE * wl.round_s)))
    jobs = workloads.make_jobs(wl, args.seed, rounds)

    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir()
    try:
        runner = Runner(cli, run_dir)
        runner.prepare(jobs)
        if args.trace:
            spans_path = WORK / f"spans-{wl.name}-seed{args.seed}.json.gz"
            result = per_layer(runner, jobs, spans_path)
        else:
            result = end_to_end(runner, jobs)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    metrics, units, attempted, failures, digest, notes = result

    print(f"workload {wl.name}: {wl.why}")
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    print(f"report_sha256 {digest} over {len(jobs)} reports in job order")
    print(f"jobs {attempted} attempted, {len(failures)} failed, "
          f"fail_frac {len(failures) / attempted} ratio")
    for line in failures[:10]:
        print(f"FAILED {line}")
    for line in notes:
        print(line)
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
