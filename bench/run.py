"""graphonlab benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload density-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. One process, one client, closed loop, no
threads: the jobs of the workload run in-process through
``graphonlab.cli.run`` pass after pass until ``--seconds`` have gone by.
A warm-up pass comes first; its outputs are checked against the fixture
generator's own values, and every later output must equal the warm-up's
bytes.

``--trace 0`` reports the end-to-end metrics. On a shared machine a job
can run 1.3-1.8 times slower for spells of seconds to minutes, so a
job's time is its best over the passes of the run: ``jobs_per_s`` is the
job count over the sum of those best times, and ``job_p50_s`` is their
median, the middle job's best time (every workload has an odd number of
jobs). ``job_tail_s`` is taken over all samples, the value with exactly
ten samples beyond it. ``job_p50_s``, ``job_tail_s`` and ``fail_ratio``
are printed but not gated.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (see bench/tracing.py). The last line of stdout is one
JSON object.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: BLAS and OpenMP thread pools are pinned to one thread in this process and
#: in the cold-start probes: default threading stalls eigh for up to 0.4 s
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: cold starts per run; setup_s is their median
SETUP_STARTS = 15

#: exactly this many job samples lie beyond the reported tail percentile
TAIL_BEYOND = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cold_start_seconds() -> float:
    """Spawn a fresh interpreter; seconds until graphonlab.cli is imported."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
    code = "import graphonlab.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, env=env) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    if line != b"ready\n" or proc.returncode != 0:
        raise RuntimeError("cold start did not import graphonlab.cli")
    return elapsed


class Runner:
    """Runs passes of one workload and keeps what the checks need."""

    def __init__(self, workload, run):
        self.workload = workload
        self.run = run
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference: dict[str, bytes] = {}
        self.semantic_ok: dict[str, bool] = {}

    def _one(self, job, tracer=None) -> tuple[float, bytes | None]:
        argv = job.full_argv
        t0 = time.perf_counter()
        try:
            rc = tracer.job(job.name, self.run, argv) if tracer else self.run(argv)
        except (Exception, SystemExit) as e:  # a crash is a failed job, not a dead run
            rc = f"{type(e).__name__}: {e}"
        elapsed = time.perf_counter() - t0
        if rc != 0:
            self._fail(job.name, f"exit {rc}")
            return elapsed, None
        with open(job.out, "rb") as fh:
            return elapsed, fh.read()

    def _fail(self, job_name: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{job_name}: {why}")

    def warm_up(self) -> float:
        """First pass: reference outputs, checked against the fixture values."""
        from checks import agree

        t0 = time.perf_counter()
        for job in self.workload.jobs:
            _, out = self._one(job)
            self.attempted += 1
            if out is None:
                self.semantic_ok[job.name] = False
                continue
            self.reference[job.name] = out
            try:
                why = job.check(out.decode().rstrip("\n"))
            except (ValueError, KeyError, IndexError, TypeError) as e:
                why = f"unreadable output: {type(e).__name__}: {e}"
            self.semantic_ok[job.name] = why is None
            if why is not None:
                self._fail(job.name, why)
        for a, b in self.workload.agree:
            if a in self.reference and b in self.reference:
                why = agree(self.reference[a].decode(), self.reference[b].decode())
                if why is not None:
                    self.semantic_ok[a] = self.semantic_ok[b] = False
                    self._fail(f"{a} vs {b}", why)
        return time.perf_counter() - t0

    def timed_pass(self, tracer=None) -> tuple[float, list[float], int]:
        """One pass; returns its wall time, per-job times and bytes written."""
        times, written = [], 0
        t0 = time.perf_counter()
        for job in self.workload.jobs:
            elapsed, out = self._one(job, tracer)
            self.attempted += 1
            times.append(elapsed)
            if out is None:
                continue
            written += len(out)
            if not self.semantic_ok.get(job.name, False):
                self._fail(job.name, "output failed its check in the warm-up pass")
            elif out != self.reference[job.name]:
                self._fail(job.name, "output bytes differ from the warm-up pass")
        return time.perf_counter() - t0, times, written


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with TAIL_BEYOND samples beyond it."""
    s = sorted(samples)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, n
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def facts(workload: str, seed: int, jobs: int) -> dict:
    import numpy as np

    import graphonlab

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "graphonlab").glob("*.py"))
    public = [
        n for n, v in vars(graphonlab).items()
        if not n.startswith("_") and type(v).__name__ != "module"
    ]
    return {
        "workload": workload,
        "seed": seed,
        "jobs_per_pass": jobs,
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": THREAD_ENV,
        "src_lines": lines,
        "public_names": len(public),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "graphonlab" / "cli.py").is_file():
        print(f"error: no graphonlab sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before anything imports numpy
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    work = BENCH / ".work"
    run_dir = work / f"{args.workload}-{args.seed}-{os.getpid()}"
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        return measure(args, WORKLOADS[args.workload], run_dir, work)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, build, run_dir: Path, work: Path) -> int:
    from tracing import Tracer, layer_metrics

    # before the fixtures are written, so their writeback does not slow the starts
    setup = median([cold_start_seconds() for _ in range(SETUP_STARTS)])
    workload = build(str(run_dir), args.seed)

    from graphonlab.cli import run

    print(json.dumps({"facts": facts(args.workload, args.seed, len(workload.jobs))}))
    runner = Runner(workload, run)
    warm_s = runner.warm_up()
    print(f"warm-up pass {warm_s:.3f} s, {len(workload.jobs)} jobs")
    deadline = time.perf_counter() + args.seconds

    if args.trace == 0:
        per_job: list[list[float]] = [[] for _ in workload.jobs]
        while not per_job[0] or time.perf_counter() < deadline:
            for times, t in zip(per_job, runner.timed_pass()[1]):
                times.append(t)
        best = [min(times) for times in per_job]
        middle = sorted(range(len(best)), key=best.__getitem__)[len(best) // 2]
        metrics = {
            "setup_s": (setup, "s"),
            "jobs_per_s": (len(best) / sum(best), "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        notes = {
            "setup_s": f"median of {SETUP_STARTS} cold starts",
            "jobs_per_s": f"best of {len(per_job[0])} passes per job",
        }
        tail_s, tail_pct, n = tail([t for times in per_job for t in times])
        reported = {
            "job_p50_s": (median(best), "s", f"middle job {workload.jobs[middle].name}"),
            "job_tail_s": (tail_s, "s", f"p{tail_pct:.2f} of {n} jobs"),
        }
    else:
        plain, traced, layers = [], [], []
        while not traced or time.perf_counter() < deadline:
            plain.append(runner.timed_pass()[0])
            tracer = Tracer()
            tracer.install()
            try:
                wall, _, written = runner.timed_pass(tracer)
            finally:
                tracer.remove()
            traced.append(wall)
            tracer.counters["fileio.bytes_written"] += written
            layers.append(tracer)
        per_pass = [layer_metrics(t) for t in layers]
        metrics = {
            name: (median([m[name][0] for m in per_pass]), unit)
            for name, (_, unit) in per_pass[0].items()
        }
        metrics["trace.overhead_s"] = (median([t - p for p, t in zip(plain, traced)]), "s")
        notes = {name: f"median of {len(traced)} traced passes" for name in metrics}
        reported = {}
        spans_path = work / f"spans-{args.workload}.json"
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"passes": [t.doc() for t in layers]}, fh)
        print(f"spans written to {spans_path.relative_to(ROOT)}")

    for why in runner.failures:
        print(f"FAILED {why}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{args.workload} {name} = {value:.6g} {unit}{note}")
    reported["fail_ratio"] = (
        runner.failed / runner.attempted, "", f"{runner.failed} of {runner.attempted} jobs"
    )
    for name, (value, unit, note) in reported.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}  ({note}; reported, not gated)")
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
