"""Print a sha256 of every benchmark job's output, to compare two checkouts.

    python3 tools/output_digests.py --seeds 1 2 3 > digests.txt

For each seed it builds the fixtures of the ``density-sweep``,
``transform-twins`` and ``spectral-lift`` workloads in a temporary
directory with the ``bench/workloads.py`` of the checkout it sits in,
runs every job once through that checkout's ``graphonlab.cli.run`` and
prints one line per job, ``workload/seed/job exit-code sha256``, the
digest taken over the bytes the job printed. Two checkouts print the
same lines when every job gives the same bytes and the same exit code,
so ``diff`` of the two listings is the whole comparison.

    python3 tools/output_digests.py --seeds 1 2 3 --against digests.txt

compares this checkout with a listing saved from another one: it prints
``job old -> new`` for each job whose exit code or digest differs, or that
only one side ran, and exits 1 if there is any such job, 0 otherwise.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("density-sweep", "transform-twins", "spectral-lift")


def digests(name: str, seed: int) -> list[str]:
    from graphonlab.cli import run
    from workloads import WORKLOADS

    lines = []
    with tempfile.TemporaryDirectory() as root:
        for job in WORKLOADS[name](root, seed).jobs:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = run(job.argv)
            digest = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
            lines.append(f"{name}/{seed}/{job.name} {code} {digest}")
    return lines


def _results(lines) -> dict[str, str]:
    """``job -> "exit-code sha256"`` of the lines of a listing."""
    return dict(line.split(" ", 1) for line in lines if line.strip())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument(
        "--against", metavar="LISTING", help="print only the jobs that differ from this listing"
    )
    args = p.parse_args(argv)
    # one BLAS thread, as in bench/run.py: set before anything imports numpy
    os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    if args.against is None:
        for seed in args.seeds:
            for name in WORKLOAD_NAMES:
                print("\n".join(digests(name, seed)), flush=True)
        return 0
    old = _results(Path(args.against).read_text().splitlines())
    new = _results(
        line for seed in args.seeds for name in WORKLOAD_NAMES for line in digests(name, seed)
    )
    moved = [job for job in {**old, **new} if old.get(job) != new.get(job)]
    for job in moved:
        print(f"{job} {old.get(job, 'missing')} -> {new.get(job, 'missing')}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
