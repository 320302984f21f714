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


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = p.parse_args(argv)
    # one BLAS thread, as in bench/run.py: set before anything imports numpy
    os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    for seed in args.seeds:
        for name in WORKLOAD_NAMES:
            print("\n".join(digests(name, seed)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
