"""tools/output_digests.py: the listing, its comparison with a saved one, and
the committed seed-1 listing that every job's output bytes must match; and a
fixed run of tools/fuzz.py."""
import importlib.util
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "output_digests.py"
#: ``python3 tools/output_digests.py --seeds 1 > tests/output_digests_seed1.txt``
SEED_1_LISTING = ROOT / "tests" / "output_digests_seed1.txt"

LISTING = {
    ("density-sweep", 1): ["density-sweep/1/a 0 aa", "density-sweep/1/b 1 bb"],
    ("transform-twins", 1): ["transform-twins/1/c 0 cc"],
    ("spectral-lift", 1): ["spectral-lift/1/d 0 dd"],
}


def load_tool():
    spec = importlib.util.spec_from_file_location("output_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tool(monkeypatch):
    module = load_tool()
    monkeypatch.setattr(module, "digests", lambda name, seed: LISTING[(name, seed)])
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts src/ and bench/ first
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, "1")
    return module


def test_listing_is_one_line_per_job(tool, capsys):
    assert tool.main(["--seeds", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == [tool.versions()] + sum(LISTING.values(), [])


def test_against_the_same_listing_prints_nothing(tool, tmp_path, capsys):
    saved = tmp_path / "listing.txt"
    saved.write_text("\n".join(sum(LISTING.values(), [])) + "\n")
    assert tool.main(["--seeds", "1", "--against", str(saved)]) == 0
    assert capsys.readouterr().out == ""


def test_against_prints_each_job_that_differs(tool, tmp_path, capsys):
    saved = tmp_path / "listing.txt"
    saved.write_text(
        "density-sweep/1/a 0 aa\n"
        "density-sweep/1/b 0 bb\n"  # another exit code
        "transform-twins/1/c 0 ff\n"  # another digest
        "spectral-lift/1/gone 0 ee\n"  # a job this side does not run
    )
    assert tool.main(["--seeds", "1", "--against", str(saved)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "density-sweep/1/b 0 bb -> 1 bb",
        "transform-twins/1/c 0 ff -> 0 cc",
        "spectral-lift/1/gone 0 ee -> missing",
        "spectral-lift/1/d missing -> 0 dd",
    ]


def test_seed_1_outputs_match_the_committed_listing(monkeypatch):
    """Every benchmark job at seed 1 prints the committed bytes and exit code.

    A change that moves output bytes on purpose writes the listing again
    (the command above ``SEED_1_LISTING``) and names the jobs that moved.
    """
    tool = load_tool()
    header, *saved = SEED_1_LISTING.read_text().splitlines()
    if header != tool.versions():
        pytest.skip(f"the listing is from {header[2:]}; this is {tool.versions()[2:]}")
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    now = [line for name in tool.WORKLOAD_NAMES for line in tool.digests(name, 1)]
    changes = tool.moved(saved, now)
    assert not changes, "outputs moved:\n" + "\n".join(changes)


def test_fuzzed_jobs_keep_the_exit_contract(monkeypatch):
    """A fixed run of tools/fuzz.py: coded exits only, one error line, no
    traceback, no special float on stdout, the same bytes twice.

    Its 1,000 jobs include files nested thousands of levels deep, on which
    json's decoder raises RecursionError, flags given values at the
    edges of their types (a NaN tolerance, 2^63 samples), ill-typed flag
    values, and values such as ``-inf`` written as a token of their own.
    """
    spec = importlib.util.spec_from_file_location("fuzz", ROOT / "tools" / "fuzz.py")
    fuzz = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fuzz)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    start = time.perf_counter()
    n, failures = fuzz.fuzz(seed=1, count=1000)
    assert n == 1000
    assert not failures, "\n".join(failures)
    assert time.perf_counter() - start < 10.0
