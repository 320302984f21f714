"""tools/output_digests.py: the listing and its comparison with a saved one."""
import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digests.py"

LISTING = {
    ("density-sweep", 1): ["density-sweep/1/a 0 aa", "density-sweep/1/b 1 bb"],
    ("transform-twins", 1): ["transform-twins/1/c 0 cc"],
    ("spectral-lift", 1): ["spectral-lift/1/d 0 dd"],
}


@pytest.fixture
def tool(monkeypatch):
    spec = importlib.util.spec_from_file_location("output_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "digests", lambda name, seed: LISTING[(name, seed)])
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts src/ and bench/ first
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, "1")
    return module


def test_listing_is_one_line_per_job(tool, capsys):
    assert tool.main(["--seeds", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == sum(LISTING.values(), [])


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
