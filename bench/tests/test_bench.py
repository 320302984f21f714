"""The benchmark's own tests: checks, fixtures, the enumeration cap, tracing.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fixtures as fx
import run as bench_run
from graphonlab import cli
from tracing import SPANS, LEAVES, Tracer, layer_metrics
from workloads import WORKLOADS, Builder, Workload, density_sweep

BENCH = Path(bench_run.__file__).resolve().parent


def one_job(workload: Workload, name: str) -> Workload:
    return Workload(workload.name, [j for j in workload.jobs if j.name == name])


def test_correct_density_passes_and_perturbed_digit_fails(tmp_path):
    wl = one_job(density_sweep(str(tmp_path), 1), "dp:C7@q8")
    good = bench_run.Runner(wl, cli.run)
    good.warm_up()
    assert (good.attempted, good.failed) == (1, 0)

    def perturbed(argv):
        rc = cli.run(argv)
        out = Path(argv[argv.index("--out") + 1])
        text = out.read_text()
        i = text.index(".") + 8
        out.write_text(text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1 :])
        return rc

    bad = bench_run.Runner(wl, perturbed)
    bad.warm_up()
    assert (bad.attempted, bad.failed) == (1, 1)


def test_wrong_twin_partition_fails(tmp_path):
    b = Builder(str(tmp_path), 1)
    G = fx.make_graphon(b.rng, 16, 4)
    b.twins("q16S4", G)
    planted = G.twin_partition()

    def writer(class_of):
        def fake_run(argv):
            Path(argv[argv.index("--out") + 1]).write_text(json.dumps({"class_of": class_of}))
            return 0

        return fake_run

    right = bench_run.Runner(b.build("twins"), writer(planted))
    right.warm_up()
    assert (right.attempted, right.failed) == (1, 0)
    wrong = list(planted)
    wrong[wrong.index(1)] = 0  # merge one class into another
    runner = bench_run.Runner(b.build("twins"), writer(wrong))
    runner.warm_up()
    assert (runner.attempted, runner.failed) == (1, 1)


def test_timed_output_must_match_warm_up_bytes(tmp_path):
    wl = one_job(density_sweep(str(tmp_path), 1), "dp:P10@q8")
    calls = []

    def drifting(argv):
        rc = cli.run(argv)
        calls.append(1)
        if len(calls) > 1:
            with open(argv[argv.index("--out") + 1], "a") as fh:
                fh.write(" ")
        return rc

    runner = bench_run.Runner(wl, drifting)
    runner.warm_up()
    runner.timed_pass()
    assert (runner.attempted, runner.failed) == (2, 1)


def shape(wl: Workload):
    """Subcommands, flags and input sizes of every job, without values."""
    out = []
    for job in wl.jobs:
        sizes = []
        for arg in job.argv:
            if arg.endswith(".json") and "partition" not in arg:
                doc = json.loads(Path(arg).read_text())
                sizes.append(len(doc["masses"]) if "masses" in doc else doc["n_vertices"])
        flags = [a for a in job.argv if a.startswith("--")]
        out.append((job.name, job.argv[0], flags, sizes))
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_two_seeds_same_shape_different_values(tmp_path, name):
    a = WORKLOADS[name](str(tmp_path / "a"), 1)
    b = WORKLOADS[name](str(tmp_path / "b"), 2)
    assert shape(a) == shape(b)
    assert len(a.jobs) % 2 == 1  # the median job time is one job's own samples
    graphons = [
        arg for job in a.jobs for arg in job.argv if arg.endswith("-graphon.json")
    ]
    for path_a in set(graphons):
        path_b = path_a.replace(str(tmp_path / "a"), str(tmp_path / "b"))
        assert Path(path_a).read_text() != Path(path_b).read_text()


def test_same_seed_same_inputs(tmp_path):
    a = density_sweep(str(tmp_path / "a"), 7)
    b = density_sweep(str(tmp_path / "b"), 7)

    def argvs(wl, root):
        return [[arg.replace(str(root), "") for arg in job.argv] for job in wl.jobs]

    assert argvs(a, tmp_path / "a") == argvs(b, tmp_path / "b")
    for f in (tmp_path / "a").glob("*.json"):
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()


def test_cap_rejects_path10_enumeration(tmp_path):
    rng = np.random.default_rng(0)
    b = Builder(str(tmp_path), 0)
    with pytest.raises(fx.CapExceeded):
        b.density("P10@q8", fx.make_graphon(rng, 8, 4), fx.path(rng, 10), dp=False)
    b.density("P10@q8", fx.make_graphon(rng, 8, 4), fx.path(rng, 10), dp=True)


def test_cap_rejects_productcheck_of_two_six_vertex_graphs(tmp_path):
    rng = np.random.default_rng(0)
    F1, F2 = fx.labeled_pair(rng, 6, 2)
    assert fx.productcheck_count(8, F1.n, F2.n, 2) > 8**10  # 10 merged vertices
    b = Builder(str(tmp_path), 0)
    with pytest.raises(fx.CapExceeded):
        b.productcheck("P6x2@q8", fx.make_graphon(rng, 8, 4), F1, F2)


def test_planted_twins_are_exact_copies():
    G = fx.make_graphon(np.random.default_rng(3), 16, 4)
    assert G.n_distinct == 12
    K = G.kernel("f1")
    part = G.twin_partition()
    for i in range(G.q):
        for j in range(G.q):
            assert (part[i] == part[j]) == bool(np.array_equal(K[i], K[j]))


def test_tail_leaves_ten_samples_beyond():
    value, pct, n = bench_run.tail([float(x) for x in range(100)])
    assert (value, pct, n) == (89.0, 90.0, 100)
    assert sum(1 for x in range(100) if x > value) == bench_run.TAIL_BEYOND


def test_tracer_restores_names_and_counts_assignments(tmp_path):
    import importlib

    wl = density_sweep(str(tmp_path), 1)
    wl = Workload(wl.name, [j for j in wl.jobs if j.name in ("density:K4m@q8", "dp:K4m@q8")])
    before = {
        key: getattr(importlib.import_module(f"graphonlab.{key[0]}"), key[1])
        for key in list(SPANS) + list(LEAVES)
    }
    runner = bench_run.Runner(wl, cli.run)
    runner.warm_up()
    tracer = Tracer()
    tracer.install()
    try:
        runner.timed_pass(tracer)
    finally:
        tracer.remove()
    after = {key: getattr(importlib.import_module(f"graphonlab.{key[0]}"), key[1]) for key in before}
    assert after == before
    assert runner.failed == 0
    m = layer_metrics(tracer)
    assert m["density.assignments"] == (8**4, "count")
    assert m["density.eliminate.calls"] == (1, "count")
    assert m["fileio.load.calls"] == (4, "count")
    assert m["density.enumerate.self_s"][0] > 0
    assert all(s[2] >= s[1] for s in tracer.spans)
    jobs = [s for s in tracer.spans if s[0] == "cli"]
    assert [s[4] for s in jobs] == ["density:K4m@q8", "dp:K4m@q8"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", "density-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
