"""CLI surface: formats, exit codes, determinism."""
import copy
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import graphonlab
from graphonlab import fileio
from graphonlab.cli import run

W2_DOC = {
    "masses": [0.5, 0.5],
    "blocks": [
        {"i": 0, "j": 0, "support": [1], "weights": [1.0]},
        {"i": 0, "j": 1, "support": [1], "weights": [2.0]},
        {"i": 1, "j": 1, "support": [1], "weights": [3.0]},
    ],
    "functionals": [{"id": "unit", "support": [1], "values": [1.0]}],
}

W1_DOC = {
    "masses": [1.0],
    "blocks": [{"i": 0, "j": 0, "support": [1], "weights": [0.5]}],
    "functionals": [{"id": "unit", "support": [1], "values": [1.0]}],
}

W3_DOC = {
    "masses": [0.2, 0.3, 0.5],
    "blocks": [
        {"i": i, "j": j, "support": [1, 2],
         "weights": [0.3 + 0.7 * i - 1.1 * j, 0.37 * (i + j) - 0.5]}
        for i in range(3) for j in range(i, 3)
    ],
    "functionals": [
        {"id": "unit", "support": [1], "values": [1.0]},
        {"id": "f", "support": [1, 2], "values": [0.6, -1.3]},
    ],
}

EDGE_DOC = {"n_vertices": 2, "edges": [{"u": 0, "v": 1, "psi": "unit"}]}

#: liftcheck on the double edge, up to the --kmax that follows
LIFTCHECK = ["liftcheck", "--graphon", "w3.json", "--graph", "double_edge.json",
             "--u", "0", "--v", "1", "--psi", "unit", "--kmax"]


@pytest.fixture
def files(tmp_path):
    paths = {}

    def write(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
        return str(p)

    write("w1.json", W1_DOC)
    write("w2.json", W2_DOC)
    write("w3.json", W3_DOC)
    write("edge.json", EDGE_DOC)
    write("badmass.json", {"masses": [0.6, 0.5], "blocks": [], "functionals": []})
    write(
        "labeled_edge.json",
        {"n_vertices": 2, "edges": [{"u": 0, "v": 1, "psi": "unit"}], "labels": {"0": 1}},
    )
    write("double_edge.json", {"n_vertices": 2, "edges": [{"u": 0, "v": 1, "psi": "unit", "multiplicity": 2}]})
    write("partition.json", {"class_of": [0, 0]})
    write("partition3.json", {"class_of": [0, 1, 0]})
    paths["tmp"] = str(tmp_path)
    return paths


def out_of(capsys) -> str:
    return capsys.readouterr().out


def test_density_prints_twelve_digits(files, capsys):
    assert run(["density", "--graphon", files["w2.json"], "--graph", files["edge.json"]]) == 0
    assert out_of(capsys) == "2.000000000000\n"


def test_density_dp_flag(files, capsys):
    assert run(["density", "--graphon", files["w2.json"], "--graph", files["edge.json"], "--dp"]) == 0
    assert out_of(capsys) == "2.000000000000\n"


def test_density_dp_flag_byte_identical(tmp_path, capsys):
    graphon = tmp_path / "w3.json"
    graphon.write_text(json.dumps(W3_DOC))
    graph = tmp_path / "k4.json"
    graph.write_text(json.dumps({"n_vertices": 4, "edges": [
        {"u": u, "v": v, "psi": "unit" if (u + v) % 2 else "f", "multiplicity": 1 + (u * v) % 3}
        for u in range(4) for v in range(u + 1, 4)
    ]}))
    argv = ["density", "--graphon", str(graphon), "--graph", str(graph)]
    assert run(argv) == 0
    plain = out_of(capsys)
    assert run(argv + ["--dp"]) == 0
    assert out_of(capsys) == plain
    assert plain != "0.000000000000\n"


def test_density_too_costly_exit_one(tmp_path, capsys):
    q = 64
    graphon = tmp_path / "q64.json"
    graphon.write_text(json.dumps({
        "masses": [1 / q] * q,
        "blocks": [],
        "functionals": [{"id": "unit", "support": [1], "values": [1.0]}],
    }))
    graph = tmp_path / "k8.json"
    graph.write_text(json.dumps({"n_vertices": 8, "edges": [
        {"u": u, "v": v, "psi": "unit"} for u in range(8) for v in range(u + 1, 8)
    ]}))
    code = run(["density", "--graphon", str(graphon), "--graph", str(graph)])
    captured = capsys.readouterr()
    assert code == 1
    assert "too-costly" in captured.err and str(q**8) in captured.err
    assert captured.out == ""


def test_mc_too_costly_exit_one(files, capsys):
    samples = str((1 << 26) + 1)
    code = run(["mc", "--graphon", files["w2.json"], "--graph", files["edge.json"],
                "--samples", samples, "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "too-costly" in captured.err and samples in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, entries",
    [
        (["pathkernel", "--graphon", "w3.json", "--psi", "unit", "--k", str(10**9)],
         (10**9 - 1) * 9),
        # q^2 block norms plus 32 for the printed partial sum, per term and order
        (["carleman", "--graphon", "w3.json", "--terms", str(10**7)], 10**7 * (9 + 32)),
        (["carleman", "--graphon", "w3.json", "--terms", str(10**6), "--kmax", "8"],
         10**6 * 8 * (9 + 32)),
        (["carleman", "--graphon", "w1.json", "--terms", str(2**25)], 2**25 * (1 + 32)),
        # q1^2 + q2^2 path kernel entries plus 4 printed values of 32, per k
        ([*LIFTCHECK, str(10**6)], 10**6 * (9 + 9 + 4 * 32)),
        # stencil and moment checks, (N + 1) * (1 + 2 * (D + 2)), plus 3 (N + 1) printed values
        (["momentpair", "--support", "2000000", "--order", "1"], 2000001 * (7 + 3 * 32)),
        # the (N + 1)^2 weights of each rank-1 graphon
        (["counterexample", "--support", "5792", "--order", "1"], 2 * 5793**2),
    ],
    ids=["pathkernel", "carleman", "carleman-kmax", "carleman-q1", "liftcheck", "momentpair",
         "counterexample"],
)
def test_size_flags_refused_before_the_work(files, capsys, argv, entries):
    tracemalloc.start()
    try:
        code = run([files.get(a, a) for a in argv])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error[too-costly]: ") and f" {entries} " in captured.err
    assert captured.out == ""
    assert peak < 1 << 20


def clique(n: int) -> dict:
    return {"n_vertices": n, "edges": [
        {"u": u, "v": v, "psi": "unit"} for u in range(n) for v in range(u + 1, n)
    ]}


def spread(S: int) -> dict:
    """W3 with its (0, 0) block on the support points 1..S, so S in all."""
    doc = copy.deepcopy(W3_DOC)
    doc["blocks"][0].update(support=list(range(1, S + 1)), weights=[1.0] * S)
    return doc


def sized(files, argv: list, n: int) -> list[str]:
    """``argv`` with ``"N"`` read as ``n``, a document builder as the file of
    its document at ``n``, and a fixture name as its path."""
    out = []
    for a in argv:
        if callable(a):
            path = os.path.join(files["tmp"], f"{a.__name__}{n}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(a(n), fh)
            a = path
        out.append(str(n) if a == "N" else files.get(a, a))
    return out


@pytest.mark.parametrize(
    "argv, largest, limit",
    [
        (["pathkernel", "--graphon", "w3.json", "--psi", "unit", "--k", "N"], 3, 2 * 9),
        (["carleman", "--graphon", "w3.json", "--kmax", "2", "--terms", "N"], 4, 4 * 2 * (9 + 32)),
        ([*LIFTCHECK, "N"], 3, 3 * (9 + 9 + 4 * 32)),  # kmax x (q1^2 + q2^2 + 4 x 32)
        (["validate", "--graphon", spread], 16, 3 * 3 * 16),  # q x q x S dense weights
        (["density", "--graphon", "w3.json", "--graph", clique], 4, 3**4),  # a bucket of K_n
        (["mc", "--graphon", "w3.json", "--graph", "edge.json", "--seed", "1", "--samples", "N"],
         1000, 1000),
        (["momentpair", "--order", "1", "--support", "N"], 5, 6 * (7 + 3 * 32)),
        # both rank-1 graphons, above the pair's 62 * (7 + 3 * 32) = 6,386
        (["counterexample", "--order", "1", "--support", "N"], 60, 2 * 61**2),
    ],
    ids=["pathkernel", "carleman", "liftcheck", "graphon-blocks", "density", "mc", "momentpair",
         "counterexample"],
)
def test_size_flag_limits_are_inclusive(monkeypatch, files, capsys, argv, largest, limit):
    monkeypatch.setattr(importlib.import_module("graphonlab.density"), "MAX_CONTRACTION", limit)
    assert run(sized(files, argv, largest)) == 0
    assert run(sized(files, argv, largest + 1)) == 1
    assert "error[too-costly]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, field, path",
    [
        (["validate", "--graphon"], ("masses", 0), "graphon.masses[0]"),
        (["validate", "--graphon"], ("blocks", 1, "weights", 0), "graphon.blocks[1].weights[0]"),
        (["validate", "--graphon"], ("functionals", 0, "values", 0),
         "graphon.functionals[0].values[0]"),
        (["carleman", "--moments"], ("moments", 1), "moments.moments[1]"),
    ],
    ids=["masses", "weights", "values", "moments"],
)
def test_integer_beyond_the_double_range_is_a_parse_error(tmp_path, capsys, argv, field, path):
    doc = copy.deepcopy(W2_DOC) if argv[0] == "validate" else {"moments": [1.0, 2.0, 5.0]}
    *keys, last = field
    parent = doc
    for key in keys:
        parent = parent[key]
    parent[last] = 10**400
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    assert run([*argv, str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error[parse]: {path}: number beyond the double range\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "content", [b'{"moments": [1, ' + b"1" * 5000 + b"]}", b"\xff\xfe{}"],
    ids=["5000-digit-integer", "not-utf-8"],
)
def test_unreadable_json_is_a_parse_error(tmp_path, capsys, content):
    p = tmp_path / "doc.json"
    p.write_bytes(content)
    assert run(["carleman", "--moments", str(p)]) == 2
    assert capsys.readouterr().err.startswith(f"error[parse]: {p} is not valid JSON: ")


def fresh_process(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of the CLI in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(graphonlab.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "graphonlab.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["quotient", "--partition", "merge3.json"],
        ["reduce", "--tol", "inf"],
        ["anchor", "--anchors", "0", "--psis", ""],
    ],
    ids=["quotient", "reduce", "anchor"],
)
def test_overflowing_quotient_exit_one(tmp_path, argv):
    doc = {
        "masses": [0.3954619895429785, 0.5930180594914136, 0.011519950965607978],
        "blocks": [
            {"i": i, "j": j, "support": [1], "weights": [1.7976931348623157e308]}
            for i in range(3) for j in range(i, 3)
        ],
        "functionals": [],
    }
    (tmp_path / "big.json").write_text(json.dumps(doc))
    (tmp_path / "merge3.json").write_text(json.dumps({"class_of": [0, 0, 0]}))
    argv = [arg if not arg.endswith(".json") else str(tmp_path / arg) for arg in argv]
    code, out, err = fresh_process([argv[0], "--graphon", str(tmp_path / "big.json"), *argv[1:]])
    assert (code, out) == (1, "")
    assert err.startswith("error[bad-measure]: quotient block (0, 0) merges classes [0, 1, 2]")
    assert "Warning" not in err and err.count("\n") == 1


def path_doc(n: int, labels: dict | None = None) -> dict:
    edges = [{"u": i, "v": i + 1, "psi": "unit"} for i in range(n - 1)]
    return {"n_vertices": n, "edges": edges, "labels": labels or {}}


#: two multiplicity-400 edges on either side of a labeled middle vertex
HEAVY_DOC = {
    "n_vertices": 3,
    "labels": {"1": 1},
    "edges": [{"u": 0, "v": 1, "psi": "unit", "multiplicity": 400},
              {"u": 1, "v": 2, "psi": "unit", "multiplicity": 400}],
}


@pytest.mark.parametrize(
    "argv, quantity",
    [
        (["density", "--graph", "path.json"], "the density t(F, W)"),
        (["marginal", "--graph", "labeled_path.json", "--anchors", "1:0"], "the marginal"),
        (["mc", "--graph", "path.json", "--samples", "100", "--seed", "1"],
         "the Monte Carlo mean"),
        (["productcheck", "--graph1", "heavy.json", "--graph2", "heavy.json"],
         "the product density"),
        (["pathkernel", "--psi", "unit", "--k", "1000"], "the path kernel of length 1000"),
        (["liftcheck", "--graph", "path.json", "--u", "0", "--v", "1", "--psi", "unit",
          "--kmax", "2"], "the direct density t(F^1, W1)"),
    ],
    ids=["density", "marginal", "mc", "productcheck", "pathkernel", "liftcheck"],
)
def test_non_finite_results_refused_exit_one(tmp_path, argv, quantity):
    # on w2 these overflowed to inf, or inf - inf, and printed it with exit 0
    (tmp_path / "w2.json").write_text(json.dumps(W2_DOC))
    (tmp_path / "path.json").write_text(json.dumps(path_doc(1100)))
    (tmp_path / "labeled_path.json").write_text(json.dumps(path_doc(1100, {"0": 1})))
    (tmp_path / "heavy.json").write_text(json.dumps(HEAVY_DOC))
    argv = [arg if not arg.endswith(".json") else str(tmp_path / arg) for arg in argv]
    code, out, err = fresh_process([argv[0], "--graphon", str(tmp_path / "w2.json"), *argv[1:]])
    assert (code, out) == (1, "")
    assert err == f"error[overflow]: {quantity} is not finite: it overflows a double\n"


#: one class whose block puts 1e308 on the point where ``f`` reads 10
BIG_KERNEL_DOC = {
    "masses": [1.0],
    "blocks": [{"i": 0, "j": 0, "support": [1], "weights": [1e308]}],
    "functionals": [{"id": "f", "support": [1], "values": [10.0]}],
}

#: one class whose block total variation is twice the largest double
BIG_NORM_DOC = {
    "masses": [1.0],
    "blocks": [{"i": 0, "j": 0, "support": [1, 2],
                "weights": [1.7976931348623157e308, 1.7976931348623157e308]}],
    "functionals": [],
}


@pytest.mark.parametrize(
    "argv, quantity",
    [
        (["kernel", "--graphon", "big_kernel.json", "--psi", "f"],
         "the path kernel of length 1"),
        (["eigen", "--graphon", "big_kernel.json", "--psi", "f"], "the kernel of 'f'"),
        (["anchor", "--graphon", "big_kernel.json", "--anchors", "0"], "the kernel of 'f'"),
        (["regularity", "--graphon", "big_kernel.json", "--anchors", "0"], "the kernel of 'f'"),
        (["mc", "--graphon", "big_kernel.json", "--graph", "edge.json", "--samples", "10",
          "--seed", "1"], "the Monte Carlo mean"),
        (["pnorm", "--graphon", "big_norm.json", "--p", "3"],
         "the largest block total variation"),
        (["carleman", "--graphon", "big_norm.json", "--terms", "3"],
         "the largest block total variation"),
    ],
    ids=["kernel", "eigen", "anchor", "regularity", "mc", "pnorm", "carleman"],
)
def test_overflowing_kernels_and_norms_refused_exit_one(tmp_path, argv, quantity):
    # these printed inf, nan or Infinity after numpy's overflow warning, or
    # (mc) refused only after that warning
    (tmp_path / "big_kernel.json").write_text(json.dumps(BIG_KERNEL_DOC))
    (tmp_path / "big_norm.json").write_text(json.dumps(BIG_NORM_DOC))
    (tmp_path / "edge.json").write_text(json.dumps({**EDGE_DOC, "edges": [
        {"u": 0, "v": 1, "psi": "f"}]}))
    argv = [arg if not arg.endswith(".json") else str(tmp_path / arg) for arg in argv]
    code, out, err = fresh_process(argv)
    assert (code, out) == (1, "")
    assert err == f"error[overflow]: {quantity} is not finite: it overflows a double\n"


def test_momentpair_stencil_beyond_the_doubles_refused(capsys):
    # C(1091, i) overflowed float() with an uncoded traceback
    code, out, err = in_process(["momentpair", "--support", "1100", "--order", "1090"], capsys)
    assert (code, out) == (1, "")
    assert err == (
        "error[bad-order]: the stencil of order 1091 (matched order 1090) has binomial "
        "coefficients beyond the double range; the largest matched order whose stencil "
        "fits in a double is 1028\n"
    )


def test_momentpair_moment_beyond_the_doubles_refused(capsys):
    code, out, err = in_process(["momentpair", "--support", "1100", "--order", "1028"], capsys)
    assert (code, out) == (1, "")
    assert err == "error[overflow]: the moment of order 102 on {0..1100} is beyond the double range\n"


def in_process(argv: list[str], capsys) -> tuple[int, str, str]:
    try:
        code = run(argv)
    except SystemExit as e:  # argparse reports usage errors by exiting
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_serves_every_run(files, tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{oops")
    target = tmp_path / "dp.txt"
    density = ["density", "--graphon", files["w2.json"], "--graph", files["double_edge.json"]]
    calls = [
        density + ["--dp", "--out", str(target)],
        density,  # neither --dp nor --out may carry over
        ["density", "--graphon", str(bad), "--graph", files["edge.json"]],
        ["density", "--graphon", files["w2.json"]],  # usage error: --graph missing
        ["twins", "--graphon", files["w2.json"]],
    ]
    results = [in_process(argv, capsys) for argv in calls]
    assert [code for code, _, _ in results] == [0, 0, 2, 2, 0]
    assert target.read_text() == results[1][1] != ""
    assert results[0][1] == ""
    target.unlink()
    assert results == [fresh_process(argv) for argv in calls]
    assert target.read_text() == results[1][1]


def test_validate_mass_sum_exit_one(files, capsys):
    code = run(["validate", "--graphon", files["badmass.json"]])
    captured = capsys.readouterr()
    assert code == 1
    assert "mass-sum" in captured.err
    assert captured.out == ""  # no partial output on failure


def test_validate_ok(files, capsys):
    assert run(["validate", "--graphon", files["w2.json"]]) == 0
    assert out_of(capsys) == "ok\n"


def test_validate_checks_the_graphon_once(files, capsys, monkeypatch):
    calls = []

    def counted(W):
        calls.append(W.q)
        return graphonlab.validate_graphon(W)

    for module in (fileio, graphonlab.cli):
        monkeypatch.setattr(module, "validate_graphon", counted)
    assert run(["validate", "--graphon", files["w2.json"]]) == 0
    assert out_of(capsys) == "ok\n"
    assert calls == [2]


def test_parse_error_exit_two(files, tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{oops")
    code = run(["density", "--graphon", str(bad), "--graph", files["edge.json"]])
    assert code == 2
    assert capsys.readouterr().err != ""


def test_unknown_psi_names_the_id(files, tmp_path, capsys):
    doc = {"n_vertices": 2, "edges": [{"u": 0, "v": 1, "psi": "ghost"}]}
    p = tmp_path / "ghost.json"
    p.write_text(json.dumps(doc))
    code = run(["density", "--graphon", files["w2.json"], "--graph", str(p)])
    captured = capsys.readouterr()
    assert code == 1
    assert "ghost" in captured.err


def test_marginal(files, capsys):
    code = run(
        ["marginal", "--graphon", files["w2.json"], "--graph", files["labeled_edge.json"], "--anchors", "1:0"]
    )
    assert code == 0
    assert out_of(capsys) == "1.500000000000\n"


def test_pnorm(files, capsys):
    assert run(["pnorm", "--graphon", files["w2.json"], "--p", "1"]) == 0
    assert out_of(capsys) == "2.000000000000\n"


def test_kernel_and_pathkernel(files, capsys):
    assert run(["kernel", "--graphon", files["w2.json"], "--psi", "unit"]) == 0
    assert out_of(capsys).splitlines()[0] == "1.000000000000 2.000000000000"
    assert run(["pathkernel", "--graphon", files["w2.json"], "--psi", "unit", "--k", "2"]) == 0
    lines = out_of(capsys).splitlines()
    assert lines == ["2.500000000000 4.000000000000", "4.000000000000 6.500000000000"]


def test_kernel_is_pathkernel_k1(tmp_path, capsys):
    q = 40
    rng = np.random.default_rng(40)
    A = rng.normal(size=(q, q, 3))
    masses = rng.random(q) + 0.1
    W = graphonlab.StepGraphon(
        tuple(masses / masses.sum()), np.array([1, 2, 5]), A + A.transpose(1, 0, 2),
        {"f": graphonlab.TestFunctional("f", (1, 2, 5), (0.7, -1.3, 2.1))},
    )
    path = tmp_path / "q40.json"
    path.write_text(fileio.dump_json(fileio.serialize_graphon(W)))
    assert run(["kernel", "--graphon", str(path), "--psi", "f"]) == 0
    kernel = out_of(capsys)
    assert run(["pathkernel", "--graphon", str(path), "--psi", "f", "--k", "1"]) == 0
    assert out_of(capsys) == kernel
    assert len(kernel.splitlines()) == q


def test_mc_deterministic_bytes(files, capsys):
    argv = ["mc", "--graphon", files["w2.json"], "--graph", files["edge.json"], "--samples", "5000", "--seed", "3"]
    assert run(argv) == 0
    first = out_of(capsys)
    assert run(argv) == 0
    second = out_of(capsys)
    assert first == second
    doc = json.loads(first)
    assert abs(doc["mean"] - 2.0) <= 5 * doc["stderr"]


def test_mc_negative_seed_refused(files, capsys):
    argv = ["mc", "--graphon", files["w2.json"], "--graph", files["edge.json"],
            "--samples", "5000", "--seed", "-1"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert "error[bad-seed]" in captured.err and "-1" in captured.err
    assert captured.out == ""


def test_mc_labeled_graph_refused(files, capsys):
    argv = ["mc", "--graphon", files["w2.json"], "--graph", files["labeled_edge.json"],
            "--samples", "5000", "--seed", "3"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert "error[labeled-graph]" in captured.err
    assert "drop the labels from the graph file" in captured.err
    assert captured.out == ""


def test_carleman_graphon(files, capsys):
    assert run(["carleman", "--graphon", files["w2.json"], "--k", "1", "--terms", "50"]) == 0
    doc = json.loads(out_of(capsys))
    assert doc["classification"] == "divergent"
    assert len(doc["partial_sums"]) == 50


def test_carleman_k_range(files, capsys):
    assert run(["carleman", "--graphon", files["w2.json"], "--kmax", "3", "--terms", "20"]) == 0
    docs = json.loads(out_of(capsys))
    assert [d["k"] for d in docs] == [1, 2, 3]
    assert all(d["classification"] == "divergent" for d in docs)


@pytest.mark.parametrize("kmax", ["0", "-1"])
def test_carleman_kmax_below_one_refused(files, capsys, kmax):
    assert run(["carleman", "--graphon", files["w2.json"], "--kmax", kmax]) == 1
    captured = capsys.readouterr()
    assert "error[bad-order]" in captured.err and "--kmax" in captured.err
    assert captured.out == ""


def test_carleman_moments_source(files, tmp_path, capsys):
    import math

    doc = {"moments": [math.exp(p / 2.0) for p in range(101)], "source": "symbolic"}
    p = tmp_path / "moments.json"
    p.write_text(json.dumps(doc))
    assert run(["carleman", "--moments", str(p), "--k", "1", "--terms", "50"]) == 0
    assert json.loads(out_of(capsys))["classification"] == "convergent"


@pytest.mark.parametrize(
    "flag, doc",
    [
        (
            "--graphon",
            {**W2_DOC, "masses": [1.0], "blocks": [{"i": 0, "j": 0, "support": [1], "weights": [1e-200]}]},
        ),
        ("--moments", {"moments": [1e-154] * 13, "source": "symbolic"}),
    ],
    ids=["graphon", "moments"],
)
def test_carleman_overflow_is_divergent(tmp_path, capsys, flag, doc):
    p = tmp_path / "tiny.json"
    p.write_text(json.dumps(doc))
    assert run(["carleman", flag, str(p), "--k", "2", "--terms", "3"]) == 0
    out = json.loads(out_of(capsys))
    assert out["classification"] == "divergent"
    assert out["partial_sums"][1:] == [math.inf, math.inf]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["pnorm", "--p", "nan"], "bad-p"),
        (["twins", "--tol", "nan"], "bad-tolerance"),
        (["reduce", "--tol", "nan"], "bad-tolerance"),
    ],
    ids=["pnorm", "twins", "reduce"],
)
def test_nan_flags_refused(files, capsys, argv, code):
    assert run([argv[0], "--graphon", files["w2.json"], *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert f"error[{code}]" in captured.err
    assert captured.out == ""


def test_infinite_flags_accepted(files, capsys):
    assert run(["pnorm", "--graphon", files["w2.json"], "--p", "inf"]) == 0
    assert out_of(capsys) == "3.000000000000\n"
    assert run(["twins", "--graphon", files["w2.json"], "--tol", "inf"]) == 0
    assert json.loads(out_of(capsys)) == {"class_of": [0, 0]}
    assert run(["reduce", "--graphon", files["w2.json"], "--tol", "inf"]) == 0
    assert fileio.parse_graphon(json.loads(out_of(capsys))).q == 1


def test_quotient_and_reduce(files, capsys):
    assert run(["quotient", "--graphon", files["w2.json"], "--partition", files["partition.json"]]) == 0
    W = fileio.parse_graphon(json.loads(out_of(capsys)))
    assert W.q == 1
    assert run(["reduce", "--graphon", files["w2.json"]]) == 0
    R = fileio.parse_graphon(json.loads(out_of(capsys)))
    assert R.q == 2  # w2 is twin-free


def test_twins(files, capsys):
    assert run(["twins", "--graphon", files["w2.json"]]) == 0
    assert json.loads(out_of(capsys)) == {"class_of": [0, 1]}


def test_anchor_and_regularity(files, capsys):
    assert run(["anchor", "--graphon", files["w2.json"], "--anchors", "0", "--psis", "unit"]) == 0
    doc = json.loads(out_of(capsys))
    assert doc["features"] == [[1.0], [2.0]]
    assert len(doc["graphon"]["masses"]) == 2
    assert run(["regularity", "--graphon", files["w2.json"], "--anchors", "0,1"]) == 0
    assert out_of(capsys) == "true\n"


def test_eigen(files, capsys):
    assert run(["eigen", "--graphon", files["w2.json"], "--psi", "unit"]) == 0
    lines = out_of(capsys).splitlines()
    assert len(lines) == 3  # eigenvalue row plus 2 basis rows
    assert lines[0].startswith("2.118033988750")


def test_liftcheck(files, capsys):
    code = run(
        [
            "liftcheck",
            "--graphon", files["w2.json"],
            "--graph", files["double_edge.json"],
            "--u", "0", "--v", "1",
            "--psi", "unit",
            "--kmax", "5",
        ]
    )
    assert code == 0
    doc = json.loads(out_of(capsys))
    assert doc["max_discrepancy"] <= 1e-8
    assert doc["densities_agree"] is True


def test_momentpair_and_counterexample(files, capsys):
    assert run(["momentpair", "--support", "5", "--order", "3", "--seed", "1"]) == 0
    pair = json.loads(out_of(capsys))
    assert pair["p"] == pytest.approx([x / 36 for x in (7, 2, 12, 2, 7, 6)])
    assert run(["counterexample", "--support", "5", "--order", "3", "--seed", "1"]) == 0
    rep = json.loads(out_of(capsys))
    assert rep["witness_gap"] == pytest.approx((4 / 3) * 2.5**4, abs=1e-6)
    assert rep["max_discrepancy_low_degree"] <= 1e-10


def test_productcheck(files, tmp_path, capsys):
    assert run(
        [
            "productcheck",
            "--graphon", files["w2.json"],
            "--graph1", files["labeled_edge.json"],
            "--graph2", files["labeled_edge.json"],
        ]
    ) == 0
    value = float(out_of(capsys))
    assert value <= 1e-10


def test_out_flag_writes_file(files, tmp_path, capsys):
    target = tmp_path / "result.txt"
    assert run(
        ["density", "--graphon", files["w2.json"], "--graph", files["edge.json"], "--out", str(target)]
    ) == 0
    assert out_of(capsys) == ""
    assert target.read_text() == "2.000000000000\n"


def test_repeated_runs_byte_identical(files, capsys):
    for argv in (
        ["counterexample", "--support", "5", "--order", "3", "--seed", "1"],
        ["eigen", "--graphon", files["w2.json"], "--psi", "unit"],
        ["reduce", "--graphon", files["w2.json"]],
    ):
        assert run(argv) == 0
        first = out_of(capsys)
        assert run(argv) == 0
        assert out_of(capsys) == first


def test_graphon_too_costly_exit_one(tmp_path, capsys):
    q, S = 4000, 100
    graphon = tmp_path / "wide.json"
    graphon.write_text(json.dumps({
        "masses": [1 / q] * q,
        "blocks": [{"i": 0, "j": 1, "support": list(range(S)), "weights": [1.0] * S}],
        "functionals": [],
    }))
    assert run(["validate", "--graphon", str(graphon)]) == 1
    captured = capsys.readouterr()
    assert "error[too-costly]" in captured.err and str(q * q * S) in captured.err
    assert captured.out == ""


JSON_COMMANDS = {
    "mc": ["mc", "--graphon", "w2.json", "--graph", "edge.json", "--samples", "1000", "--seed", "5"],
    "carleman-k": ["carleman", "--graphon", "w3.json", "--k", "2", "--terms", "5"],
    "carleman-kmax": ["carleman", "--graphon", "w2.json", "--kmax", "3", "--terms", "4"],
    "quotient": ["quotient", "--graphon", "w3.json", "--partition", "partition3.json"],
    "twins": ["twins", "--graphon", "w3.json"],
    "reduce": ["reduce", "--graphon", "w3.json"],
    "anchor": ["anchor", "--graphon", "w3.json", "--anchors", "0,2"],
    "liftcheck": ["liftcheck", "--graphon", "w2.json", "--graph", "double_edge.json",
                  "--u", "0", "--v", "1", "--psi", "unit", "--kmax", "3"],
    "momentpair": ["momentpair", "--support", "5", "--order", "3"],
    "counterexample": ["counterexample", "--support", "5", "--order", "3"],
}


def resolve(files, argv: list[str]) -> list[str]:
    return [files.get(a, a) for a in argv]


@pytest.mark.parametrize("name", list(JSON_COMMANDS))
def test_json_output_is_json_dumps_indent_2(files, capsys, name):
    assert run(resolve(files, JSON_COMMANDS[name])) == 0
    out = out_of(capsys)
    assert out.endswith("}\n") or out.endswith("]\n")
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


#: the keys of each report document in the order they are written, which is
#: the field order of the dataclass the command returns
REPORT_KEYS = {
    "mc": ["mean", "stderr", "samples", "seed"],
    "carleman-k": ["k", "classification", "growth_fit", "partial_sums"],
    "twins": ["class_of"],
    "liftcheck": ["psi", "kmax", "direct_a", "direct_b", "spectral_a", "spectral_b",
                  "max_discrepancy", "powers_match", "groups", "groups_match", "t_f_a", "t_f_b",
                  "densities_agree"],
    "momentpair": ["support_size", "order", "p", "q", "epsilon", "null_vector"],
    "counterexample": ["pair", "graphs", "max_discrepancy_low_degree", "witness_graph",
                       "witness_gap"],
}


@pytest.mark.parametrize("name", list(REPORT_KEYS))
def test_report_documents_keep_their_keys(files, capsys, name):
    assert run(resolve(files, JSON_COMMANDS[name])) == 0
    doc = json.loads(out_of(capsys))
    assert list(doc) == REPORT_KEYS[name]
    if name == "liftcheck":
        assert [list(g) for g in doc["groups"]] == [["value", "sum_a", "sum_b", "matched"]] * len(
            doc["groups"]
        )
    if name == "counterexample":
        assert list(doc["pair"]) == REPORT_KEYS["momentpair"]
        for record in doc["graphs"]:
            assert list(record) == ["graph", "max_degree", "density_p", "density_q", "gap"]
        for graph in [r["graph"] for r in doc["graphs"]] + [doc["witness_graph"]]:
            assert list(graph) == ["n_vertices", "labels", "edges"]


def test_carleman_kmax_writes_one_report_per_order(files, capsys):
    assert run(resolve(files, JSON_COMMANDS["carleman-kmax"])) == 0
    docs = json.loads(out_of(capsys))
    assert [d["k"] for d in docs] == [1, 2, 3]
    assert all(list(d) == REPORT_KEYS["carleman-k"] for d in docs)


#: sha256 of stdout, recorded before graphons were written straight from their arrays
GRAPHON_OUTPUTS = {
    "quotient-w2": (["quotient", "--graphon", "w2.json", "--partition", "partition.json"],
                    "10ee8c8d0261a3a32d5dcc4d6115f84aea9c8975857ca698972e37fe751d4c6b"),
    "reduce-w2": (["reduce", "--graphon", "w2.json"],
                  "f2bc6032b4c3023bcc3961cc92abecea40876866cd33050d404842e1905f1c31"),
    "anchor-w2": (["anchor", "--graphon", "w2.json", "--anchors", "0", "--psis", "unit"],
                  "387cfcf9e5df0ef0103780ba6e44b6819931e9bd821704f3b7b1a925d9781608"),
    "quotient-w3": (JSON_COMMANDS["quotient"],
                    "64a3b6d7f54e14c0d7b20e40eff9b1e58f619573cdd696fa8a282e4b19894878"),
    "reduce-w3": (JSON_COMMANDS["reduce"],
                  "102236837f28b4a9c185df64ec29e0fd4a4f98bde3e3e76ea52d940100fae5d8"),
    "anchor-w3": (JSON_COMMANDS["anchor"],
                  "ab76dde5442178b722529bb5af464d5b2f2b782c61deebe5e8932cf3702f905d"),
}


@pytest.mark.parametrize("name", list(GRAPHON_OUTPUTS))
def test_graphon_output_bytes_pinned(files, capsys, name):
    argv, digest = GRAPHON_OUTPUTS[name]
    assert run(resolve(files, argv)) == 0
    assert hashlib.sha256(out_of(capsys).encode()).hexdigest() == digest
