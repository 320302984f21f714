"""Density engine: elimination, Monte Carlo and identities, against the oracles."""
import ast
import importlib
import itertools
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphonlab as gl
from graphonlab.errors import ValidationError

from conftest import (
    enumerate_density,
    fraction_density,
    rand_graph,
    rand_graphon,
    scalar_graphon,
    two_pass_plan,
)

# the package binds the name ``density`` to the function
density_module = importlib.import_module("graphonlab.density")


def brute_density(F: gl.DecoratedMultigraph, W: gl.StepGraphon) -> float:
    """Independent oracle: plain python loop over all class assignments."""
    q = W.q
    kernels = {psi: gl.kernel_matrix(W, psi) for psi in F.psi_ids}
    total = 0.0
    for assign in itertools.product(range(q), repeat=F.n_vertices):
        term = 1.0
        for v in assign:
            term *= W.masses[v]
        for u, v, psi, m in F.edges:
            term *= kernels[psi][assign[u], assign[v]] ** m
        total += term
    return total


def test_density_edge(w2):
    assert brute_density(gl.edge_graph(), w2) == pytest.approx(2.0, abs=1e-14)
    assert gl.density(gl.edge_graph(), w2) == pytest.approx(2.0, abs=1e-12)


def test_density_triangle(w2):
    tri = gl.cycle_graph(3)
    assert brute_density(tri, w2) == pytest.approx(9.5, abs=1e-13)
    assert gl.density(tri, w2) == pytest.approx(9.5, abs=1e-12)


def test_density_constant_kernel_one():
    W = scalar_graphon((0.3, 0.7), [[1.0, 1.0], [1.0, 1.0]])
    for F in (gl.edge_graph(), gl.cycle_graph(4), gl.star_graph(3)):
        assert gl.density(F, W) == pytest.approx(1.0, abs=1e-12)


def test_density_empty_and_edgeless():
    W = scalar_graphon((0.5, 0.5), [[1, 2], [2, 3]])
    assert gl.density(gl.DecoratedMultigraph(0), W) == 1.0
    assert gl.density(gl.DecoratedMultigraph(1), W) == pytest.approx(1.0, abs=1e-15)


def test_density_rejects_labels(w2):
    F = gl.relabel(gl.edge_graph(), 0, 1)
    with pytest.raises(ValidationError):
        gl.density(F, w2)
    assert gl.density(F, w2, ignore_labels=True) == pytest.approx(2.0, abs=1e-12)


def test_density_unknown_decoration(w2):
    with pytest.raises(ValidationError) as e:
        gl.density(gl.edge_graph("mystery"), w2)
    assert e.value.code == "unknown-functional"


def test_marginal_examples(w2):
    half_edge = gl.relabel(gl.edge_graph(), 0, 1)
    # oracle: 0.5 * K[0,0] + 0.5 * K[0,1]
    assert gl.marginal(half_edge, w2, {1: 0}) == pytest.approx(1.5, abs=1e-12)
    both = gl.relabel(half_edge, 1, 2)
    assert gl.marginal(both, w2, {1: 0, 2: 1}) == pytest.approx(2.0, abs=1e-14)
    assert gl.marginal(gl.edge_graph(), w2, {}) == pytest.approx(2.0, abs=1e-12)


def test_marginal_zero_row_annihilates():
    W = scalar_graphon((0.5, 0.5), [[0.0, 0.0], [0.0, 2.0]])
    F = gl.relabel(gl.edge_graph(), 0, 1)
    assert gl.marginal(F, W, {1: 0}) == 0.0


def test_marginal_requires_anchor(w2):
    F = gl.relabel(gl.edge_graph(), 0, 1)
    with pytest.raises(ValidationError) as e:
        gl.marginal(F, w2, {})
    assert e.value.code == "missing-anchor"
    with pytest.raises(ValidationError):
        gl.marginal(F, w2, {1: 9})


def test_density_dp_path_matches_brute():
    rng = np.random.default_rng(11)
    W = rand_graphon(rng, 3)
    path = gl.path_graph(5, "e1")
    assert gl.density(path, W) == pytest.approx(brute_density(path, W), abs=1e-10)


def test_density_dp_star_closed_form(w2):
    # oracle: a star with L leaves integrates to sum_i pi_i * (row mean)**L
    K = gl.kernel_matrix(w2, "unit")
    rows = K @ np.asarray(w2.masses)
    for leaves in (1, 2, 3, 4):
        star = gl.star_graph(leaves)
        oracle = float(np.asarray(w2.masses) @ rows**leaves)
        assert gl.density(star, w2) == pytest.approx(oracle, rel=1e-12)


def test_density_dp_single_vertex(w2):
    assert float(gl.eliminate(gl.DecoratedMultigraph(1), w2)) == pytest.approx(1.0, abs=1e-15)


def test_density_dp_wide_buckets_match_fraction_oracle():
    # the first vertex summed out of each graph meets three or more
    # factors, pinned hub or not
    def complete(n):
        return tuple((u, v, "unit", 1) for u, v in itertools.combinations(range(n), 2))

    rim = tuple((i, i % 4 + 1, "e1", 2) for i in range(1, 5))
    spokes = tuple((0, i, "unit", i % 2 + 1) for i in range(1, 5))
    wheel = gl.DecoratedMultigraph(5, rim + spokes, {0: 1})
    K4, K5 = (gl.DecoratedMultigraph(n, complete(n)) for n in (4, 5))
    W = rand_graphon(np.random.default_rng(21), 3)
    for F, pinned in [(K4, {}), (K5, {}), (wheel, {})] + [(wheel, {0: c}) for c in range(W.q)]:
        scopes = [tuple(x for x in (u, v) if x not in pinned) for u, v, _, _ in F.edges]
        steps, _ = density_module._plan(scopes, ())
        assert len(steps[0][1]) >= 3
        got = gl.marginal(F, W, {1: pinned[0]}) if pinned else gl.density(F, W, ignore_labels=True)
        assert close_to_exact(got, fraction_density(F, W, pinned))


def test_density_dp_equals_density_random():
    rng = np.random.default_rng(12)
    for _ in range(25):
        W = rand_graphon(rng, int(rng.integers(2, 5)))
        F = rand_graph(rng, max_vertices=8)
        a = enumerate_density(F, W, {})
        assert abs(a - gl.density(F, W)) <= 1e-10 * max(1.0, abs(a))


def test_multiplicative_over_disjoint_union():
    rng = np.random.default_rng(13)
    for _ in range(10):
        W = rand_graphon(rng, int(rng.integers(2, 4)))
        F1 = rand_graph(rng, max_vertices=4)
        F2 = rand_graph(rng, max_vertices=4)
        union = gl.product(F1, F2)  # no shared labels: disjoint union
        lhs = gl.density(union, W)
        rhs = gl.density(F1, W) * gl.density(F2, W)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_label_invariance():
    rng = np.random.default_rng(14)
    for _ in range(10):
        W = rand_graphon(rng, int(rng.integers(2, 4)))
        F = rand_graph(rng, max_vertices=4)
        v = int(rng.integers(0, F.n_vertices))
        labeled = gl.relabel(F, v, 1)
        marginals = [gl.marginal(labeled, W, {1: c}) for c in range(W.q)]
        for c, m in enumerate(marginals):
            assert m == pytest.approx(enumerate_density(F, W, {v: c}), rel=1e-10, abs=1e-12)
        total = math.fsum(W.masses[c] * m for c, m in enumerate(marginals))
        assert total == pytest.approx(enumerate_density(F, W, {}), rel=1e-10, abs=1e-12)


def test_mc_constant_kernel_zero_variance():
    W = scalar_graphon((0.4, 0.6), [[1.0, 1.0], [1.0, 1.0]])
    est = gl.mc_density(gl.cycle_graph(3), W, samples=500, seed=0)
    assert est.mean == 1.0
    assert est.stderr == 0.0


def test_mc_within_error_bars(w2):
    est = gl.mc_density(gl.edge_graph(), w2, samples=100_000, seed=42)
    assert abs(est.mean - 2.0) <= 4 * est.stderr
    assert est.stderr > 0


def test_mc_deterministic(w2):
    a = gl.mc_density(gl.edge_graph(), w2, samples=2000, seed=9)
    b = gl.mc_density(gl.edge_graph(), w2, samples=2000, seed=9)
    assert a == b
    c = gl.mc_density(gl.edge_graph(), w2, samples=2000, seed=10)
    assert c != a


def test_mc_negative_seed_refused(monkeypatch, w2):
    def no_draw(*args):
        raise AssertionError("drew classes for a refused seed")

    monkeypatch.setattr(density_module._ClassSampler, "draw", no_draw)
    with pytest.raises(ValidationError) as e:
        gl.mc_density(gl.edge_graph(), w2, samples=10, seed=-1)
    assert e.value.code == "bad-seed"


def overflow_refused(fn) -> str:
    """The message of the ``overflow`` refusal ``fn()`` raises; a warning fails the test."""
    with pytest.raises(ValidationError) as e:
        fn()
    assert e.value.code == "overflow"
    return str(e.value)


def test_non_finite_results_refused(w2):
    path = gl.path_graph(1099)  # 1,100 vertices
    heavy = gl.DecoratedMultigraph(3, ((0, 1, "unit", 400), (1, 2, "unit", 400)), {1: 1})
    assert overflow_refused(lambda: gl.density(path, w2)).startswith("the density t(F, W) ")
    labeled = gl.relabel(path, 0, 1)
    assert overflow_refused(lambda: gl.marginal(labeled, w2, {1: 0})).startswith("the marginal ")
    assert overflow_refused(lambda: gl.mc_density(path, w2, 50, 1)).startswith(
        "the Monte Carlo mean "
    )
    assert overflow_refused(lambda: gl.product_identity_residual(heavy, heavy, w2)).startswith(
        "the product density "
    )
    assert overflow_refused(lambda: gl.path_kernel(w2, "unit", 1000)).startswith(
        "the path kernel of length 1000 "
    )


def test_mc_standard_error_beyond_the_doubles_refused():
    # a finite mean, about 2.5e199, whose squared deviations overflow
    W = scalar_graphon((0.5, 0.5), [[1e200, 0.0], [0.0, 0.0]])
    message = overflow_refused(lambda: gl.mc_density(gl.edge_graph(), W, 1000, 3))
    assert message == "the Monte Carlo standard error is not finite: it overflows a double"


def test_product_identity_pinned_sum_beyond_the_doubles_refused(monkeypatch, w2):
    # four finite pinned terms of 5.6e307 whose sum is beyond the doubles,
    # against a finite product density
    def contraction(F, W, keep=(), *, pinned=None):
        return np.full((W.q,) * len(keep), 1.5e154) if keep else np.ones(())

    monkeypatch.setattr(density_module, "eliminate", contraction)
    F = gl.DecoratedMultigraph(2, ((0, 1, "unit", 1),), {0: 1, 1: 2})
    message = overflow_refused(lambda: gl.product_identity_residual(F, F, w2))
    assert message == "the pinned sum of marginal products is not finite: it overflows a double"


def test_mc_statistical_coverage():
    # spec property: within 4 standard errors in at least 99% of seeds
    rng = np.random.default_rng(15)
    W = rand_graphon(rng, 3)
    F = gl.path_graph(2, "e1")
    exact = gl.density(F, W)
    hits = 0
    for seed in range(200):
        est = gl.mc_density(F, W, samples=2000, seed=seed)
        if abs(est.mean - exact) <= 4 * est.stderr:
            hits += 1
    assert hits >= 198


def check_product_identity(F1, F2, W):
    """The residual is small, and the enumerated sides agree with each other
    and with the library's density of the product."""
    labels = sorted(F1.label_set)
    lhs = enumerate_density(gl.product(F1, F2), W, {})
    terms = []
    for classes in itertools.product(range(W.q), repeat=len(labels)):
        pin1 = {F1.vertex_of_label(l): c for l, c in zip(labels, classes)}
        pin2 = {F2.vertex_of_label(l): c for l, c in zip(labels, classes)}
        weight = math.prod(W.masses[c] for c in classes)
        terms.append(weight * enumerate_density(F1, W, pin1) * enumerate_density(F2, W, pin2))
    assert abs(lhs - math.fsum(terms)) <= 1e-10
    assert gl.product_identity_residual(F1, F2, W) <= 1e-10
    got = gl.density(gl.product(F1, F2), W, ignore_labels=True)
    assert abs(got - lhs) <= 1e-10 * max(1.0, abs(lhs))


def test_product_identity_unlabeled_factorizes():
    rng = np.random.default_rng(16)
    for _ in range(5):
        W = rand_graphon(rng, 3)
        F1 = rand_graph(rng, max_vertices=4)
        F2 = rand_graph(rng, max_vertices=4)
        check_product_identity(F1, F2, W)


def test_product_identity_two_star(w2):
    F = gl.relabel(gl.edge_graph(), 0, 1)
    check_product_identity(F, F, w2)
    # both routes equal the 2-star density 4.25
    assert gl.density(gl.product(F, F), w2, ignore_labels=True) == pytest.approx(4.25, abs=1e-12)


def test_product_identity_two_labels():
    rng = np.random.default_rng(17)
    for _ in range(5):
        W = rand_graphon(rng, int(rng.integers(2, 5)))
        F1 = rand_graph(rng, max_vertices=4, n_labels=2)
        F2 = rand_graph(rng, max_vertices=4, n_labels=2)
        check_product_identity(F1, F2, W)


def test_product_identity_label_mismatch(w2):
    F1 = gl.relabel(gl.edge_graph(), 0, 1)
    with pytest.raises(ValidationError) as e:
        gl.product_identity_residual(F1, gl.edge_graph(), w2)
    assert e.value.code == "label-mismatch"


def test_eliminate_keep_matrix(w2):
    # keeping both endpoints of an edge returns the kernel itself
    T = gl.eliminate(gl.edge_graph(), w2, keep=(0, 1))
    assert np.allclose(T, gl.kernel_matrix(w2, "unit"), atol=1e-14)


def test_eliminate_runs_no_path_search_and_no_blas(monkeypatch, w2):
    # an einsum path search or tensordot would hand products to BLAS, whose
    # kernel changes the bits
    def refused(*args, **kwargs):
        raise AssertionError("eliminate ran a path search or tensordot")

    try:
        einsumfunc = importlib.import_module("numpy._core.einsumfunc")
    except ImportError:  # numpy < 2
        einsumfunc = importlib.import_module("numpy.core.einsumfunc")
    for module, name in ((np, "einsum_path"), (einsumfunc, "einsum_path"), (np, "tensordot")):
        monkeypatch.setattr(module, name, refused)
    K4 = tuple((u, v, "unit", 1 + u % 2) for u, v in itertools.combinations(range(4), 2))
    F = gl.DecoratedMultigraph(4, K4, {0: 1, 2: 2})
    gl.density(F, w2, ignore_labels=True)
    gl.marginal(F, w2, {1: 0, 2: 1})
    gl.product_identity_residual(F, F, w2)
    gl.eliminate(F, w2, keep=(3, 1))

    # across the package: every einsum sits in _contract and searches no path;
    # the one BLAS product is the twin-candidate filter, whose slack covers
    # any summation order; the one LAPACK call is eigh
    einsums, products, linalg = [], set(), set()
    for path in sorted(Path(density_module.__file__).parent.glob("*.py")):
        for fn, node in _nodes_in_functions(path):
            where = f"{path.stem}.{fn}"
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                products.add(where)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and "linalg" in ast.unparse(node):
                linalg.add((where, ast.unparse(node)))
            if not isinstance(node, ast.Call):
                continue
            name = ast.unparse(node.func)
            if name == "np.einsum":
                kwargs = {k.arg: ast.unparse(k.value) for k in node.keywords}
                einsums.append((where, kwargs.get("optimize")))
            if name in {"np.dot", "np.matmul", "np.tensordot", "np.inner"} or name.endswith(".dot"):
                products.add(where)
            if "linalg" in name:
                linalg.add((where, name))
    assert set(einsums) == {("density._contract", "False")}
    assert products == {"transforms._candidate_pairs"}
    assert linalg == {("spectral.eigendecomp", "np.linalg.eigh")}


def _nodes_in_functions(path: Path):
    """``(innermost enclosing function name or None, node)`` for every node of a module."""
    stack = [(None, ast.parse(path.read_text(encoding="utf-8")))]
    while stack:
        fn, node = stack.pop()
        yield fn, node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        stack.extend((fn, child) for child in ast.iter_child_nodes(node))


#: the graphons of the probes below: q classes, seeded by q
PROBE_GRAPHON = """
import numpy as np
import graphonlab as gl

def graphon(q):
    rng = np.random.default_rng(q)
    A = rng.random((q, q, 2))
    masses = rng.random(q) + 0.1
    unit = gl.unit_functional()
    return gl.StepGraphon(
        tuple(masses / masses.sum()), np.array([1, 2]), A + A.transpose(1, 0, 2),
        {unit.id: unit},
    )
"""

#: eliminations at sizes where a BLAS product rounds by the OpenBLAS kernel;
#: prints ``float.hex`` of every entry, one line per elimination
BLAS_KERNEL_PROBE = PROBE_GRAPHON + """
import itertools

def complete(n):  # multiplicities 1 and 2: np.power at k >= 3 is CPU-dependent
    return gl.DecoratedMultigraph(
        n, tuple((u, v, "unit", 1 + (u + v) % 2) for u, v in itertools.combinations(range(n), 2))
    )

jobs = [(complete(5), 36, (), None), (complete(4), 64, (), None), (complete(3), 200, (), None)]
jobs += [(gl.path_graph(5), q, (0, 5), None) for q in (36, 64, 200)]
jobs += [(complete(4), 64, (), {0: 3, 2: 17})]
for F, q, keep, pinned in jobs:
    T = np.asarray(gl.eliminate(F, graphon(q), keep, pinned=pinned))
    print(" ".join(float(x).hex() for x in T.ravel()))
"""


def _not_dynamic_openblas() -> str:
    """Why the BLAS kernel cannot be switched here, or "" when it can."""
    if platform.machine() not in ("x86_64", "AMD64"):
        return f"OPENBLAS_CORETYPE names x86 kernels; this is {platform.machine()}"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 reports no build dictionary
        return "numpy does not report its BLAS build"
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return f"numpy's BLAS ({blas.get('name')}) is not a DYNAMIC_ARCH OpenBLAS"
    return ""


#: the CPU a probe runs as: the default, two other OpenBLAS kernels, and
#: numpy without its AVX-512 loops
CPU_SETTINGS = {
    "": {},
    "Prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "Sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
    "no AVX-512": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
}


def _stdout_under(probe: str, settings) -> dict[str, str]:
    """The probe's stdout in a new interpreter under each named CPU setting."""
    if reason := _not_dynamic_openblas():
        pytest.skip(reason)
    unset = {"OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES"}
    env = {k: v for k, v in os.environ.items() if k not in unset}
    env["PYTHONPATH"] = str(Path(gl.__file__).resolve().parent.parent)
    return {
        name: subprocess.run(
            [sys.executable, "-c", probe], env=dict(env, **CPU_SETTINGS[name]),
            capture_output=True, text=True, check=True, timeout=300,
        ).stdout
        for name in settings
    }


def test_eliminate_bits_do_not_depend_on_the_blas_kernel():
    bits = _stdout_under(BLAS_KERNEL_PROBE, ("", "Prescott", "Sandybridge"))
    assert bits[""].count("\n") == 7
    assert bits["Prescott"] == bits[""]
    assert bits["Sandybridge"] == bits[""]


#: path kernels, p-norms and lift-check direct densities, whose products a
#: BLAS kernel would round by the CPU; prints ``float.hex`` of every value
PRODUCT_PROBE = PROBE_GRAPHON + """
def hexes(values):
    print(" ".join(float(x).hex() for x in np.ravel(values)))

for q in (40, 120):
    hexes(gl.path_kernel(graphon(q), "unit", 7))
for q in (8, 16, 64):
    hexes([gl.p_norm(graphon(q), p) for p in (2, 2.5, 3, 40)])
for q in (6, 40, 120):
    rep = gl.lift_check(gl.cycle_graph(4), graphon(q), graphon(q + 1), 0, 1, "unit", 7)
    hexes(rep.direct_a + rep.direct_b)
"""


def test_path_kernel_p_norm_and_lift_check_bits_do_not_depend_on_the_cpu():
    bits = _stdout_under(PRODUCT_PROBE, CPU_SETTINGS)
    assert bits[""].count("\n") == 8
    for name in CPU_SETTINGS:
        assert bits[name] == bits[""], name


# -- exact rational oracle on heavily cancelling signed graphons -------------------

MIX = gl.TestFunctional("mix", (1, 2), (0.75, -0.25))


@st.composite
def cancelling_graphons(draw):
    """A signed graphon on 1..3 classes whose kernels nearly annihilate the masses.

    Blocks weigh points 1 and 2. Each point's weight matrix is ``Q S Q^T``
    with ``Q = I - 1 pi^T`` and ``S`` symmetric, so its pi-weighted row sums
    vanish up to rounding, plus optional noise; it is scaled to entries of
    at most 1. Any graph with a leaf then sums terms of order one to a
    density near zero, and cycles mix signs.
    """
    q = draw(st.integers(1, 3))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=q, max_size=q))
    pi = np.array([m / math.fsum(raw) for m in raw])
    Q = np.eye(q) - np.outer(np.ones(q), pi)
    noise = draw(st.sampled_from([0.0, 1e-9, 1e-3]))
    entries = st.lists(st.floats(-1, 1), min_size=q * q, max_size=q * q)
    weights = np.empty((q, q, 2))
    for k in range(2):
        S, R = (np.array(draw(entries)).reshape(q, q) for _ in range(2))
        A = Q @ (S + S.T) @ Q.T + noise * (R + R.T)
        A = (A + A.T) / 2
        top = np.abs(A).max()
        weights[:, :, k] = A / top * draw(st.floats(0.25, 1.0)) if top > 0 else A
    unit = gl.unit_functional()
    return gl.StepGraphon(
        tuple(pi), np.array([1, 2]), weights, {unit.id: unit, MIX.id: MIX}
    )


@st.composite
def tiny_graphs(draw, n_labels: int = 0, max_vertices: int = 5):
    """A multigraph on at most ``max_vertices`` vertices with labels 1..n_labels."""
    n = draw(st.integers(max(2, n_labels), max_vertices))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    edge = st.tuples(pair, st.sampled_from(["unit", MIX.id]), st.integers(1, 2))
    edges = draw(st.lists(edge, min_size=1, max_size=2 * n))
    labeled = draw(st.permutations(range(n)))[:n_labels]
    return gl.DecoratedMultigraph(
        n,
        tuple((u, v, psi, m) for (u, v), psi, m in edges),
        {v: l + 1 for l, v in enumerate(labeled)},
    )


def close_to_exact(got: float, exact: Fraction) -> bool:
    return abs(got - float(exact)) <= 1e-10 * max(1.0, abs(float(exact)))


@settings(max_examples=150, deadline=None)
@given(cancelling_graphons(), tiny_graphs())
def test_density_matches_fraction_oracle(W, F):
    exact = fraction_density(F, W)
    assert close_to_exact(gl.density(F, W), exact)


@settings(max_examples=150, deadline=None)
@given(cancelling_graphons(), st.integers(1, 2), st.data())
def test_marginal_matches_fraction_oracle(W, n_labels, data):
    F = data.draw(tiny_graphs(n_labels))
    classes = data.draw(st.lists(st.integers(0, W.q - 1), min_size=n_labels, max_size=n_labels))
    anchoring = {l + 1: c for l, c in enumerate(classes)}
    exact = fraction_density(F, W, {v: anchoring[l] for v, l in F.labels.items()})
    assert close_to_exact(gl.marginal(F, W, anchoring), exact)


@settings(max_examples=100, deadline=None)
@given(cancelling_graphons(), st.integers(0, 2), st.data())
def test_product_identity_matches_fraction_oracle(W, n_labels, data):
    F1 = data.draw(tiny_graphs(n_labels, max_vertices=3))
    F2 = data.draw(tiny_graphs(n_labels, max_vertices=5 - F1.n_vertices + n_labels))
    labels = range(1, n_labels + 1)
    rhs = Fraction(0)
    for classes in itertools.product(range(W.q), repeat=n_labels):
        pin1 = {F1.vertex_of_label(l): c for l, c in zip(labels, classes)}
        pin2 = {F2.vertex_of_label(l): c for l, c in zip(labels, classes)}
        weight = math.prod(Fraction(W.masses[c]) for c in classes)
        rhs += weight * fraction_density(F1, W, pin1) * fraction_density(F2, W, pin2)
    assert fraction_density(gl.product(F1, F2), W) == rhs  # the identity is exact
    assert gl.product_identity_residual(F1, F2, W) <= 1e-10


@settings(max_examples=150, deadline=None)
@given(cancelling_graphons(), tiny_graphs(max_vertices=4), st.data())
def test_eliminate_tensor_matches_fraction_oracle(W, F, data):
    # F plus a vertex on no edge, kept at a random place in ``keep``; a
    # component with no kept vertex reduces to a 0-d factor
    G = gl.DecoratedMultigraph(F.n_vertices + 1, F.edges)
    pinned = data.draw(st.dictionaries(st.integers(0, F.n_vertices - 1), st.integers(0, W.q - 1)))
    kept = [v for v in range(F.n_vertices) if v not in pinned and data.draw(st.booleans())]
    keep = data.draw(st.permutations(kept + [F.n_vertices]))
    T = gl.eliminate(G, W, keep, pinned=pinned)
    assert T.shape == (W.q,) * len(keep)
    for classes in itertools.product(range(W.q), repeat=len(keep)):
        exact = fraction_density(G, W, {**pinned, **dict(zip(keep, classes))})
        assert close_to_exact(T[classes], exact)


# -- Monte Carlo output bytes and the cost guard ---------------------------------

#: (seed, mean, stderr) of ``mc_density`` on the graphon and graph below
#: with 70,001 samples, as drawn with the stream in one piece; the chunked
#: draw must reproduce them at any chunk size
MC_BYTES = [
    (0, "0x1.f1d8b3f14c6a3p+4", "0x1.c613d823d0216p-1"),
    (1, "0x1.f15f3f11f7a01p+4", "0x1.ce21c7625320dp-1"),
    (7, "0x1.01f0c5591902cp+5", "0x1.cff0853c59902p-1"),
]


#: chunk sizes in class draws, on the 4-vertex graph below: 4 and 7 draw one
#: sample per chunk (as many draws as vertices, and not a multiple of them),
#: 2^20 holds every sample; one-sample chunks loop 70,001 times in Python,
#: so they run on the first seed only. The ids keep the form
#: ``seed-1-mean-stderr-chunk`` of the rows that once also pinned three
#: substreams, where the 1 counted them.
MC_CHUNK_CASES = [
    pytest.param(seed, mean, stderr, chunk, id=f"{seed}-1-{mean}-{stderr}-{chunk}")
    for chunk in (1000, 32768, density_module.MC_CHUNK, 1 << 20, 4, 7)
    for seed, mean, stderr in (MC_BYTES if chunk > 7 else MC_BYTES[:1])
]


@pytest.mark.parametrize("seed, mean, stderr, chunk", MC_CHUNK_CASES)
def test_mc_output_bytes_pinned(monkeypatch, chunk, seed, mean, stderr):
    monkeypatch.setattr(density_module, "MC_CHUNK", chunk)
    W = scalar_graphon((0.2, 0.3, 0.5), [[1.0, -2.0, 0.5], [-2.0, 3.0, 1.5], [0.5, 1.5, -0.25]])
    F = gl.DecoratedMultigraph(
        4, ((0, 1, "unit", 1), (1, 2, "unit", 2), (2, 0, "unit", 1), (2, 3, "unit", 3))
    )
    est = gl.mc_density(F, W, samples=70_001, seed=seed)
    assert (est.mean.hex(), est.stderr.hex()) == (mean, stderr)


def test_mc_memory_is_one_value_per_sample_plus_a_chunk():
    rng = np.random.default_rng(8)
    W = rand_graphon(rng, 8)
    samples = 10**6
    tracemalloc.start()
    try:
        est = gl.mc_density(gl.cycle_graph(7), W, samples=samples, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(est.mean) and est.stderr > 0
    assert peak <= 8 * samples + (2 << 20)


def _skewed(q: int) -> np.ndarray:
    pi = np.random.default_rng(q).random(q) + 0.05
    pi[q // 2] = 1e-12
    return pi / pi.sum()


#: mass vectors for the class sampler; dyadic ones put cdf values exactly
#: on cell edges, zero masses repeat a cdf value
SAMPLER_MASSES = {
    "q1": np.array([1.0]),
    "q3-dyadic": np.array([0.25, 0.25, 0.5]),
    "q3": np.array([0.2, 0.3, 0.5]),
    "q4-zeros": np.array([0.0, 0.5, 0.0, 0.5]),
    "q8-dyadic": np.full(8, 1 / 8),
    "q8-skewed": _skewed(8),
    "q64-dyadic": np.full(64, 1 / 64),
    "q64-skewed": _skewed(64),
    "q300": np.random.default_rng(300).dirichlet(np.ones(300)),
    "q300-skewed": _skewed(300),
}


@pytest.mark.parametrize("chunk", [1000, 32768])
@pytest.mark.parametrize("seed", [0, 1, 12345])
@pytest.mark.parametrize("name", sorted(SAMPLER_MASSES))
def test_class_sampler_matches_choice(name, seed, chunk):
    pi = SAMPLER_MASSES[name]
    n, samples = 3, 40_000
    sampler = density_module._ClassSampler(pi)
    rng = np.random.default_rng(seed)
    drawn = np.concatenate(
        [sampler.draw(rng, min(chunk, samples - s), n) for s in range(0, samples, chunk)], axis=1
    )
    ref_rng = np.random.default_rng(seed)
    expected = ref_rng.choice(pi.size, size=(samples, n), p=pi).T
    assert drawn.dtype == expected.dtype  # class * q must not wrap
    assert drawn.flags.c_contiguous
    np.testing.assert_array_equal(drawn, expected)
    assert rng.random() == ref_rng.random()  # the same uniforms were consumed


@pytest.mark.parametrize("name", sorted(SAMPLER_MASSES))
def test_class_sampler_table_and_edges(name):
    pi = SAMPLER_MASSES[name]
    sampler = density_module._ClassSampler(pi)
    cdf, m = sampler.cdf, sampler.m
    assert m & (m - 1) == 0 and m >= 64 * pi.size
    # the search is left exactly for the cells with a cdf value strictly inside
    inside = {int(v * m) for v in cdf if v * m != int(v * m)}
    assert set(np.flatnonzero(sampler.table < 0).tolist()) == inside
    # uniforms on, just below and just above every cell edge and cdf value
    grid = np.concatenate([np.arange(m) / m, cdf[cdf < 1]])
    u = np.concatenate([grid, np.nextafter(grid, 0), np.nextafter(grid, 1)])
    u = u[(u >= 0) & (u < 1)]

    class Uniforms:
        def random(self, shape):
            return u.reshape(shape).copy()

    got = sampler.draw(Uniforms(), u.size, 1)[0]
    np.testing.assert_array_equal(got, cdf.searchsorted(u, side="right"))


def test_mc_density_many_classes_matches_eliminate():
    q = 300
    rng = np.random.default_rng(3)
    masses = rng.dirichlet(np.ones(q))
    idx = np.arange(q)
    weights = (1 + np.add.outer(idx, idx) / q)[:, :, None]  # large classes weigh more
    unit = gl.unit_functional()
    W = gl.StepGraphon(masses, np.array([1]), weights, {unit.id: unit})
    F = gl.cycle_graph(3)
    est = gl.mc_density(F, W, samples=100_000, seed=5)
    assert abs(est.mean - gl.density(F, W)) <= 5 * est.stderr


@pytest.mark.parametrize(
    "masses", [(-0.1, 1.1), (math.nan, 1.0), (0.5, math.inf), (0.0, 0.0), (-0.5, -0.5)]
)
def test_mc_refuses_bad_masses(masses):
    unit = gl.unit_functional()
    W = gl.StepGraphon(masses, np.array([1]), np.ones((2, 2, 1)), {unit.id: unit})
    with pytest.raises(ValidationError) as e:
        gl.mc_density(gl.edge_graph(), W, samples=100, seed=0)
    assert e.value.code == "nonpositive-mass"


def test_mc_refuses_oversized_sample_count_up_front(w2):
    samples = density_module.MAX_CONTRACTION + 1
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError) as e:
            gl.mc_density(gl.edge_graph(), w2, samples=samples, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert e.value.code == "too-costly"
    assert str(samples) in str(e.value)
    assert peak < 1 << 20  # refused before the sample vector


def test_mc_refuses_graphs_beyond_one_chunk_up_front(w2):
    n = density_module.MC_CHUNK + 1
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError) as e:
            gl.mc_density(gl.DecoratedMultigraph(n, ((0, 1, "unit", 1),)), w2, samples=1, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert e.value.code == "too-costly"
    assert str(n) in str(e.value)
    assert peak < 1 << 20  # refused before the class draws


def test_mc_vertex_limit_is_inclusive(monkeypatch, w2):
    monkeypatch.setattr(density_module, "MC_CHUNK", 8)
    F = gl.DecoratedMultigraph(8, ((0, 1, "unit", 1),))
    assert gl.mc_density(F, w2, samples=3, seed=0).samples == 3
    with pytest.raises(ValidationError) as e:
        gl.mc_density(gl.DecoratedMultigraph(9, F.edges), w2, samples=3, seed=0)
    assert e.value.code == "too-costly"


def test_isolated_vertices_stay_out_of_the_elimination_order(monkeypatch, w2):
    orders = []
    plan = density_module._plan

    def recording(scopes, keep):
        steps, live = plan(scopes, keep)
        orders.append([v for v, _, _ in steps])
        return steps, live

    monkeypatch.setattr(density_module, "_plan", recording)
    F = gl.DecoratedMultigraph(50, ((3, 7, "unit", 1),))
    assert gl.density(F, w2) == pytest.approx(2.0, abs=1e-12)
    assert orders == [[3, 7]]


def test_declared_vertex_count_costs_no_memory(w2):
    F = gl.DecoratedMultigraph(10**9, ((3, 7, "unit", 1),), {7: 1})
    tracemalloc.start()
    try:
        t = gl.density(F, w2, ignore_labels=True)
        m = gl.marginal(F, w2, {1: 1})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t == pytest.approx(2.0, abs=1e-12)
    assert m == pytest.approx(2.5, abs=1e-12)  # row 1 of the kernel against pi
    assert peak < 1 << 20


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_plan_matches_two_pass_oracle(data):
    n = data.draw(st.integers(1, 9))
    vertex = st.integers(0, n - 1)
    pairs = st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1])
    edges = data.draw(st.lists(pairs, max_size=3 * n))
    pinned = data.draw(st.sets(vertex))
    keep = data.draw(st.lists(vertex.filter(lambda x: x not in pinned), unique=True))
    scopes = [tuple(x for x in (u, v) if x not in pinned) for u, v in edges]
    assert density_module._plan(scopes, keep) == two_pass_plan(scopes, keep)


def test_eliminate_refuses_oversized_contraction_up_front():
    q = 64
    unit = gl.unit_functional()
    W = gl.StepGraphon(
        (1 / q,) * q, np.array([1]), np.ones((q, q, 1)), {unit.id: unit}
    )
    K8 = gl.DecoratedMultigraph(
        8, tuple((u, v, "unit", 1) for u, v in itertools.combinations(range(8), 2))
    )
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError) as e:
            gl.density(K8, W)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert e.value.code == "too-costly"
    assert str(q**8) in str(e.value)
    assert peak < 1 << 20  # refused before the 2^48-element bucket or any kernel
    # keeping too many axes is refused the same way; a K4 bucket (q^4) is not
    with pytest.raises(ValidationError) as e:
        gl.eliminate(gl.DecoratedMultigraph(5), W, keep=range(5))
    assert e.value.code == "too-costly"
    K4 = gl.DecoratedMultigraph(
        4, tuple((u, v, "unit", 1) for u, v in itertools.combinations(range(4), 2))
    )
    assert gl.density(K4, W) == pytest.approx(1.0, rel=1e-12)
    # one class: no size limit, but a bucket names at most 52 axes
    W1 = scalar_graphon((1.0,), [[1.0]])
    for n, ok in ((52, True), (53, False)):
        K = gl.DecoratedMultigraph(
            n, tuple((u, v, "unit", 1) for u, v in itertools.combinations(range(n), 2))
        )
        if ok:
            assert gl.density(K, W1) == 1.0
        else:
            with pytest.raises(ValidationError) as e:
                gl.density(K, W1)
            assert e.value.code == "too-costly"


def test_contract_numbers_each_axis_naming_once(w2):
    # a path kernel repeats one product k - 1 times; its axes are renumbered
    # for einsum once
    density_module._sublists.cache_clear()
    P = gl.path_kernel(w2, "unit", 40)
    info = density_module._sublists.cache_info()
    assert (info.misses, info.hits) == (1, 38)
    assert density_module._sublists((5, 3), (3, 9), (5, 9)) == ((0, 1), (1, 2), (0, 2))
    assert np.array_equal(P, gl.path_kernel(w2, "unit", 40))
