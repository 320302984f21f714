"""Eigendecompositions, path kernels, and the parallel-edge lift check."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphonlab as gl
from graphonlab import spectral as spectral_module
from graphonlab.errors import ValidationError

from conftest import (
    add_path,
    duplicate_class,
    fraction_density,
    rand_graph,
    rand_graphon,
    scalar_graphon,
    sorted_eigendecomp,
)


def test_eigendecomp_w2(w2):
    es = gl.eigendecomp(w2, "unit")
    # oracle: characteristic polynomial of [[.5, 1], [1, 1.5]]:
    # trace 2, det -.25, so eigenvalues 1 +- sqrt(5)/2
    lam = sorted(es.eigenvalues)
    assert lam[0] == pytest.approx(1 - math.sqrt(5) / 2, abs=1e-12)
    assert lam[1] == pytest.approx(1 + math.sqrt(5) / 2, abs=1e-12)
    # descending by magnitude
    assert abs(es.eigenvalues[0]) >= abs(es.eigenvalues[1])


def test_eigendecomp_invariants():
    rng = np.random.default_rng(30)
    for _ in range(10):
        W = rand_graphon(rng, int(rng.integers(1, 6)), scale=0.5)
        for psi in ("unit", "e1"):
            es = gl.eigendecomp(W, psi)
            s = np.sqrt(np.asarray(W.masses))
            M = s[:, None] * gl.kernel_matrix(W, psi) * s[None, :]
            B = es.basis
            lam = np.asarray(es.eigenvalues)
            assert np.max(np.abs(M @ B - B * lam)) <= 1e-9
            assert np.max(np.abs(B.T @ B - np.eye(W.q))) <= 1e-10
            assert np.max(np.abs(M - (B * lam) @ B.T)) <= 1e-9


def test_eigendecomp_diagonal_kernel():
    W = scalar_graphon(
        (1 / 3, 1 / 3, 1 / 3), [[3.0, 0.0, 0.0], [0.0, -1.5, 0.0], [0.0, 0.0, 0.6]]
    )
    es = gl.eigendecomp(W, "unit")
    assert sorted(es.eigenvalues) == pytest.approx(sorted([1.0, -0.5, 0.2]), abs=1e-12)


def test_eigendecomp_zero_kernel():
    W = scalar_graphon((0.5, 0.5), [[0.0, 0.0], [0.0, 0.0]])
    es = gl.eigendecomp(W, "unit")
    assert es.eigenvalues == (0.0, 0.0)


def test_eigendecomp_deterministic(w2):
    a = gl.eigendecomp(w2, "unit")
    b = gl.eigendecomp(w2, "unit")
    assert a.eigenvalues == b.eigenvalues
    assert np.array_equal(a.basis, b.basis)


#: eigenvalues that tie in magnitude, in sign, or at zero
TIED_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5])


@st.composite
def tied_spectra(draw):
    """A symmetric matrix with repeated, +-lambda and zero eigenvalues.

    A permuted block diagonal of 1 x 1 blocks ``[a]``, 2 x 2 blocks
    ``[[0, a], [a, 0]]`` (eigenvalues +-a) and ``[[a, a], [a, a]]`` (2a and 0).
    """
    blocks = draw(st.lists(st.tuples(st.sampled_from(["one", "pm", "rank1"]), TIED_VALUES),
                           min_size=1, max_size=5))
    parts = [{"one": [[a]], "pm": [[0.0, a], [a, 0.0]], "rank1": [[a, a], [a, a]]}[kind]
             for kind, a in blocks]
    q = sum(map(len, parts))
    M, at = np.zeros((q, q)), 0
    for part in parts:
        M[at : at + len(part), at : at + len(part)] = part
        at += len(part)
    perm = draw(st.permutations(range(q)))
    return M[np.ix_(perm, perm)]


@settings(max_examples=300, deadline=None)
@given(tied_spectra())
def test_eigendecomp_orders_and_signs_as_sorted(M):
    W = scalar_graphon((1 / len(M),) * len(M), M)
    es = gl.eigendecomp(W, "unit")
    vals, vecs = sorted_eigendecomp(W, "unit")
    got = list(es.eigenvalues) + es.basis.ravel().tolist()
    assert list(map(float.hex, got)) == list(map(float.hex, vals + vecs.ravel().tolist()))


def test_hilbert_schmidt_identity():
    rng = np.random.default_rng(31)
    for _ in range(10):
        W = rand_graphon(rng, int(rng.integers(2, 6)), scale=0.5)
        es = gl.eigendecomp(W, "e0")
        lhs = math.fsum(v * v for v in es.eigenvalues)
        K = gl.kernel_matrix(W, "e0")
        pi = np.asarray(W.masses)
        rhs = float(pi @ (K * K) @ pi)  # squared Hilbert-Schmidt norm
        assert abs(lhs - rhs) <= 1e-9


def test_path_kernel_examples(w2):
    K1 = gl.path_kernel(w2, "unit", 1)
    assert K1.tolist() == [[1.0, 2.0], [2.0, 3.0]]
    # oracle: K diag(pi) K computed by hand
    K = np.array([[1.0, 2.0], [2.0, 3.0]])
    oracle = K @ np.diag([0.5, 0.5]) @ K
    assert oracle.tolist() == [[2.5, 4.0], [4.0, 6.5]]
    assert np.allclose(gl.path_kernel(w2, "unit", 2), oracle, atol=1e-12)
    with pytest.raises(ValidationError):
        gl.path_kernel(w2, "unit", 0)


def test_path_kernel_matches_marginal():
    rng = np.random.default_rng(32)
    for _ in range(6):
        W = rand_graphon(rng, int(rng.integers(2, 5)), scale=0.5)
        psi = "e1"
        for k in (1, 2, 3, 4):
            P = gl.path_kernel(W, psi, k)
            F = gl.relabel(gl.relabel(gl.path_graph(k, psi), 0, 1), k, 2)
            for i in range(W.q):
                for j in range(W.q):
                    m = gl.marginal(F, W, {1: i, 2: j})
                    assert abs(P[i, j] - m) <= 1e-9


def test_path_kernel_semigroup():
    rng = np.random.default_rng(33)
    for _ in range(6):
        W = rand_graphon(rng, int(rng.integers(2, 5)), scale=0.5)
        pi = np.asarray(W.masses)
        k1, k2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        lhs = gl.path_kernel(W, "e2", k1 + k2)
        rhs = gl.path_kernel(W, "e2", k1) @ np.diag(pi) @ gl.path_kernel(W, "e2", k2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-8


def base_double_edge_graph(psi="unit"):
    return gl.edge_graph(psi, multiplicity=2)


def test_lift_check_double_edge(w2):
    rep = gl.lift_check(base_double_edge_graph(), w2, w2, 0, 1, "unit", 6)
    assert rep.max_discrepancy <= 1e-8
    assert rep.powers_match
    assert rep.groups_match
    assert rep.densities_agree
    # k = 1 recovers t(F) itself
    assert rep.direct_a[0] == pytest.approx(gl.density(base_double_edge_graph(), w2), abs=1e-12)


def test_lift_check_twin_inflated_copy():
    rng = np.random.default_rng(34)
    W = rand_graphon(rng, 3, scale=0.5)
    V = duplicate_class(W, rng)
    F = gl.DecoratedMultigraph(3, ((0, 1, "e1", 2), (1, 2, "e0", 1)))
    rep = gl.lift_check(F, W, V, 0, 1, "e1", 6)
    assert rep.max_discrepancy <= 1e-8
    assert rep.powers_match
    assert rep.groups_match  # grouped coefficients agree per shared eigenvalue
    assert rep.densities_agree


def test_lift_check_rank1_graphon():
    dist = (0.0, 0.5, 0.5)
    W = gl.rank1_graphon(dist)
    es = gl.eigendecomp(W, "unit")
    m2 = gl.moment(dist, 2)
    # single nonzero eigenvalue equal to the second moment
    assert es.eigenvalues[0] == pytest.approx(m2, rel=1e-12)
    assert all(abs(v) <= 1e-12 for v in es.eigenvalues[1:])
    rep = gl.lift_check(base_double_edge_graph(), W, W, 0, 1, "unit", 5)
    assert rep.max_discrepancy <= 1e-8
    # closed-form oracle: t(F^k) for the k+1-cycle is m2**(k+1) here
    for k in range(1, 6):
        assert rep.direct_a[k - 1] == pytest.approx(m2 ** (k + 1), rel=1e-10)


def test_lift_check_distinguishes_different_graphons(w2):
    other = scalar_graphon((0.5, 0.5), [[1.0, 0.5], [0.5, 2.0]])
    rep = gl.lift_check(base_double_edge_graph(), w2, other, 0, 1, "unit", 4)
    assert not rep.powers_match
    assert not rep.densities_agree


def test_lift_check_errors(w2):
    with pytest.raises(ValidationError) as e:
        gl.lift_check(gl.edge_graph("unit"), w2, w2, 0, 1, "other", 4)
    assert e.value.code == "edge-absent"
    with pytest.raises(ValidationError):
        gl.lift_check(base_double_edge_graph(), w2, w2, 0, 1, "unit", 1)
    labeled = gl.relabel(base_double_edge_graph(), 0, 1)
    with pytest.raises(ValidationError):
        gl.lift_check(labeled, w2, w2, 0, 1, "unit", 4)


def test_lift_check_spectral_sum_beyond_the_doubles_refused(monkeypatch, w2):
    # an eigenvalue of 1e200 against finite direct densities: lambda^2 overflows
    def eigensystem(W, psi_id):
        return spectral_module.EigenSystem(psi_id, (1e200, 1.0), np.eye(W.q))

    monkeypatch.setattr(spectral_module, "eigendecomp", eigensystem)
    with pytest.raises(ValidationError) as e:
        gl.lift_check(base_double_edge_graph(), w2, w2, 0, 1, "unit", 2)
    assert e.value.code == "overflow"
    assert str(e.value) == "the spectral sum for t(F^2, W1) is not finite: it overflows a double"


def test_lift_check_eliminates_once_per_graphon(monkeypatch, w2):
    calls = []

    def counted(F, W, keep=(), *, pinned=None):
        calls.append(F.n_vertices)
        return gl.eliminate(F, W, keep, pinned=pinned)

    monkeypatch.setattr(spectral_module, "eliminate", counted)
    for kmax in (2, 20, 200):
        calls.clear()
        gl.lift_check(base_double_edge_graph(), w2, w2, 0, 1, "unit", kmax)
        assert calls == [2, 2]


def cancelling_graphon() -> gl.StepGraphon:
    """Three classes whose kernel rows nearly sum to zero against the masses
    (exactly, but for 0.667 in place of 0.666), each entry the difference of
    two weights near 1: a vertex of degree one sums to at most 2.5e-4."""
    f = gl.TestFunctional("f", (1, 2), (1.0, 1.0))
    K = np.array([[0.667, -0.774, 0.261], [-0.774, 0.186, 0.321], [0.261, 0.321, -0.444]])
    weights = np.stack([K + 0.75, np.full((3, 3), -0.75)], axis=-1)
    return gl.StepGraphon((0.25, 0.35, 0.4), [1, 2], weights, {"f": f})


def lift_cases():
    """(F, W1, W2, u, v, psi) instances of the lifting check."""
    rng = np.random.default_rng(36)
    W2a, W3a, W3b = rand_graphon(rng, 2), rand_graphon(rng, 3), rand_graphon(rng, 3)
    C4 = ((0, 1, "e1", 2), (1, 2, "e1", 1), (2, 3, "e1", 1), (0, 3, "e1", 1))
    return {
        "multiplicity-3-bond": (gl.DecoratedMultigraph(2, ((0, 1, "e1", 3),)),
                                W3a, W3b, 0, 1, "e1"),
        "u-above-v": (gl.DecoratedMultigraph(4, C4), W3a, W3b, 1, 0, "e1"),
        "ends-with-other-edges": (
            gl.DecoratedMultigraph(
                4, ((0, 1, "e1", 2), (0, 2, "e2", 1), (1, 2, "e0", 1), (1, 3, "e1", 1))
            ),
            W3b, W3a, 1, 0, "e1",
        ),
        "different-q": (gl.DecoratedMultigraph(3, ((0, 2, "unit", 2), (1, 2, "e2", 1))),
                        W2a, W3b, 2, 0, "unit"),
        "cancelling": (gl.DecoratedMultigraph(3, ((0, 1, "f", 2), (1, 2, "f", 1))),
                       cancelling_graphon(), cancelling_graphon(), 0, 1, "f"),
    }


def absolute(W: gl.StepGraphon, F: gl.DecoratedMultigraph) -> gl.StepGraphon:
    """A graphon whose kernels are the absolute values of W's kernels on the
    decorations of F: its densities are the sums of the absolute values of
    the terms of W's, the scale that rounding errors are relative to."""
    psis = sorted(F.psi_ids)
    functionals = {psi: gl.TestFunctional(psi, (s,), (1.0,)) for s, psi in enumerate(psis, 1)}
    weights = np.stack([np.abs(gl.kernel_matrix(W, psi)) for psi in psis], axis=-1)
    return gl.StepGraphon(W.masses, range(1, len(psis) + 1), weights, functionals)


@pytest.mark.parametrize("case", list(lift_cases()))
def test_lift_check_direct_densities_match_per_k_elimination(case):
    F, W1, W2, u, v, psi = lift_cases()[case]
    kmax = 20
    rep = gl.lift_check(F, W1, W2, u, v, psi, kmax)
    Fprime = gl.graphs.remove_one_edge(F, u, v, psi)
    for W, direct in ((W1, rep.direct_a), (W2, rep.direct_b)):
        for k in range(1, kmax + 1):
            Fk = add_path(Fprime, u, v, k, psi)
            scale = float(gl.eliminate(Fk, absolute(W, F)))
            assert abs(direct[k - 1] - float(gl.eliminate(Fk, W))) <= 1e-12 * scale
            if k <= 4:
                assert abs(direct[k - 1] - float(fraction_density(Fk, W))) <= 1e-12 * scale
    assert rep.max_discrepancy <= 1e-8


def test_lift_check_random_instances():
    rng = np.random.default_rng(35)
    for _ in range(8):
        q = int(rng.integers(2, 7))
        W = rand_graphon(rng, q, scale=0.4)
        F = gl.DecoratedMultigraph(
            3, ((0, 1, "e1", int(rng.integers(2, 4))), (0, 2, "e2", 1))
        )
        rep = gl.lift_check(F, W, W, 0, 1, "e1", 6)
        assert rep.max_discrepancy <= 1e-8


def test_lift_check_squares_eigenvalues_by_multiplication():
    # the k = 2 spectral sum takes vals * vals, whose bits are np.square's;
    # np.power with an array exponent can differ in the last place from it
    # where numpy's vector loops round differently (AVX-512 builds)
    rng = np.random.default_rng(37)
    F = gl.DecoratedMultigraph(3, ((0, 1, "e1", 2), (0, 2, "e2", 1)))
    Fprime = gl.graphs.remove_one_edge(F, 0, 1, "e1")
    for _ in range(30):
        W = rand_graphon(rng, int(rng.integers(2, 60)), scale=0.4)
        rep = gl.lift_check(F, W, W, 0, 1, "e1", 3)
        T = gl.eliminate(Fprime, W, keep=(0, 1))
        vals, coefs = spectral_module._spectral_coefficients(W, T, "e1")
        assert rep.spectral_a[1] == float(np.sum(coefs * (vals * vals)))


def two_block_graphon(scale: float = 1.0) -> gl.StepGraphon:
    """Masses 1/4 and the kernel [[1, .5], [.5, 1]] on classes 0-1 and
    ``scale`` times it on classes 2-3: at scale 1 the eigenvalues .375 and
    .125 each occur twice."""
    block = np.array([[1.0, 0.5], [0.5, 1.0]])
    K = np.zeros((4, 4))
    K[:2, :2], K[2:, 2:] = block, scale * block
    return scalar_graphon((0.25,) * 4, K)


#: C4 with its edge 0-1 doubled
C4_DOUBLED = gl.DecoratedMultigraph(
    4, ((0, 1, "unit", 2), (1, 2, "unit", 1), (2, 3, "unit", 1), (0, 3, "unit", 1))
)


def test_lift_check_sums_a_repeated_eigenvalue_into_one_group():
    W = two_block_graphon()
    assert gl.eigendecomp(W, "unit").eigenvalues == pytest.approx((0.375, 0.375, 0.125, 0.125))
    swapped = [2, 3, 0, 1]
    V = gl.StepGraphon(W.masses, W.support, W.weights[swapped][:, swapped], dict(W.functionals))
    rep = gl.lift_check(C4_DOUBLED, W, V, 0, 1, "unit", 5)
    assert [g.value for g in rep.groups] == pytest.approx([0.125, 0.375])
    assert [g.sum_a for g in rep.groups] == pytest.approx([15 / 512, 41 / 512])
    assert [g.sum_b for g in rep.groups] == pytest.approx([15 / 512, 41 / 512])
    assert [g.matched for g in rep.groups] == [True, True]
    assert rep.groups_match and rep.powers_match and rep.densities_agree


@pytest.mark.parametrize("scaled_first", [False, True], ids=["scaled-second", "scaled-first"])
def test_lift_check_leaves_groups_of_a_scaled_block_unmatched(scaled_first):
    W, V = two_block_graphon(), two_block_graphon(2.0)
    if scaled_first:
        W, V = V, W
    rep = gl.lift_check(C4_DOUBLED, W, V, 0, 1, "unit", 5)
    # the scaled block halves the repeated groups' sums and adds .25 and .75 alone
    sums = {0.125: (15 / 512, 7.5 / 512), 0.25: (0.0, 120 / 512),
            0.375: (41 / 512, 20.5 / 512), 0.75: (0.0, 328 / 512)}
    if scaled_first:
        sums = {v: (b, a) for v, (a, b) in sums.items()}
    assert [g.value for g in rep.groups] == pytest.approx(list(sums))
    assert [(g.sum_a, g.sum_b) for g in rep.groups] == [pytest.approx(s) for s in sums.values()]
    assert [g.matched for g in rep.groups] == [False] * 4
    assert not (rep.groups_match or rep.powers_match or rep.densities_agree)
