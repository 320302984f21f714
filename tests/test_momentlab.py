"""Moment-matched pairs, rank-1 graphons, and the counterexample report."""
import math

import numpy as np
import pytest

import graphonlab as gl
from graphonlab.errors import ValidationError
from graphonlab.measures import point_mass, tv_distance, tv_norm
from graphonlab.momentlab import standard_suite

from conftest import block_arrays, rand_graph


def null_oracle(z, order):
    """Independent check that z annihilates the moment map up to ``order``."""
    return all(
        abs(math.fsum((k**r) * zk for k, zk in enumerate(z))) < 1e-9
        for r in range(order + 1)
    )


def test_matched_pair_n5_d3_canonical_values():
    pair = gl.matched_pair(5, 3)
    assert pair.null_vector == (1.0, -4.0, 6.0, -4.0, 1.0, 0.0)
    assert null_oracle(pair.null_vector, 3)
    assert pair.epsilon == pytest.approx(1 / 36, abs=1e-18)
    expect_p = tuple(x / 36 for x in (7, 2, 12, 2, 7, 6))
    expect_q = tuple(x / 36 for x in (5, 10, 0, 10, 5, 6))
    assert pair.p == pytest.approx(expect_p, abs=1e-15)
    assert pair.q == pytest.approx(expect_q, abs=1e-15)
    assert gl.moment(pair.p, 1) == pytest.approx(2.5, abs=1e-12)
    assert gl.moment(pair.q, 1) == pytest.approx(2.5, abs=1e-12)
    # oracle: gap at order 4 is 2 * eps * sum k^4 z_k = 2 * (1/36) * 24
    gap = gl.moment(pair.p, 4) - gl.moment(pair.q, 4)
    assert gap == pytest.approx(4 / 3, abs=1e-10)


def test_matched_pair_shares_low_moments():
    for N, D in ((5, 3), (7, 4), (4, 2), (6, 5)):
        pair = gl.matched_pair(N, D)
        for r in range(D + 1):
            assert abs(gl.moment(pair.p, r) - gl.moment(pair.q, r)) <= 1e-10
        assert abs(gl.moment(pair.p, D + 1) - gl.moment(pair.q, D + 1)) > 1e-8


def test_matched_pair_order_zero():
    pair = gl.matched_pair(3, 0)
    assert pair.p != pair.q
    assert math.fsum(pair.p) == pytest.approx(1.0, abs=1e-15)
    assert math.fsum(pair.q) == pytest.approx(1.0, abs=1e-15)


def test_matched_pair_minimal_support_rank():
    # N = D + 1: the moment map has full Vandermonde rank, null space dim 1
    N, D = 4, 3
    M = np.array([[float(k**r) for k in range(N + 1)] for r in range(D + 1)])
    assert np.linalg.matrix_rank(M) == D + 1
    pair = gl.matched_pair(N, D)
    z = np.asarray(pair.null_vector)
    assert np.max(np.abs(M @ z)) < 1e-9
    # any vector in the null space is a multiple of z
    _, _, vt = np.linalg.svd(M)
    basis = vt[-1]
    cos = abs(basis @ z) / (np.linalg.norm(basis) * np.linalg.norm(z))
    assert cos == pytest.approx(1.0, abs=1e-10)


def test_matched_pair_infeasible():
    with pytest.raises(ValidationError) as e:
        gl.matched_pair(3, 3)
    assert e.value.code == "infeasible"


def test_matched_pair_validation_rejects_bad_pairs():
    with pytest.raises(ValidationError):
        gl.MatchedPair(2, 0, (0.5, 0.5), (0.5, 0.5), 0.0, (0.0, 0.0))  # p == q
    with pytest.raises(ValidationError):
        gl.MatchedPair(2, 1, (0.2, 0.8), (0.8, 0.2), 0.3, (1.0, -1.0))  # moment 1 differs


def test_rank1_graphon_point_mass_at_one():
    W = gl.rank1_graphon((0.0, 1.0))
    assert W.q == 1
    assert tv_distance(W.blocks[0][0], point_mass(1, 1.0)) == 0.0
    for F in (gl.edge_graph(), gl.cycle_graph(3), gl.star_graph(4)):
        assert gl.density(F, W) == pytest.approx(1.0, abs=1e-12)


def test_rank1_graphon_point_mass_at_zero():
    W = gl.rank1_graphon((1.0,))
    assert W.q == 1
    assert W.blocks[0][0].support == ()
    assert gl.density(gl.edge_graph(), W) == 0.0


@pytest.mark.parametrize("dist", [(1.0,), (0.0, 1.0), (0.5, 0.5), (0.2, 0.0, 0.3, 0.5)])
def test_rank1_graphon_arrays_are_its_measure_blocks(dist):
    points = [k for k, x in enumerate(dist) if x > 0]
    blocks = [[point_mass(1, float(a * b)) for b in points] for a in points]
    support, weights = block_arrays(blocks)  # empty support when every product is 0
    W = gl.rank1_graphon(dist)
    assert W.support.tolist() == support.tolist()
    assert W.weights.shape == weights.shape and W.weights.tobytes() == weights.tobytes()


def test_rank1_graphon_uniform_two_points():
    W = gl.rank1_graphon((0.0, 0.5, 0.5))
    m1 = 1.5
    assert gl.density(gl.edge_graph(), W) == pytest.approx(m1**2, rel=1e-12)


def test_rank1_graphon_drops_zero_mass():
    W = gl.rank1_graphon((0.5, 0.0, 0.5))
    assert W.q == 2
    assert W.masses == (0.5, 0.5)
    with pytest.raises(ValidationError):
        gl.rank1_graphon((0.0, 0.0))


def test_rank1_density_paper_formulas():
    dist = (0.1, 0.3, 0.4, 0.2)
    m = [gl.moment(dist, r) for r in range(6)]
    assert gl.rank1_density(gl.edge_graph(), dist) == pytest.approx(m[1] ** 2, rel=1e-12)
    assert gl.rank1_density(gl.cycle_graph(3), dist) == pytest.approx(m[2] ** 3, rel=1e-12)
    assert gl.rank1_density(gl.star_graph(4), dist) == pytest.approx(
        m[4] * m[1] ** 4, rel=1e-12
    )


def test_rank1_density_matches_engine():
    rng = np.random.default_rng(40)
    for _ in range(10):
        raw = rng.uniform(0.05, 1.0, size=int(rng.integers(2, 6)))
        dist = tuple(float(x) for x in raw / raw.sum())
        F = rand_graph(rng, max_vertices=6, psis=("unit",), max_mult=3)
        closed = gl.rank1_density(F, dist)
        engine = gl.density(F, gl.rank1_graphon(dist))
        assert abs(closed - engine) <= 1e-10 * max(1.0, abs(closed))


def test_rank1_density_rejects_bad_input():
    with pytest.raises(ValidationError) as e:
        gl.rank1_density(gl.edge_graph("e1"), (0.5, 0.5))
    assert e.value.code == "non-canonical-decoration"
    with pytest.raises(ValidationError):
        gl.rank1_density(gl.relabel(gl.edge_graph(), 0, 1), (0.5, 0.5))


def test_counterexample_default_suite():
    rep = gl.counterexample_report(5, 3, 1)
    assert rep.max_discrepancy_low_degree <= 1e-10
    assert rep.witness_gap > 1e-8
    # oracle: gap of the 4-star is |M4(p) - M4(q)| * M1**4 with shared M1
    expected = (4 / 3) * 2.5**4
    assert rep.witness_gap == pytest.approx(expected, abs=1e-6)
    assert rep.witness_graph.max_degree == 4
    assert len(rep.graphs_tested) == 6  # edge, 2-path, triangle, 3-star, C4, 4-star


def test_counterexample_multibond_witness():
    pair = gl.matched_pair(5, 3)
    bond = gl.edge_graph(multiplicity=4)  # both endpoints have degree D + 1
    Wp, Wq = gl.rank1_graphon(pair.p), gl.rank1_graphon(pair.q)
    m4p = gl.moment(pair.p, 4)
    m4q = gl.moment(pair.q, 4)
    gap = abs(gl.density(bond, Wp) - gl.density(bond, Wq))
    assert gap == pytest.approx(abs(m4p**2 - m4q**2), rel=1e-10)


def test_counterexample_degenerate_control():
    # identical distributions give identically zero gaps on every suite graph
    dist = tuple(x / 36 for x in (7, 2, 12, 2, 7, 6))
    Wp = gl.rank1_graphon(dist)
    Wq = gl.rank1_graphon(dist)
    for F in [gl.edge_graph(), gl.star_graph(4), gl.cycle_graph(4)]:
        assert gl.density(F, Wp) == gl.density(F, Wq)


def test_rank1_pair_not_weakly_isomorphic():
    # the reduced graphons have different sorted mass profiles: genuinely
    # different objects despite equal low-degree densities
    pair = gl.matched_pair(5, 3)
    Rp = gl.twin_reduce(gl.rank1_graphon(pair.p))
    Rq = gl.twin_reduce(gl.rank1_graphon(pair.q))
    profile_p = sorted((m, tv_norm(Rp.blocks[i][i])) for i, m in enumerate(Rp.masses))
    profile_q = sorted((m, tv_norm(Rq.blocks[i][i])) for i, m in enumerate(Rq.masses))
    assert profile_p != profile_q


def test_standard_suite_shapes():
    low, witness = standard_suite(3)
    assert witness.max_degree == 4
    assert all(g.max_degree <= 3 for g in low)
    low2, witness2 = standard_suite(2)
    assert all(g.max_degree <= 2 for g in low2)
    assert witness2.max_degree == 3
