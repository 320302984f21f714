"""Moment-matched pairs, rank-1 graphons, and the counterexample report."""
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import graphonlab as gl
from graphonlab import momentlab
from graphonlab.errors import ValidationError
from graphonlab.measures import point_mass, tv_distance, tv_norm
from graphonlab.momentlab import MAX_STENCIL_ORDER, _difference_stencil, standard_suite

from conftest import block_arrays, exact_run, rand_graph


def null_oracle(z, order):
    """Independent check that z annihilates the moment map up to ``order``."""
    return all(
        abs(math.fsum((k**r) * zk for k, zk in enumerate(z))) < 1e-9
        for r in range(order + 1)
    )


def exact_pair(N, D):
    """The pair of ``matched_pair(N, D)`` in Fractions, built independently:
    u = 1/(N+1), the (D+1)-th difference stencil z and eps = u / max|z|."""
    u = Fraction(1, N + 1)
    z = [Fraction((-1) ** i * math.comb(D + 1, i)) for i in range(D + 2)]
    z += [Fraction(0)] * (N - D - 1)
    eps = u / max(map(abs, z))
    return [u + eps * zk for zk in z], [u - eps * zk for zk in z], eps


def exact_moment(dist, r):
    return sum(Fraction(k) ** r * x for k, x in enumerate(dist))


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


def test_matched_pair_entries_are_the_exact_entries_rounded_once():
    for D in range(8):
        for N in range(D + 1, 25):
            p, q, eps = exact_pair(N, D)
            pair = gl.matched_pair(N, D)
            assert pair.p == tuple(map(float, p)) and pair.q == tuple(map(float, q))
            assert pair.epsilon == float(eps)


def test_matched_pair_rounds_each_distinct_entry_once():
    # equal entries share one float object: the long tail of u in p and q and
    # the zeros of the null vector cost one float each
    for N, D in ((5, 3), (8, 5), (40, 2)):
        pair = gl.matched_pair(N, D)
        for vec in (pair.p, pair.q, pair.null_vector):
            assert len({id(x) for x in vec}) == len(set(vec))
    tracemalloc.start()
    try:
        pair = gl.matched_pair(200_000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for vec in (pair.p, pair.q, pair.null_vector):
        assert len({id(x) for x in vec}) == len(set(vec)) == 3
    assert peak < 20 << 20  # 27.7 MiB with one float per entry, 14.0 MiB shared
    # a float entry is kept as it is, so a -0.0 does not become the 0.0 of an int 0
    p, q, eps = exact_pair(5, 3)
    nv = gl.MatchedPair(6, 3, p, q, eps, (1, -4, 6, -4, 0, -0.0)).null_vector
    assert [math.copysign(1.0, x) for x in nv[4:]] == [1.0, -1.0]


def test_matched_pair_from_fractions_by_hand():
    p = [Fraction(x, 36) for x in (7, 2, 12, 2, 7, 6)]
    q = [Fraction(x, 36) for x in (5, 10, 0, 10, 5, 6)]
    by_hand = gl.MatchedPair(6, 3, p, q, Fraction(1, 36), (1, -4, 6, -4, 1, 0))
    assert by_hand == gl.matched_pair(5, 3)
    assert by_hand.p[0] == 7 / 36 == 0.19444444444444445  # rounded once


@pytest.mark.parametrize("N, D", [(156, 7), (493, 5), (3245, 3), (18749, 2), (9, 8), (45, 40)])
def test_matched_pair_certified_where_the_float_checks_refused_it(N, D):
    # the float route's absolute tolerances refused each of these as bad-pair
    pair = gl.matched_pair(N, D)
    assert (pair.support_size, pair.order) == (N + 1, D)


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
    for p, q, message in [
        ((0.5, 0.5), (0.5, 0.5), "pair vectors must differ"),
        ((Fraction(1, 2), 0.5), (0.5, Fraction(1, 2)), "pair vectors must differ"),
        # 0.2 + 0.8 is not 1 in binary rationals
        ((0.2, 0.8), (0.8, 0.2), "pair vectors must sum to 1"),
        ((0.25, 0.75), (0.75, 0.25), "moments must agree up to order 1"),
    ]:
        with pytest.raises(ValidationError) as e:
            gl.MatchedPair(2, 1, p, q, 0.25, (1.0, -1.0))
        assert (e.value.code, str(e.value)) == ("bad-pair", message)


@pytest.mark.parametrize(
    "support, p, q, message",
    [
        (3, (0.5, 0.5), (0.25, 0.75), "pair vectors must live on {0..N}"),
        (2, (1.5, -0.5), (0.5, 0.5), "pair vectors must be nonnegative"),
        (2, (0.5, 0.6), (0.5, 0.5), "pair vectors must sum to 1"),
        # the sum is 1 within 1e-12, and math.fsum rounds it to 1.0, but it is not 1
        (3, (0.1, 0.2, 0.7), (0.25, 0.5, 0.25), "pair vectors must sum to 1"),
        (2, (0.5, 0.5), (math.nan, 1.0), "pair vectors must sum to 1"),
        (2, (math.inf, 0.0), (0.5, 0.5), "pair vectors must sum to 1"),
        (2, (-math.inf, 0.0), (0.5, 0.5), "pair vectors must be nonnegative"),
        # the order-1 moments agree (both 1), so order 0 has no witness
        (3, (0.5, 0.0, 0.5), (0.0, 1.0, 0.0), "pair must differ strictly at the witness order"),
    ],
    ids=["length", "negative", "sum", "sum-within-1e-12", "nan", "inf", "minus-inf",
         "no-witness"],
)
def test_matched_pair_refusals(support, p, q, message):
    with pytest.raises(ValidationError) as e:
        gl.MatchedPair(support, 0, p, q, 0.0, (0.0,) * support)
    assert (e.value.code, str(e.value)) == ("bad-pair", message)


def test_stencil_order_limit_is_the_largest_that_fits_a_double():
    top = MAX_STENCIL_ORDER
    assert float(math.comb(top, top // 2)) < math.inf
    with pytest.raises(OverflowError):
        float(math.comb(top + 1, (top + 1) // 2))
    z = _difference_stencil(top, top + 1)
    assert z == tuple((-1) ** i * math.comb(top, i) for i in range(top + 1))
    with pytest.raises(ValidationError) as e:
        _difference_stencil(top + 1, top + 2)
    assert e.value.code == "bad-order"
    assert str(e.value).endswith(f"fits in a double is {top - 1}")


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


def test_rank1_graphon_refuses_a_negative_mass():
    with pytest.raises(ValidationError) as e:
        gl.rank1_graphon([-0.5, 1.5])
    assert e.value.code == "bad-distribution"


@pytest.mark.parametrize("dist", [(0.3, 0.3), (0.5, 0.5 + 2e-12), (0.0, 1.5)])
def test_rank1_graphon_refuses_a_vector_that_does_not_sum_to_one(dist):
    with pytest.raises(ValidationError) as e:
        gl.rank1_graphon(dist)
    with pytest.raises(ValidationError) as closed:
        gl.rank1_density(gl.edge_graph(), dist)
    assert (e.value.code, str(e.value)) == (closed.value.code, str(closed.value))
    assert e.value.code == "bad-distribution"
    assert str(e.value).endswith("not 1 within 1e-12")
    gl.validate_graphon(gl.rank1_graphon((0.5, 0.5 + 5e-13)))  # within the tolerance


def test_rank1_graphon_checks_the_support_before_the_sum():
    with pytest.raises(ValidationError) as e:
        gl.rank1_graphon((0.0, 0.0))
    assert e.value.code == "empty-support"


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


def test_rank1_density_reads_only_the_vertices_on_edges():
    # one moment per vertex took 3.9 s at this declared size
    F = gl.DecoratedMultigraph(2_000_000, ((0, 1, "unit", 1),))
    start = time.perf_counter()
    assert gl.rank1_density(F, (0.5, 0.5)) == 0.25
    assert time.perf_counter() - start < 1.0
    assert gl.rank1_density(gl.DecoratedMultigraph(3), (0.5, 0.5)) == 1.0
    with pytest.raises(ValidationError) as e:  # no edges, and still a checked distribution
        gl.rank1_density(gl.DecoratedMultigraph(3), (0.5, 0.6))
    assert e.value.code == "bad-distribution"


def test_rank1_density_beyond_the_doubles_refused():
    # 50,000 moments of at least 1.7 multiplied to inf
    with pytest.raises(ValidationError) as e:
        gl.rank1_density(gl.path_graph(49_999), (0.1, 0.3, 0.4, 0.2))
    assert e.value.code == "overflow"
    assert str(e.value) == (
        "the rank-1 density of a graph on 50000 vertices is beyond the double range"
    )


def test_counterexample_default_suite():
    rep = gl.counterexample_report(5, 3, 1)
    assert rep.max_discrepancy_low_degree <= 1e-10
    assert rep.witness_gap > 1e-8
    # oracle: gap of the 4-star is |M4(p) - M4(q)| * M1**4 with shared M1
    expected = (4 / 3) * 2.5**4
    assert rep.witness_gap == pytest.approx(expected, abs=1e-6)
    assert rep.witness_graph.max_degree == 4
    assert len(rep.graphs) == 6  # edge, 2-path, triangle, 3-star, C4, 4-star
    assert rep.graphs_tested is rep.graphs  # the field's earlier name, kept readable


def test_counterexample_gap_is_the_exact_gap_rounded_once():
    assert gl.counterexample_report(5, 3).witness_gap == 625 / 12
    for D in range(1, 41):
        for N in (D + 1, D + 5):
            p, q, _ = exact_pair(N, D)
            assert all(exact_moment(p, r) == exact_moment(q, r) for r in range(D + 1))
            gap = abs(exact_moment(p, D + 1) - exact_moment(q, D + 1)) * exact_moment(p, 1) ** (D + 1)
            rep = gl.counterexample_report(N, D)
            assert gap != 0 and rep.witness_gap == float(gap), (N, D)


def test_the_engine_certifies_the_counterexample_exactly():
    # eliminate's own plan and loop, on the exact rank-1 pair (masses from
    # exact_pair on the points 0..N, integer kernel k k'): every suite graph
    # of degree at most D gets equal densities, and the (D+1)-star the gap
    # that witness_gap rounds once
    cases = 0
    for D in range(1, 5):
        points = np.arange(13, dtype=object)
        for N in range(D + 1, 13):
            kernels = {gl.DEFAULT_FUNCTIONAL_ID: np.outer(points[: N + 1], points[: N + 1])}
            low, witness = standard_suite(D)
            sides = [
                [exact_run(g, dist, kernels)[()] for g in low + [witness]]
                for dist in exact_pair(N, D)[:2]
            ]
            assert sides[0][:-1] == sides[1][:-1] and all(g.max_degree <= D for g in low)
            gap = abs(sides[0][-1] - sides[1][-1])
            closed = Fraction(
                math.factorial(D + 1) * N ** (D + 1),
                (N + 1) * math.comb(D + 1, (D + 1) // 2) * 2**D,
            )
            assert gap == closed and float(gap) == gl.counterexample_report(N, D).witness_gap
            cases += 1
    assert cases == 38


def test_counterexample_refuses_the_suite_before_building_a_graphon(monkeypatch):
    # the triangle at q = 3001 is refused with the message eliminate gives,
    # and neither rank-1 graphon is built first
    def refused(dist):
        raise AssertionError("rank1_graphon ran on a refused job")

    monkeypatch.setattr(momentlab, "rank1_graphon", refused)
    with pytest.raises(ValidationError) as e:
        gl.counterexample_report(3000, 3)
    assert e.value.code == "too-costly"
    assert str(e.value) == (
        "elimination at q=3001 over 3 vertices would take 27027009001 elements; "
        "the limit is 67108864"
    )


def test_counterexample_holds_one_rank1_graphon_at_a_time():
    # each graphon holds 1501^2 float64 weights (17.2 MiB) and each suite
    # density a q x q kernel and one product on top; with both graphons
    # alive the peak was 68.9 MiB, with one 51.7 MiB
    tracemalloc.start()
    try:
        rep = gl.counterexample_report(1500, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.witness_gap > 0
    assert peak <= 56 << 20


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


# -- a pair whose moments agree at every order ------------------------------------


def lognormal_step_graphon(theta: float, L: int) -> gl.StepGraphon:
    """The rank-1 graphon of f = e^(n + theta) with mass proportional to
    e^(-(n + theta)^2 / 2), over the 2L + 1 classes |n| <= L.

    Untruncated, its moment of order m is sum_n e^(m(n + theta) - (n + theta)^2 / 2)
    / Z = e^(m^2 / 2) for every theta, since shifting n by the integer m
    leaves Z: the discrete lognormal laws of theta = 0 and 1/2 share every
    moment, so their graphons share every density (the product of the
    moments at the vertex degrees), and pinned marginals tell them apart.
    """
    n = np.arange(-L, L + 1) + theta
    masses = np.exp(-n * n / 2)
    f = np.exp(n)
    unit = gl.unit_functional()
    weights = np.outer(f, f)[:, :, None]
    return gl.StepGraphon(tuple((masses / masses.sum()).tolist()), [1], weights, {unit.id: unit})


def _fixture_moment(W: gl.StepGraphon, order: int) -> float:
    f = np.sqrt(np.diagonal(W.weights[:, :, 0]))
    return math.fsum((np.asarray(W.masses) * f**order).tolist())


def _graph(n: int, edges) -> gl.DecoratedMultigraph:
    return gl.DecoratedMultigraph(n, tuple((u, v, gl.DEFAULT_FUNCTIONAL_ID, 1) for u, v in edges))


#: every graph at L = 30 (q = 61), and K_{4,4} at L = 17 (q = 35): at q = 61 its
#: elimination is refused as too-costly, and at L = 17 the 16-star's truncation
#: error is 4e-2
MOMENT_PAIR_GRAPHS = {
    "C3": (30, gl.cycle_graph(3)),
    "C5": (30, gl.cycle_graph(5)),
    "K4": (30, _graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])),
    "cube": (30, _graph(8, [(a, a | 1 << b) for a in range(8) for b in range(3) if not a >> b & 1])),
    "star-16": (30, gl.star_graph(16)),
    "K4,4": (17, _graph(8, [(a, b) for a in range(4) for b in range(4, 8)])),
}


@pytest.mark.parametrize("name", list(MOMENT_PAIR_GRAPHS))
def test_the_lognormal_pair_shares_every_density(name):
    L, F = MOMENT_PAIR_GRAPHS[name]
    W0, W1 = lognormal_step_graphon(0.0, L), lognormal_step_graphon(0.5, L)
    degrees = F.degrees
    for W in (W0, W1):
        gl.validate_graphon(W)
    t0, t1 = gl.density(F, W0), gl.density(F, W1)
    assert abs(t0 - t1) <= 1e-13 * abs(t0)
    for W, t in ((W0, t0), (W1, t1)):
        moments = math.prod(_fixture_moment(W, degrees[v]) for v in sorted(degrees))
        assert abs(t - moments) <= 1e-13 * abs(t)


def test_the_lognormal_pair_needs_two_sizes():
    K44 = MOMENT_PAIR_GRAPHS["K4,4"][1]
    with pytest.raises(ValidationError) as e:
        gl.density(K44, lognormal_step_graphon(0.0, 30))
    assert e.value.code == "too-costly"
    star = MOMENT_PAIR_GRAPHS["star-16"][1]
    t0, t1 = (gl.density(star, lognormal_step_graphon(theta, 17)) for theta in (0.0, 0.5))
    assert abs(t0 - t1) > 1e-2 * abs(t0)


def test_the_lognormal_pair_differs_in_its_pinned_edge_marginals():
    F = gl.relabel(gl.edge_graph(), 0, 1)
    values = [
        {gl.marginal(F, W, {1: c}) for c in range(W.q)}
        for W in (lognormal_step_graphon(theta, 30) for theta in (0.0, 0.5))
    ]
    assert len(values[0]) == len(values[1]) == 61
    assert values[0].isdisjoint(values[1])
