"""Quotients, twins, anchored graphons and regularity."""
import json
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphonlab as gl
from graphonlab import fileio, transforms
from graphonlab.errors import ValidationError
from graphonlab.measures import measure_combine, point_mass, tv_distance

from conftest import (
    INDICATORS,
    all_pairs_twin_partition,
    duplicate_class,
    exact_kernels,
    exact_run,
    fraction_quotient,
    graphon_from_blocks,
    graph_suite,
    graphons_close,
    graphons_close_upto_permutation,
    pairwise_regularity,
    pairwise_twin_partition,
    rand_graphon,
    rand_partition,
    rand_twin_free_graphon,
    rounded_feature_rows,
    scalar_graphon,
)


def test_quotient_identity_is_exact(w2):
    Q = gl.quotient(w2, gl.Partition((0, 1)))
    assert Q.masses == w2.masses
    assert Q.blocks == w2.blocks


def test_quotient_full_merge_is_global_mean(w2):
    Q = gl.quotient(w2, gl.Partition((0, 0)))
    assert Q.q == 1
    assert Q.masses == (1.0,)
    # oracle: mass-weighted mean of the four scalar blocks
    mean = sum(0.25 * x for x in (1.0, 2.0, 2.0, 3.0))
    assert tv_distance(Q.blocks[0][0], point_mass(1, mean)) <= 1e-14


def test_quotient_requires_surjective_and_matching_size(w2):
    with pytest.raises(ValidationError) as e:
        gl.Partition((0, 2))  # misses class 1
    assert e.value.code == "non-surjective"
    with pytest.raises(ValidationError):
        gl.quotient(w2, gl.Partition((0, 1, 2)))


def test_quotient_composition():
    rng = np.random.default_rng(20)
    for _ in range(15):
        W = rand_graphon(rng, int(rng.integers(2, 6)))
        P1 = rand_partition(rng, W.q)
        P2 = rand_partition(rng, P1.n_classes)
        two_step = gl.quotient(gl.quotient(W, P1), P2)
        one_step = gl.quotient(W, gl.Partition([P2.class_of[c] for c in P1.class_of]))
        assert graphons_close(two_step, one_step, tol=1e-12)


def test_norm_contraction_under_quotient():
    rng = np.random.default_rng(21)
    for _ in range(40):
        W = rand_graphon(rng, int(rng.integers(2, 6)))
        P = rand_partition(rng, W.q)
        for p in (1, 2, 4):
            assert gl.p_norm(gl.quotient(W, P), p) <= gl.p_norm(W, p) + 1e-12


signed_weights = st.floats(-2, 2, allow_nan=False).filter(lambda x: abs(x) > 1e-3)


@st.composite
def graphons_with_partitions(draw):
    """A signed graphon on 1..6 classes and a partition of its classes."""
    q = draw(st.integers(1, 6))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=q, max_size=q))
    masses = [m / math.fsum(raw) for m in raw]
    cells = {}
    for i in range(q):
        for j in range(i, q):
            pts = sorted(draw(st.sets(st.integers(0, 3), max_size=4)))
            ws = draw(st.lists(signed_weights, min_size=len(pts), max_size=len(pts)))
            cells[i, j] = gl.FiniteMeasure(tuple(pts), tuple(ws))
    blocks = [[cells[min(i, j), max(i, j)] for j in range(q)] for i in range(q)]
    labels = draw(st.lists(st.integers(0, q - 1), min_size=q, max_size=q))
    first: dict[int, int] = {}
    class_of = tuple(first.setdefault(c, len(first)) for c in labels)
    return graphon_from_blocks(masses, blocks), gl.Partition(class_of)


@settings(max_examples=300, deadline=None)
@given(graphons_with_partitions())
def test_quotient_matches_fraction_oracle(case):
    W, P = case
    Q = gl.quotient(W, P)
    masses, blocks = fraction_quotient(W, P)
    assert Q.masses == tuple(float(m) for m in masses)  # fsum rounds correctly
    assert np.array_equal(Q.weights, Q.weights.transpose(1, 0, 2))
    members = [[i for i, c in enumerate(P.class_of) if c == a] for a in range(P.n_classes)]
    for (a, b), points in blocks.items():
        got = Q.blocks[a][b]
        if len(members[a]) == len(members[b]) == 1:
            assert got == W.blocks[members[a][0]][members[b][0]]
        assert set(got.support) <= set(points)
        for k, (value, scale) in points.items():
            assert abs(Fraction(got(k)) - value) <= Fraction(1e-15) * scale


@pytest.mark.parametrize("m", [0.25, 0.3, 1 / 3])
@pytest.mark.parametrize("class_of", [(0, 0, 1), (1, 1, 0)])
def test_quotient_cancels_opposite_blocks_exactly(m, class_of):
    # classes 0 and 1 have equal masses and opposite blocks: merged, they cancel
    v = gl.FiniteMeasure((0, 2), (0.7, -1.3))
    minus_v = gl.FiniteMeasure((0, 2), (-0.7, 1.3))
    u, minus_u = point_mass(1, 0.37), point_mass(1, -0.37)
    x = point_mass(3, 0.9)
    zero = gl.FiniteMeasure((), ())
    W = graphon_from_blocks(
        (m, m, 1 - 2 * m), ((u, zero, v), (zero, minus_u, minus_v), (v, minus_v, x))
    )
    Q = gl.quotient(W, gl.Partition(class_of))
    merged, single = class_of[0], class_of[2]
    assert Q.blocks[merged][single].support == ()
    assert Q.blocks[single][merged].support == ()
    assert Q.blocks[merged][merged].support == ()
    assert Q.blocks[single][single] == x
    assert Q.support.tolist() == [3]  # points cancelled everywhere leave the support


#: masses whose merged average of the largest double rounds past it
OVERFLOW_MASSES = (0.3954619895429785, 0.5930180594914136, 0.011519950965607978)


@pytest.mark.parametrize(
    "transform",
    [
        lambda W: gl.quotient(W, gl.Partition((0, 0, 0))),
        lambda W: gl.twin_reduce(W, math.inf),
        lambda W: gl.anchored_graphon(W, [0], []),
    ],
    ids=["quotient", "reduce", "anchor"],
)
def test_quotient_refuses_overflowing_weights(transform):
    W = gl.StepGraphon(
        OVERFLOW_MASSES, [1], np.full((3, 3, 1), 1.7976931348623157e308)
    )
    with pytest.raises(ValidationError) as e:
        transform(W)  # and no RuntimeWarning: pytest turns it into an error
    assert e.value.code == "bad-measure"
    assert "(0, 0) merges classes [0, 1, 2] with [0, 1, 2]" in str(e.value)


def test_quotient_names_the_overflowing_merged_block():
    big = 1.7976931348623157e308
    weights = np.array([[big, 1.0, big], [1.0, 2.0, 3.0], [big, 3.0, big]])[:, :, None]
    masses = (0.30331788788358993, 0.33193383162441087, 0.3647482804919992)
    W = gl.StepGraphon(masses, [1], weights)
    with pytest.raises(ValidationError) as e:
        gl.quotient(W, gl.Partition((1, 0, 1)))
    assert "block (1, 1) merges classes [0, 2] with [0, 2]" in str(e.value)
    assert gl.quotient(W, gl.Partition((0, 1, 2))).weights.tolist() == weights.tolist()


def test_twin_partition_groups_identical_rows():
    rng = np.random.default_rng(22)
    W = duplicate_class(rand_graphon(rng, 3), rng, target=1)
    P = gl.twin_partition(W)
    assert P.n_classes == 3
    assert P.class_of[1] == P.class_of[3]  # the duplicate sits at the end


def test_twin_partition_w2_is_discrete(w2):
    # oracle: the two block rows differ in tv distance
    assert tv_distance(w2.blocks[0][0], w2.blocks[1][0]) > 0
    assert gl.twin_partition(w2).n_classes == 2


def test_twin_partition_infinite_tolerance(w2):
    assert gl.twin_partition(w2, tol=math.inf).n_classes == 1


def near_twin(W: gl.StepGraphon, rng, delta: float) -> gl.StepGraphon:
    """``W`` plus a copy of class 0 whose block against class 1 moves by ``delta``.

    The copy's row is then exactly ``delta`` from class 0's row.
    """
    dup = duplicate_class(W, rng, target=0)
    d = dup.q - 1
    blocks = [list(row) for row in dup.blocks]
    moved = measure_combine([(1.0, blocks[d][1]), (1.0, point_mass(0, delta))])
    blocks[d][1] = blocks[1][d] = moved
    return graphon_from_blocks(dup.masses, blocks, dup.functionals)


@pytest.mark.parametrize("chunk", [1, transforms.TWIN_CHUNK])
@pytest.mark.parametrize("tol", [gl.transforms.TWIN_TOL, 1e-3])
@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_twin_partition_matches_pairwise_oracle(monkeypatch, chunk, tol, factor):
    monkeypatch.setattr(transforms, "TWIN_CHUNK", chunk)
    rng = np.random.default_rng(30)
    for _ in range(10):
        W = rand_graphon(rng, int(rng.integers(2, 5)))
        for _ in range(int(rng.integers(0, 3))):
            W = duplicate_class(W, rng)  # planted exact twins
        W = near_twin(W, rng, factor * tol)
        P = gl.twin_partition(W, tol)
        assert P.class_of == pairwise_twin_partition(W, tol)
        assert (P.class_of[0] == P.class_of[-1]) == (factor < 1)


def test_twin_partition_edge_tolerances():
    W1 = scalar_graphon((1.0,), [[0.7]])
    assert gl.twin_partition(W1).class_of == pairwise_twin_partition(W1, 0.0) == (0,)
    rng = np.random.default_rng(31)
    W = rand_twin_free_graphon(rng, 5)
    assert gl.twin_partition(W, math.inf).class_of == (0,) * 5
    assert pairwise_twin_partition(W, math.inf) == (0,) * 5
    exact = duplicate_class(W, rng, target=2)
    assert gl.twin_partition(exact, 0.0).class_of == (0, 1, 2, 3, 4, 2)


MAX = 1.7976931348623157e308
#: block weights: a few values shared by many blocks, so exact twins are common,
#: values whose differences or projections overflow, and arbitrary fractions
TWIN_WEIGHTS = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 0.1, 1e300, -1e300, MAX, -MAX, math.nextafter(MAX, 0.0), 5e-324]),
    st.floats(-1e3, 1e3),
)
#: moves of a row relative to the tolerance: below, at and above it by a few ulps
NEAR = (0.5, 1.0 - 2**-40, 1.0, 1.0 + 2**-40, 2.0)


@st.composite
def near_twin_graphons(draw):
    """``(W, tol)``: 1..40 classes copied from a few base classes, some rows then moved.

    A move adds ``delta`` to one block weight of a class and to its mirror,
    so the moved class lies about ``delta`` from its copies; ``delta`` sits
    on both sides of ``tol``.
    """
    tol = draw(st.sampled_from([0.0, 1e-9, 1e-3, math.inf]))
    q, S = draw(st.integers(1, 40)), draw(st.integers(0, 3))
    n_base = draw(st.integers(1, min(q, 6)))
    cells = draw(st.lists(TWIN_WEIGHTS, min_size=n_base * n_base * S, max_size=n_base * n_base * S))
    base = np.array(cells, dtype=float).reshape(n_base, n_base, S)
    base = np.where(np.triu(np.ones((n_base, n_base), bool))[:, :, None], base, base.transpose(1, 0, 2))
    copy = draw(st.lists(st.integers(0, n_base - 1), min_size=q, max_size=q))
    w = base[copy][:, copy]
    if tol == 0.0:
        deltas = [5e-324, 1e-300, 1e-16]
    elif tol == math.inf:
        deltas = [1.0, 1e300]
    else:
        deltas = [tol * f for f in NEAR] + [math.nextafter(tol, 0.0), math.nextafter(tol, 1.0)]
    for _ in range(draw(st.integers(0, 4)) if S else 0):
        k, c, s = draw(st.integers(0, q - 1)), draw(st.integers(0, q - 1)), draw(st.integers(0, S - 1))
        moved = float(w[k, c, s]) + draw(st.sampled_from(deltas))
        if math.isfinite(moved):  # a graphon's weights are finite
            w[k, c, s] = w[c, k, s] = moved
    return gl.StepGraphon([1 / q] * q, np.arange(S), w), tol


@settings(max_examples=400, deadline=None)
@given(near_twin_graphons())
def test_twin_partition_matches_all_pairs_oracle(case):
    W, tol = case
    assert gl.twin_partition(W, tol).class_of == all_pairs_twin_partition(W, tol).class_of


def test_twin_partition_overflowing_rows_are_not_twins():
    W = gl.StepGraphon((0.5, 0.5), [1], [[[MAX], [-MAX]], [[-MAX], [MAX]]])
    assert gl.twin_partition(W).class_of == (0, 1)  # no RuntimeWarning either
    assert gl.twin_partition(W, math.inf).class_of == (0, 0)


def test_twin_partition_of_identical_rows_compares_each_row_once():
    # a coarse graphon split into many equal classes, which twin_reduce undoes:
    # every pair is a candidate and close, but a joined row is not compared again
    q = 2048
    W = gl.StepGraphon([1 / q] * q, [1], np.full((q, q, 1), 0.5))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        P = gl.twin_partition(W)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert P.class_of == (0,) * q
    assert elapsed < 3.0
    assert peak < 64 << 20  # the graphon itself is 32 MiB


@pytest.mark.parametrize("q, S", [(2048, 1), (1024, 8)])
def test_twin_partition_of_identical_rows_copies_no_weights(q, S):
    # the projection window's slack is bounded from the largest absolute
    # weight, not from a copy of the 32 or 64 MiB of weights
    W = gl.StepGraphon([1 / q] * q, list(range(1, S + 1)), np.full((q, q, S), 0.5))
    tracemalloc.start()
    try:
        P = gl.twin_partition(W)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert P.class_of == (0,) * q
    assert peak < 8 << 20


def test_twin_reduce_duplicate_masses():
    # two identical classes of mass .25 merge into one of mass .5
    W = scalar_graphon((0.25, 0.25, 0.5), [[1, 1, 2], [1, 1, 2], [2, 2, 3]])
    R = gl.twin_reduce(W)
    assert R.q == 2
    assert R.masses == (0.5, 0.5)


def test_twin_reduce_preserves_densities():
    rng = np.random.default_rng(23)
    for _ in range(8):
        W = rand_graphon(rng, int(rng.integers(2, 4)))
        for _ in range(int(rng.integers(1, 3))):
            W = duplicate_class(W, rng)
        R = gl.twin_reduce(W)
        assert R.q < W.q
        for psi in ("unit", "e0", "e1"):
            for F in graph_suite(psi):
                a = gl.density(F, W)
                b = gl.density(F, R)
                assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


#: random twin-free graphons each map is checked on
GRAPHONS = 24


def split_class(W: gl.StepGraphon, i: int) -> gl.StepGraphon:
    """Split class ``i`` into two twins of mass m/2 each, the new one last;
    halving is exact in binary, so both splits sum back to m exactly."""
    masses = list(W.masses) + [W.masses[i] / 2]
    masses[i] /= 2
    rows = list(range(W.q)) + [i]
    return gl.StepGraphon(masses, W.support, W.weights[rows][:, rows], dict(W.functionals))


def exact_suite(W: gl.StepGraphon) -> list[Fraction]:
    """The exact density of every ``graph_suite(psi)`` graph, for each functional."""
    kernels = exact_kernels(W, W.functionals)
    masses = [Fraction(m) for m in W.masses]
    suite = [F for psi in sorted(W.functionals) for F in graph_suite(psi)]
    return [exact_run(F, masses, kernels)[()] for F in suite]


def test_weak_isomorphisms_keep_the_exact_density():
    # the paper identifies graphons up to measure-preserving maps: each map
    # below leaves every exact density the same Fraction, and twin_reduce
    # undoes the split exactly, not within a tolerance
    rng = np.random.default_rng(26)
    checks = 0
    for _ in range(GRAPHONS):
        W = rand_twin_free_graphon(rng, int(rng.integers(1, 5)))
        perm = rng.permutation(W.q).tolist()
        permuted = gl.StepGraphon(
            [W.masses[c] for c in perm], W.support, W.weights[perm][:, perm], dict(W.functionals)
        )
        split = split_class(W, int(rng.integers(0, W.q)))
        R = gl.twin_reduce(split)
        assert R.masses == W.masses and R.blocks == W.blocks
        exact = exact_suite(W)
        for image in (
            permuted,
            split,
            fileio.parse_graphon(json.loads(fileio.dump_json(W))),
            R,
            gl.quotient(split, gl.twin_partition(split)),
        ):
            assert exact_suite(image) == exact
            checks += len(exact)
    assert checks == GRAPHONS * 5 * 5 * 5  # maps, functionals, graphs


def test_twin_reduce_idempotent_and_certified():
    rng = np.random.default_rng(24)
    for _ in range(10):
        W = duplicate_class(rand_graphon(rng, 3), rng)
        R = gl.twin_reduce(W)
        assert gl.twin_partition(R).n_classes == R.q  # twin-free certificate
        R2 = gl.twin_reduce(R)
        assert R2.masses == R.masses and R2.blocks == R.blocks


def test_merging_twins_keeps_kernel_rows():
    rng = np.random.default_rng(25)
    W = rand_graphon(rng, 3)
    dup = duplicate_class(W, rng, target=0)
    R = gl.twin_reduce(dup)
    for psi in W.functionals:
        K = gl.kernel_matrix(W, psi)
        KR = gl.kernel_matrix(R, psi)
        assert np.allclose(np.sort(K, axis=None), np.sort(KR, axis=None), atol=1e-10)


def test_anchored_w2_single_anchor(w2):
    fm, G = gl.anchored_graphon(w2, [0], ["unit"])
    assert fm.features.tolist() == [[1.0], [2.0]]
    assert G.q == 2  # nothing merged


def test_anchored_zero_functionals(w2):
    fm, G = gl.anchored_graphon(w2, [0], [])
    assert G.q == 1
    assert G.masses == (1.0,)


def test_anchored_matches_twin_reduce():
    rng = np.random.default_rng(26)
    for _ in range(8):
        W = duplicate_class(rand_twin_free_graphon(rng, 3), rng)
        anchors = list(range(W.q))
        fm, G = gl.anchored_graphon(W, anchors, sorted(W.functionals))
        R = gl.twin_reduce(W)
        assert graphons_close_upto_permutation(G, R, tol=1e-10)


def test_anchored_lexicographic_class_order():
    rng = np.random.default_rng(27)
    W = rand_twin_free_graphon(rng, 4)
    fm, G = gl.anchored_graphon(W, list(range(W.q)), sorted(W.functionals))
    rows = rounded_feature_rows(fm)
    distinct = sorted(set(rows))
    P = fm.induced_partition()
    # class k of the quotient corresponds to the k-th smallest feature row
    for i in range(W.q):
        assert distinct[P.class_of[i]] == rows[i]


def test_induced_partition_reads_negative_zero_as_zero():
    features = np.array([[0.0, 1.0], [-0.0, 1.0], [-1e-14, 1.0], [1.0, 0.0], [0.0, -1e-13]])
    fm = gl.transforms.FeatureMap((0, 1), ("unit",), features)
    assert fm.induced_partition().class_of == (1, 1, 1, 2, 0)


def test_induced_partition_keeps_features_too_large_to_scale_apart():
    # x * 10**12 overflows above about 1.8e296, where every double is whole
    features = np.array([[1e300], [2e300], [1e300], [-MAX], [MAX]])
    fm = gl.transforms.FeatureMap((0,), ("unit",), features)
    assert fm.induced_partition().class_of == (1, 2, 1, 0, 3)  # and no RuntimeWarning
    W = gl.StepGraphon(
        (0.5, 0.5), [1], [[[1e300], [2e300]], [[2e300], [1e300]]], {"unit": gl.unit_functional()}
    )
    assert gl.regularity_check(W, [0], ["unit"])


def test_regularity_full_information():
    rng = np.random.default_rng(28)
    W = rand_twin_free_graphon(rng, 4)
    assert gl.regularity_check(W, list(range(W.q)), sorted(W.functionals))


def test_regularity_no_functionals_fails(w2):
    assert not gl.regularity_check(w2, [0, 1], [])


#: few distinct blocks, so twins and shared feature rows both come up often
BLOCK_POOL = (
    gl.FiniteMeasure((), ()),
    point_mass(1, 1.0),
    point_mass(2, -0.5),
    gl.FiniteMeasure((1, 2), (1.0, -0.5)),
)


@st.composite
def anchored_graphons(draw):
    """A graphon on 1..6 classes built from :data:`BLOCK_POOL`, anchors and functional ids."""
    q = draw(st.integers(1, 6))
    cells = {(i, j): draw(st.sampled_from(BLOCK_POOL)) for i in range(q) for j in range(i, q)}
    blocks = [[cells[min(i, j), max(i, j)] for j in range(q)] for i in range(q)]
    functionals = {f.id: f for f in INDICATORS[:3]}
    W = graphon_from_blocks([1 / q] * q, blocks, functionals)
    anchors = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=q))
    psis = draw(st.lists(st.sampled_from(sorted(functionals)), unique=True))
    return W, anchors, psis


@settings(max_examples=300, deadline=None)
@given(anchored_graphons())
def test_regularity_matches_pairwise_oracle(case):
    W, anchors, psis = case
    assert gl.regularity_check(W, anchors, psis) == pairwise_regularity(W, anchors, psis)


def test_regularity_random_anchor_frequency():
    rng = np.random.default_rng(29)
    W = rand_twin_free_graphon(rng, 4)
    psis = sorted(W.functionals)
    hits = 0
    for seed in range(500):
        anchors = gl.sample_anchors(W, W.q, seed)
        if gl.regularity_check(W, anchors, psis):
            hits += 1
    assert hits >= 495  # observed frequency at least 0.99


def test_sample_anchors_single_class():
    W = scalar_graphon((1.0,), [[1.0]])
    assert gl.sample_anchors(W, 10, 3) == [0] * 10


def test_sample_anchors_deterministic(w2):
    assert gl.sample_anchors(w2, 50, 8) == gl.sample_anchors(w2, 50, 8)


def test_sample_anchors_refuses_no_anchors(w2):
    with pytest.raises(ValidationError) as e:
        gl.sample_anchors(w2, 0, 1)
    assert e.value.code == "bad-anchors"


def test_sample_anchors_frequencies():
    W = scalar_graphon((0.3, 0.7), [[1, 1], [1, 1]])
    n = 100_000
    draws = gl.sample_anchors(W, n, 123)
    for cls, p in ((0, 0.3), (1, 0.7)):
        freq = draws.count(cls) / n
        assert abs(freq - p) <= 4 * math.sqrt(p * (1 - p) / n)


@pytest.mark.parametrize("class_of", [(0, 10**12), (0, 2, 2), (1,), (-1, 0)])
def test_partition_surjectivity_costs_no_memory_per_class_index(class_of):
    # the check once built range(max + 1): 10^12 ints for a two-entry file
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError) as e:
            gl.Partition(class_of)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert e.value.code == "non-surjective"
    assert peak < 1 << 20
