"""Graphon validation, kernels, p-norms and Carleman reports."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphonlab as gl
from graphonlab.errors import ValidationError
from graphonlab.measures import pair, tv_norm
from graphonlab.stepgraphon import _prefix_sums

from conftest import duplicate_class, rand_graphon, scalar_graphon


def test_validate_accepts_one_class():
    W = scalar_graphon((1.0,), [[0.7]])
    gl.validate_graphon(W)


def test_validate_error_codes():
    good = scalar_graphon((0.5, 0.5), [[1, 2], [2, 3]])
    bad_sum = gl.StepGraphon((0.6, 0.5), good.support, good.weights, good.functionals)
    with pytest.raises(ValidationError) as e:
        gl.validate_graphon(bad_sum)
    assert e.value.code == "mass-sum"

    bad_mass = gl.StepGraphon((1.2, -0.2), good.support, good.weights, good.functionals)
    with pytest.raises(ValidationError) as e:
        gl.validate_graphon(bad_mass)
    assert e.value.code == "nonpositive-mass"

    with pytest.raises(ValidationError) as e:
        gl.validate_graphon(scalar_graphon((0.5, 0.5), [[1, 2], [9, 3]]))
    assert e.value.code == "asymmetric-blocks"


def test_validate_refuses_a_functional_under_another_key():
    good = scalar_graphon((0.5, 0.5), [[1, 2], [2, 3]])
    functionals = {"other": gl.unit_functional()}
    W = gl.StepGraphon(good.masses, good.support, good.weights, functionals)
    with pytest.raises(ValidationError) as e:
        gl.validate_graphon(W)
    assert e.value.code == "bad-functional-key"


def test_validate_rejects_blocks_that_are_not_q_by_q():
    for shape in ((2, 1, 1), (1, 2, 1), (3, 3, 1)):
        with pytest.raises(ValidationError) as e:
            gl.validate_graphon(gl.StepGraphon((0.5, 0.5), [1], np.ones(shape)))
        assert e.value.code == "bad-shape"


def test_validate_names_first_asymmetric_pair():
    w = np.zeros((3, 3, 1))
    w[1, 2] = w[2, 1] = 1.0
    w[0, 2] = 2.0  # (2, 0) stays zero
    W = gl.StepGraphon((0.2, 0.3, 0.5), [1], w)
    with pytest.raises(ValidationError) as e:
        gl.validate_graphon(W)
    assert e.value.code == "asymmetric-blocks"
    assert "(0,2)" in str(e.value)


def test_array_layout_and_exact_block_view():
    W = rand_graphon(np.random.default_rng(8), 4)
    points = sorted({k for row in W.blocks for b in row for k in b.support})
    assert W.support.tolist() == points
    assert W.weights.shape == (4, 4, len(points))
    for i in range(4):
        for j in range(4):
            b = W.blocks[i][j]
            assert [W.weights[i, j, points.index(k)] for k in b.support] == list(b.weights)
            assert np.count_nonzero(W.weights[i, j]) == len(b.support)
    V = gl.StepGraphon(W.masses, W.support, W.weights, W.functionals)
    assert V.blocks == W.blocks  # rebuilt from the arrays, zero weights dropped
    assert not V.weights.flags.writeable
    tv = [[tv_norm(b) for b in row] for row in W.blocks]
    assert np.allclose(V.tv_matrix, tv, rtol=1e-15, atol=0)


def test_kernels_and_norms_match_per_block_loops():
    # the block-by-block fsum loops these replace, within the rounding of
    # a numpy sum over at most four points
    rng = np.random.default_rng(9)
    for _ in range(20):
        W = duplicate_class(rand_graphon(rng, int(rng.integers(1, 6))), rng, target=0)
        for psi in W.functionals.values():
            K = gl.kernel_matrix(W, psi.id)
            for i in range(W.q):
                for j in range(W.q):
                    b = W.blocks[i][j]
                    scale = math.fsum(abs(psi(k) * w) for k, w in zip(b.support, b.weights))
                    assert abs(K[i, j] - pair(psi, b)) <= 4e-16 * scale
            assert np.array_equal(K[0], K[-1])  # twin classes: bit-identical rows
        assert np.array_equal(W.tv_matrix[0], W.tv_matrix[-1])
        for p in (1, 2.5, 7):
            tv = [[tv_norm(b) for b in row] for row in W.blocks]
            top = max(map(max, tv))
            old = top * math.fsum(
                W.masses[i] * W.masses[j] * (tv[i][j] / top) ** p
                for i in range(W.q)
                for j in range(W.q)
            ) ** (1.0 / p)
            assert gl.p_norm(W, p) == pytest.approx(old, rel=1e-14)


def test_unknown_functional_id(w2):
    with pytest.raises(ValidationError) as e:
        gl.kernel_matrix(w2, "nope")
    assert e.value.code == "unknown-functional"
    assert "nope" in str(e.value)


def test_kernel_w2(w2):
    # oracle: pair each block by hand
    expected = [[pair(w2.functionals["unit"], w2.blocks[i][j]) for j in range(2)] for i in range(2)]
    assert expected == [[1.0, 2.0], [2.0, 3.0]]
    K = gl.kernel_matrix(w2, "unit")
    assert K.tolist() == expected
    assert np.array_equal(K, K.T)


def test_kernel_disjoint_support_is_zero(w2):
    e5 = gl.TestFunctional("e5", (5,), (1.0,))
    W = gl.StepGraphon(w2.masses, w2.support, w2.weights, {**w2.functionals, "e5": e5})
    assert np.all(gl.kernel_matrix(W, "e5") == 0.0)


def test_kernel_linear_in_functional(w2):
    psi1 = gl.TestFunctional("a", (1,), (2.0,))
    psi2 = gl.TestFunctional("b", (1, 3), (-1.0, 4.0))
    combo = gl.TestFunctional("c", (1, 3), [0.5 * psi1(k) + 2.0 * psi2(k) for k in (1, 3)])
    W = gl.StepGraphon(w2.masses, w2.support, w2.weights, {"a": psi1, "b": psi2, "c": combo})
    lhs = gl.kernel_matrix(W, "c")
    rhs = 0.5 * gl.kernel_matrix(W, "a") + 2.0 * gl.kernel_matrix(W, "b")
    assert np.allclose(lhs, rhs, atol=1e-12)


@st.composite
def overflowing_kernels(draw):
    """A graphon of q <= 4 classes, a finite functional ``g`` and a functional
    ``f`` whose kernel overflows in one block pair alone: that block puts
    ``10**a`` on point 1, where ``f`` reads ``10**(310 - a)``."""
    q = draw(st.integers(1, 4))
    masses = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=q, max_size=q)))
    small = st.floats(-1.0, 1.0, allow_subnormal=False)
    weights = np.array(draw(st.lists(small, min_size=2 * q * q, max_size=2 * q * q)))
    weights = weights.reshape(q, q, 2)
    weights = weights + weights.transpose(1, 0, 2)
    i, j = draw(st.integers(0, q - 1)), draw(st.integers(0, q - 1))
    a = draw(st.integers(250, 300))
    weights[i, j, 0] = weights[j, i, 0] = draw(st.sampled_from([1.0, -1.0])) * 10.0**a
    f = gl.TestFunctional("f", (1, 2), (10.0 ** (310 - a), draw(small)))
    g = gl.TestFunctional("g", (1, 2), (draw(small), draw(small)))
    return gl.StepGraphon(masses / masses.sum(), (1, 2), weights, {"f": f, "g": g})


@settings(max_examples=60, deadline=None)
@given(overflowing_kernels(), st.integers(1, 3), st.data())
def test_every_reader_refuses_an_overflowing_kernel(W, mult, data):
    # one message from kernel_matrix, whichever route reads the kernel, even
    # where the route would read only finite entries (a pinned marginal, a
    # column of the feature map, Monte Carlo draws missing the block)
    cls = data.draw(st.integers(0, W.q - 1))
    F = gl.DecoratedMultigraph(3, ((0, 1, "f", mult), (1, 2, "g", 1)))
    labeled = gl.DecoratedMultigraph(3, F.edges, {0: 1})
    routes = [
        lambda: gl.kernel_matrix(W, "f"),
        lambda: gl.density(F, W),
        lambda: gl.marginal(labeled, W, {1: cls}),
        lambda: gl.mc_density(F, W, 100, 1),
        lambda: gl.product_identity_residual(labeled, labeled, W),
        lambda: gl.path_kernel(W, "f", mult),
        lambda: gl.eigendecomp(W, "f"),
        lambda: gl.transforms.feature_map(W, [cls], ["g", "f"]),
    ]
    for route in routes:
        with pytest.raises(ValidationError) as e:
            route()
        assert e.value.code == "overflow"
        assert str(e.value) == "the kernel of 'f' is not finite: it overflows a double"


def test_p_norm_examples(w2):
    # oracle: weighted sum over the four blocks
    tv = [[1.0, 2.0], [2.0, 3.0]]
    assert gl.p_norm(w2, 1) == pytest.approx(
        sum(0.25 * tv[i][j] for i in range(2) for j in range(2)), abs=1e-14
    )
    assert gl.p_norm(w2, 1) == pytest.approx(2.0, abs=1e-12)
    assert gl.p_norm(w2, 2) == pytest.approx(math.sqrt(4.5), abs=1e-12)


def test_p_norm_constant_graphon():
    W = scalar_graphon((1.0,), [[2.5]])
    for p in (1, 2, 4, 10, 64):
        assert gl.p_norm(W, p) == pytest.approx(2.5, rel=1e-12)


def test_p_norm_rejects_small_p(w2):
    with pytest.raises(ValidationError):
        gl.p_norm(w2, 0.5)


def test_p_norm_monotone_in_p():
    rng = np.random.default_rng(7)
    for _ in range(30):
        W = rand_graphon(rng, int(rng.integers(1, 5)))
        ps = sorted(rng.uniform(1, 20, size=3))
        vals = [gl.p_norm(W, p) for p in ps]
        assert vals[0] <= vals[1] + 1e-12
        assert vals[1] <= vals[2] + 1e-12


def test_p_norm_zero_graphon():
    unit = gl.unit_functional()
    W = gl.StepGraphon((1.0,), [], np.zeros((1, 1, 0)), {unit.id: unit})
    assert gl.p_norm(W, 3) == 0.0


def test_carleman_step_graphon_divergent(w2):
    rep = gl.carleman_report(w2, 1, 100)
    assert rep.classification == "divergent"
    assert len(rep.partial_sums) == 100
    # bounded graphon: every term at least 1 / sup-norm
    assert rep.partial_sums[-1] >= 100 / w2.sup_norm - 1e-9
    assert all(a <= b + 1e-15 for a, b in zip(rep.partial_sums, rep.partial_sums[1:]))


def test_carleman_linear_growth_divergent():
    # norms grow linearly: entry at index p is p, so terms are 1/(2n)
    seq = gl.MomentSequence(tuple(float(p) for p in range(401)), "symbolic")
    for n in (50, 100, 200):
        rep = gl.carleman_report(seq, 1, n)
        assert rep.classification == "divergent"


def test_carleman_geometric_convergent():
    # norms at index 2n equal e**n: terms e**-n, partial sums below 1/(e-1)
    seq = gl.MomentSequence(tuple(math.exp(p / 2.0) for p in range(401)), "symbolic")
    for n in (50, 100, 200):
        rep = gl.carleman_report(seq, 1, n)
        assert rep.classification == "convergent"
        # the geometric tail sum bounds every partial sum (equality only in
        # the last float digit once the tail drops below resolution)
        assert rep.partial_sums[-1] <= 1.0 / (math.e - 1.0) + 1e-12
    # oracle: the plateau matches the geometric tail sum
    tail = sum(math.exp(-n) for n in range(1, 51))
    assert gl.carleman_report(seq, 1, 50).partial_sums[-1] == pytest.approx(tail, rel=1e-12)


def test_carleman_inconclusive_family():
    # constant tiny terms do not tend to 0, so the series diverges
    seq = gl.MomentSequence(tuple(1e7 for _ in range(201)), "symbolic")
    rep = gl.carleman_report(seq, 1, 100)
    assert rep.classification == "divergent"


def _symbolic(term, count: int) -> gl.MomentSequence:
    """Symbolic norms whose order-1 Carleman terms are ``term(n)``: the norm at 2n is 1/term(n)."""
    norms = [1.0] + [1.0 / term((p + 1) // 2) for p in range(1, 2 * count + 1)]
    return gl.MomentSequence(tuple(norms), "symbolic")


def _law(log_moment, count: int) -> gl.MomentSequence:
    """Symbolic norms ``E[X^p]^(1/p)`` of a law from the logarithm of its moments."""
    norms = [1.0] + [math.exp(log_moment(p) / p) for p in range(1, 2 * count + 1)]
    return gl.MomentSequence(tuple(norms), "symbolic")


#: the classical families with the verdict the Carleman rule must give on them
CARLEMAN_FAMILIES = {
    **{
        f"geometric-{a}": ("convergent", lambda c, a=a: _symbolic(lambda n: math.exp(-a * n), c))
        for a in (1, 0.5, 0.1, 0.02, 0.01, 0.0025)
    },
    # the lognormal law, moment-indeterminate (Heyde 1963): norm exp(p s^2 / 2)
    **{
        f"lognormal-{s}": ("convergent", lambda c, s=s: _law(lambda p: p * p * s * s / 2, c))
        for s in (1, 0.2, 0.05)
    },
    "p-series-0.5": ("divergent", lambda c: _symbolic(lambda n: n**-0.5, c)),
    "p-series-1": ("divergent", lambda c: _symbolic(lambda n: 1.0 / n, c)),
    "p-series-2": ("convergent", lambda c: _symbolic(lambda n: n**-2.0, c)),
    "n-log2-n": ("convergent", lambda c: _symbolic(lambda n: 1 / ((n + 1) * math.log(n + 1) ** 2), c)),
    # Bertrand's boundary case diverges, too slowly for finitely many terms to show
    "n-log-n": ("inconclusive", lambda c: _symbolic(lambda n: 1 / ((n + 1) * math.log(n + 1)), c)),
    "constant-1e-7": ("divergent", lambda c: _symbolic(lambda n: 1e-7, c)),
    "abs-gaussian": (
        "divergent",
        lambda c: _law(lambda p: p / 2 * math.log(2) + math.lgamma((p + 1) / 2) - math.log(math.pi) / 2, c),
    ),
    "exponential": ("divergent", lambda c: _law(lambda p: math.lgamma(p + 1), c)),
}


@pytest.mark.parametrize("count", [50, 100, 200, 400])
@pytest.mark.parametrize("family", list(CARLEMAN_FAMILIES))
def test_carleman_verdicts_on_the_classical_families(family, count):
    verdict, make = CARLEMAN_FAMILIES[family]
    assert gl.carleman_report(make(count), 1, count).classification == verdict


@pytest.mark.parametrize(
    "k, norms, verdict",
    [
        (2, [1.0, 1.0, 1e200, 1e200], "convergent"),  # 1e200 ** -2 is 0.0: a tail of zeros
        (2, [1.0, 1.0, 1e200, 1.0], "inconclusive"),  # a zero term, then a positive one
        (1, [1.0, 2.0], "inconclusive"),  # one term in the last half
    ],
    ids=["zero-tail", "zero-then-positive", "one-term"],
)
def test_carleman_zero_terms_and_short_tails(k, norms, verdict):
    # the norm at order 2nk is norms[n - 1]; the others are 1
    entries = [1.0] * (2 * k * len(norms) + 1)
    entries[2 * k :: 2 * k] = norms
    rep = gl.carleman_report(gl.MomentSequence(tuple(entries), "symbolic"), k, len(norms))
    assert rep.classification == verdict


def test_carleman_insufficient_moments():
    seq = gl.MomentSequence(tuple(float(p + 1) for p in range(10)), "symbolic")
    with pytest.raises(ValidationError) as e:
        gl.carleman_report(seq, 1, 100)
    assert e.value.code == "insufficient-moments"


def test_carleman_higher_k(w2):
    rep = gl.carleman_report(w2, 3, 50)
    assert rep.classification == "divergent"
    assert rep.partial_sums[-1] >= 50 * w2.sup_norm**-3 - 1e-9


def test_carleman_overflowing_terms_are_infinite():
    # 1e-200 ** -2 is no double, and 1e-154 ** -2 is one but two of them are not
    rep = gl.carleman_report(scalar_graphon((1.0,), [[1e-200]]), 2, 3)
    assert rep.classification == "divergent"
    assert rep.partial_sums == (math.inf, math.inf, math.inf)
    rep = gl.carleman_report(gl.MomentSequence((1e-154,) * 13, "symbolic"), 2, 3)
    assert rep.classification == "divergent"
    assert rep.partial_sums == (1e-154**-2.0, math.inf, math.inf)


def _fsum_or_inf(values: list[float]) -> float:
    """Correctly rounded sum of nonnegative terms, ``inf`` once it leaves the double range.

    ``math.fsum`` calls some sums an intermediate overflow that still round
    to the largest double; those are rounded here from the exact sum, on the
    grid of doubles in ``[2**1023, 2**1024)``, half to even.
    """
    try:
        return math.fsum(values)
    except OverflowError:
        if math.inf in values:
            return math.inf
    exact = sum(map(Fraction, values))
    assert exact >= 2**1023
    mantissa = round(exact / 2**971)
    return math.inf if mantissa >= 2**53 else float(mantissa) * 2.0**971


MAX = 1.7976931348623157e308
TERMS = st.one_of(
    st.floats(min_value=0.0, allow_nan=False),
    st.sampled_from([0.0, 5e-324, 1e-300, 1.0, 1e16, 2.0**969, 2.0**970, 1e308, MAX / 2, MAX, math.inf]),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(TERMS, max_size=40))
def test_prefix_sums_are_fsum_of_every_prefix(terms):
    assert _prefix_sums(terms) == [_fsum_or_inf(terms[: n + 1]) for n in range(len(terms))]


@pytest.mark.parametrize(
    "terms",
    [
        [math.inf] * 3,  # the terms of the 1e-200 graphon at k = 2
        [1e-154**-2.0] * 3,  # the terms of the 1e-154 moments at k = 2: the sum overflows
        [MAX, 2.0**970, 1.0],  # a tie that rounds to inf
        [MAX, 2.0**969, 2.0**969],  # two quarter ulps make that tie
        [1e16, 1.0, 1.0, 1.0],
        [0.1] * 10 + [1e-20] * 5,
        [10.0 ** (e / 5) for e in range(-1500, 1501)] + [MAX],  # 1e-300 .. 1e300, then inf
        # math.fsum calls this an intermediate overflow; the sum rounds to MAX
        [2.0**969 * (1 + 2.0**-52), 2.0**1023 - 2.0**970, 2.0**1023 - 2.0**970],
    ],
)
def test_prefix_sums_edge_cases(terms):
    assert _prefix_sums(terms) == [_fsum_or_inf(terms[: n + 1]) for n in range(len(terms))]


def test_prefix_sums_round_below_the_overflow_threshold():
    # these sums lie under MAX + 2**970, the midpoint past MAX
    assert _prefix_sums([MAX, 2.0**969]) == [MAX, MAX]
    assert _prefix_sums([2.0**1023 - 2.0**970] * 2 + [2.0**969 * (1 + 2.0**-52)])[-1] == MAX


def test_prefix_sums_nan_terms():
    # a NaN term makes every later prefix NaN, unless an inf term came first
    sums = _prefix_sums([1.0, math.nan, math.inf, 2.0])
    assert list(map(repr, sums)) == ["1.0", "nan", "nan", "nan"]
    assert list(map(repr, _prefix_sums([1.0, math.inf, math.nan]))) == ["1.0", "inf", "inf"]


def test_carleman_distribution_source():
    # moments of a bounded variable: norms approach the essential sup, divergent
    dist = [0.25, 0.5, 0.25]
    seq = gl.MomentSequence(tuple(gl.moment(dist, r) for r in range(121)))
    rep = gl.carleman_report(seq, 1, 50)
    assert rep.classification == "divergent"
