"""Functional/measure pairing, total variation, and raw moments."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphonlab as gl
from graphonlab.errors import ValidationError
from graphonlab.measures import measure_combine, pair, point_mass, tv_distance, tv_norm


def direct_pair(psi: gl.TestFunctional, v: gl.FiniteMeasure) -> float:
    """Independent evaluation oracle: literal sum over the integer grid."""
    top = max(list(psi.support) + list(v.support), default=0)
    return sum(psi(k) * v(k) for k in range(top + 1))


ID_FUNCTIONAL = gl.TestFunctional("id", tuple(range(10)), tuple(float(k) for k in range(10)))


def test_pair_point_mass_against_indicator():
    assert pair(gl.unit_functional(), point_mass(1, 3.0)) == 3.0


def test_pair_zero_measure():
    assert pair(ID_FUNCTIONAL, gl.FiniteMeasure((), ())) == 0.0


def test_pair_identity_functional_signed_measure():
    v = gl.FiniteMeasure((2, 5), (1.0, -2.0))
    assert direct_pair(ID_FUNCTIONAL, v) == -8.0
    assert pair(ID_FUNCTIONAL, v) == -8.0


def test_pair_disjoint_supports():
    psi = gl.TestFunctional("lo", (0, 1), (1.0, 1.0))
    assert pair(psi, point_mass(7, 4.0)) == 0.0


def test_tv_norm_examples():
    assert tv_norm(point_mass(1)) == 1.0
    v = gl.FiniteMeasure((0, 4), (2.0, -3.0))
    assert tv_norm(v) == 5.0


def test_tv_triangle_equality_without_cancellation():
    v = gl.FiniteMeasure((0, 4), (2.0, -3.0))
    doubled = measure_combine([(1.0, v), (1.0, v)])
    assert tv_norm(doubled) == 2 * tv_norm(v)


def test_tv_cancellation_drops_points():
    v = point_mass(3, 1.5)
    w = measure_combine([(1.0, v), (1.0, point_mass(3, -1.5))])
    assert w.support == ()
    assert tv_norm(w) == 0.0


small_floats = st.floats(-5, 5, allow_nan=False).filter(lambda x: abs(x) > 1e-3)


@st.composite
def measures(draw):
    pts = draw(st.lists(st.integers(0, 8), unique=True, min_size=0, max_size=4))
    ws = draw(st.lists(small_floats, min_size=len(pts), max_size=len(pts)))
    return gl.FiniteMeasure(tuple(sorted(pts)), tuple(w for _, w in sorted(zip(pts, ws))))


@st.composite
def functionals(draw, fid="f"):
    pts = draw(st.lists(st.integers(0, 8), unique=True, min_size=1, max_size=4))
    vs = draw(st.lists(st.floats(-3, 3, allow_nan=False), min_size=len(pts), max_size=len(pts)))
    return gl.TestFunctional(fid, tuple(sorted(pts)), tuple(v for _, v in sorted(zip(pts, vs))))


@settings(deadline=None)
@given(functionals("f1"), functionals("f2"), measures(), small_floats, small_floats)
def test_pair_is_bilinear(psi1, psi2, v, a, b):
    support = tuple(sorted(set(psi1.support) | set(psi2.support)))
    combo = gl.TestFunctional("combo", support, [a * psi1(k) + b * psi2(k) for k in support])
    lhs = pair(combo, v)
    rhs = a * pair(psi1, v) + b * pair(psi2, v)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


@settings(deadline=None)
@given(functionals(), measures())
def test_pair_bounded_by_sup_times_tv(psi, v):
    sup = max(abs(x) for x in psi.values)
    assert abs(pair(psi, v)) <= sup * tv_norm(v) + 1e-12


def test_moment_examples():
    delta3 = [0.0, 0.0, 0.0, 1.0]
    assert gl.moment(delta3, 2) == 9.0
    assert gl.moment(delta3, 0) == 1.0
    p = [x / 36 for x in (7, 2, 12, 2, 7, 6)]
    oracle = sum(k * x for k, x in enumerate(p))
    assert oracle == pytest.approx(2.5, abs=1e-14)
    assert gl.moment(p, 1) == pytest.approx(2.5, abs=1e-12)


@settings(deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6), st.integers(0, 6))
def test_moment_monotone_on_positive_support(raw, r):
    # distribution supported on {1,..}: k**r is nondecreasing in r there
    total = sum(raw)
    p = [0.0] + [x / total for x in raw]
    assert gl.moment(p, r) <= gl.moment(p, r + 1) + 1e-12


def test_moment_rejects_bad_distributions():
    with pytest.raises(ValidationError):
        gl.moment([0.5, -0.5, 1.0], 1)
    with pytest.raises(ValidationError):
        gl.moment([0.5, 0.4], 1)


def test_measure_validation():
    with pytest.raises(ValidationError):
        gl.FiniteMeasure((2, 1), (1.0, 1.0))  # decreasing support
    with pytest.raises(ValidationError):
        gl.FiniteMeasure((1,), (0.0,))  # stored zero
    with pytest.raises(ValidationError):
        gl.FiniteMeasure((-1,), (1.0,))
    with pytest.raises(ValidationError):
        gl.FiniteMeasure((1,), (math.inf,))


def test_functional_validation():
    with pytest.raises(ValidationError):
        gl.TestFunctional("", (1,), (1.0,))
    with pytest.raises(ValidationError):
        gl.TestFunctional("f", (1, 1), (1.0, 1.0))


def test_measure_combine_and_distance():
    a = gl.FiniteMeasure((0, 2), (1.0, 2.0))
    b = gl.FiniteMeasure((2, 3), (1.0, -1.0))
    c = gl.measures.measure_combine([(2.0, a), (-1.0, b)])
    assert c.support == (0, 2, 3)
    assert c.weights == (2.0, 3.0, 1.0)
    assert tv_distance(a, b) == abs(1.0) + abs(2.0 - 1.0) + abs(-1.0)


def test_moment_sequence_validation():
    with pytest.raises(ValidationError):
        gl.MomentSequence((0.5, 1.0), "distribution")  # order 0 not 1
    with pytest.raises(ValidationError):
        gl.MomentSequence((1.0, 2.0, -1.0), "distribution")  # negative even moment
    seq = gl.MomentSequence((1.0, 2.0, 8.0), "distribution")
    assert seq.norm_at(2) == pytest.approx(math.sqrt(8.0))
    sym = gl.MomentSequence((0.0, 1.0, 4.0), "symbolic")
    assert sym.norm_at(2) == 4.0
    with pytest.raises(ValidationError):
        seq.norm_at(5)

