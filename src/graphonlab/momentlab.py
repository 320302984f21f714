"""Moment-matched distribution pairs and the rank-1 counterexample report.

Two different distributions with equal moments up to order D induce, as
squares of their value functions, two step graphons whose homomorphism
densities agree on every graph of maximum degree at most D: the density of
a graph against such a rank-1 graphon factorizes as the product of the
moments at the vertex degrees. A graph with a vertex of degree D+1 then
witnesses that the two graphons are genuinely different objects.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .density import _planned, density, require_affordable
from .errors import ValidationError
from .graphs import (
    DecoratedMultigraph,
    cycle_graph,
    edge_graph,
    path_graph,
    star_graph,
)
from .measures import DEFAULT_FUNCTIONAL_ID, moment, unit_functional
from .stepgraphon import StepGraphon

# bench/tracing.py counts calls through this name; nothing here calls it
from .measures import point_mass  # noqa: F401

#: the largest order of a finite-difference stencil whose binomial
#: coefficients are doubles: C(1030, 515) is beyond the double range
MAX_STENCIL_ORDER = 1029


@dataclass
class MatchedPair:
    """Two distinct distributions on {0..N} sharing moments up to order D.

    ``null_vector`` spans the direction along which the two vectors differ;
    it annihilates the moment map up to order D, and its order-(D+1)
    moment is nonzero, which certifies the pair is genuinely distinct. Every
    check is exact, on ints, floats or Fractions; each entry is then rounded once.
    """

    support_size: int
    order: int
    p: tuple[float, ...]
    q: tuple[float, ...]
    epsilon: float
    null_vector: tuple[float, ...]

    def __post_init__(self):
        if len(self.p) != self.support_size or len(self.q) != self.support_size:
            raise ValidationError("pair vectors must live on {0..N}", code="bad-pair")
        if tuple(self.p) == tuple(self.q):  # ints, floats and Fractions compare exactly
            raise ValidationError("pair vectors must differ", code="bad-pair")
        exact = []  # each vector as integers over one denominator
        for vec in (self.p, self.q):
            try:
                den = math.lcm(*{x.as_integer_ratio()[1] for x in vec})
                nums = [n * (den // d) for n, d in (x.as_integer_ratio() for x in vec)]
            except (OverflowError, ValueError):  # an infinite or NaN entry, which sums to no 1
                nums, den = [-1 if x < 0 else 0 for x in vec], 1
            if min(nums) < 0:
                raise ValidationError("pair vectors must be nonnegative", code="bad-pair")
            if sum(nums) != den:
                raise ValidationError("pair vectors must sum to 1", code="bad-pair")
            exact.append((nums, den))
        (P, dp), (Q, dq) = exact
        # the moment gaps times dp * dq, by running powers k^r, where p and q differ
        ks, terms = zip(*((k, d) for k, (a, b) in enumerate(zip(P, Q)) if (d := a * dq - b * dp)))
        gaps = []
        for _ in range(self.order + 2):
            gaps.append(sum(terms))
            terms = [t * k for t, k in zip(terms, ks)]
        if any(gaps[:-1]):
            raise ValidationError(f"moments must agree up to order {self.order}", code="bad-pair")
        if not gaps[-1]:
            raise ValidationError("pair must differ strictly at the witness order", code="bad-pair")
        p, q = ({n: n / d for n in set(nums)} for nums, d in exact)  # int / int rounds once
        self.p, self.q = tuple(map(p.__getitem__, P)), tuple(map(q.__getitem__, Q))
        self.epsilon = float(self.epsilon)
        nv = self.null_vector  # equal entries share one float; floats, -0.0 too, stay as they are
        z = {x: float(x) for x in set(nv) if not isinstance(x, float)}
        self.null_vector = tuple(float(x) if isinstance(x, float) else z[x] for x in nv)


def _difference_stencil(order: int, length: int) -> tuple[int, ...]:
    """Alternating binomial coefficients of the order-th finite difference,
    placed at positions 0..order and zero-padded to ``length``.

    An order above :data:`MAX_STENCIL_ORDER` is refused as ``bad-order``.
    """
    if order > MAX_STENCIL_ORDER:
        raise ValidationError(
            f"the stencil of order {order} (matched order {order - 1}) has binomial "
            f"coefficients beyond the double range; the largest matched order whose "
            f"stencil fits in a double is {MAX_STENCIL_ORDER - 1}",
            code="bad-order",
        )
    head = tuple((-1) ** i * math.comb(order, i) for i in range(order + 1))
    return head + (0,) * (length - order - 1)


def _pair_stencil(N: int, D: int) -> tuple[int, ...]:
    """:func:`matched_pair`'s refusals, in its order, then its stencil."""
    if N < D + 1:
        raise ValidationError(
            f"support {{0..{N}}} cannot match order {D}: need N >= D + 1",
            code="infeasible",
        )
    if D < 0:
        raise ValidationError("order must be >= 0", code="bad-order")
    # priced as doubles: the stencil, the moment checks (both vectors at orders
    # 0..D+1) and the three printed vectors; the exact pair fits in it (README)
    what = f"a pair on {{0..{N}}} matched to order {D}"
    require_affordable(what, (N + 1) * (1 + 2 * (D + 2)), printed=3 * (N + 1))
    return _difference_stencil(D + 1, N + 1)


def matched_pair(N: int, D: int) -> MatchedPair:
    """Deterministic moment-matched pair on {0..N} to order D.

    The annihilating direction is the (D+1)-th finite-difference stencil at
    positions 0..D+1 (zero-padded), which kills every moment of order at
    most D; around the uniform vector the largest admissible step in that
    direction is taken on both sides, in Fractions: u = 1/(N+1) and eps =
    u / max|z|. Refused as ``too-costly``, before the stencil is built, beyond
    the size budget of :func:`require_affordable`.
    """
    z = _pair_stencil(N, D)
    u = Fraction(1, N + 1)
    eps = u / max(map(abs, z))
    tail = [u] * (N - D - 1)  # every entry past D + 1 is u: one shared object
    p = [u + eps * zk for zk in z[: D + 2]] + tail
    q = [u - eps * zk for zk in z[: D + 2]] + tail
    return MatchedPair(N + 1, D, p, q, eps, z)


def rank1_graphon(dist) -> StepGraphon:
    """The square graphon of a distribution's value function.

    Support points with positive mass become classes; the block between
    classes with values k and k' is the scalar k*k' embedded at point 1,
    so every density can be read off with the canonical functional. The
    support is empty when every product is 0 (the lone class k = 0). A
    vector that does not sum to 1 within 1e-12 is refused as :func:`moment`
    refuses it.
    """
    dist = [float(x) for x in dist]
    points = [k for k, x in enumerate(dist) if x > 0.0]
    if any(x < 0.0 for x in dist):
        raise ValidationError("distribution has a negative entry", code="bad-distribution")
    if not points:
        raise ValidationError("distribution has empty support", code="empty-support")
    moment(dist, 0)  # the sum check
    masses = tuple(dist[k] for k in points)
    values = np.array(points, dtype=np.float64)
    weights = np.outer(values, values)[:, :, None]  # products below 2^53 are exact
    support = [1] if weights.any() else []
    unit = unit_functional()
    return StepGraphon(masses, support, weights[:, :, : len(support)], {unit.id: unit})


def rank1_density(F: DecoratedMultigraph, dist) -> float:
    """Closed-form density against the rank-1 graphon of ``dist``.

    The factorized value is the product over vertices of the moment at the
    vertex degree (degrees counted with multiplicity); an isolated vertex
    contributes ``M_0 = 1``. Requires an unlabeled graph whose edges all
    carry the canonical decoration. A product beyond the double range is
    refused as ``overflow``.
    """
    if F.labels:
        raise ValidationError("closed form needs an unlabeled graph", code="labeled-graph")
    bad = F.psi_ids - {DEFAULT_FUNCTIONAL_ID}
    if bad:
        raise ValidationError(
            f"non-canonical decorations present: {sorted(bad)}",
            code="non-canonical-decoration",
        )
    degrees = F.degrees
    # one moment per distinct degree; M_0 checks ``dist`` even when F has no edges
    moments = {d: moment(dist, d) for d in {0, *degrees.values()}}
    value = math.prod((moments[degrees[v]] for v in sorted(degrees)), start=1.0)
    if not math.isfinite(value):
        raise ValidationError(
            f"the rank-1 density of a graph on {F.n_vertices} vertices is beyond the double range",
            code="overflow",
        )
    return value


@dataclass
class GraphRecord:
    """Densities of one suite graph against both rank-1 graphons."""

    graph: DecoratedMultigraph
    max_degree: int
    density_p: float
    density_q: float
    gap: float


@dataclass
class CounterexampleReport:
    pair: MatchedPair
    graphs: tuple[GraphRecord, ...]
    max_discrepancy_low_degree: float
    witness_graph: DecoratedMultigraph
    #: the exact |M_{D+1}(p) - M_{D+1}(q)| * M_1^{D+1}, rounded once
    witness_gap: float

    @property
    def graphs_tested(self) -> tuple[GraphRecord, ...]:  # the earlier name of ``graphs``
        return self.graphs


def standard_suite(D: int) -> tuple[list[DecoratedMultigraph], DecoratedMultigraph]:
    """Low-degree suite (max degree <= D) plus the (D+1)-star witness."""
    if D < 1:
        raise ValidationError("suite needs order >= 1", code="bad-order")
    candidates = [edge_graph(), path_graph(2), cycle_graph(3), star_graph(3), cycle_graph(4)]
    low = [g for g in candidates if g.max_degree <= D]
    return low, star_graph(D + 1)


def counterexample_report(N: int, D: int, seed: int | None = None) -> CounterexampleReport:
    """Build the matched pair, evaluate the standard suite on both graphons, report.

    Graphs of maximum degree at most D must come out with equal densities;
    the (D+1)-star witness exhibits the gap, exact in ``witness_gap`` and in
    floats, as a diagnostic, in each record's ``gap``. ``seed`` is accepted
    for the CLI's ``--seed`` and does not influence the report. After
    :func:`matched_pair`'s refusals, one graphon's q x q weights and kernel,
    q <= N + 1, are charged to the size budget before the pair is built,
    then every suite elimination; the graphons are then built one at a
    time, each dropped once the whole suite is evaluated on it.
    """
    _pair_stencil(N, D)  # matched_pair's refusals, before the suite and the graphon charge
    low, witness = standard_suite(D)
    suite = low + [witness]
    require_affordable(f"a rank-1 graphon's weights and kernel on {{0..{N}}}", 2 * (N + 1) ** 2)
    pair = matched_pair(N, D)
    for g in suite:
        for dist in (pair.p, pair.q):  # q as rank1_graphon will count it
            _planned(g, sum(x > 0.0 for x in dist))
    sides = []
    for dist in (pair.p, pair.q):  # one rank-1 graphon alive at a time
        W = rank1_graphon(dist)
        sides.append([density(g, W) for g in suite])
        del W
    records = [
        GraphRecord(g, g.max_degree, dp, dq, abs(dp - dq)) for g, dp, dq in zip(suite, *sides)
    ]
    # M_1 = N/2 on both sides and the order-(D+1) gap is 2 eps (D+1)!; below the star's
    # density, which ``density`` refused beyond the doubles, it rounds without overflow
    gap = math.factorial(D + 1) * N ** (D + 1) / ((N + 1) * math.comb(D + 1, (D + 1) // 2) * 2**D)

    return CounterexampleReport(
        pair=pair,
        graphs=tuple(records),
        max_discrepancy_low_degree=max(r.gap for r in records[:-1]),
        witness_graph=witness,
        witness_gap=gap,
    )
