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

MOMENT_MATCH_TOL = 1e-10
WITNESS_GAP_MIN = 1e-8

#: the largest order of a finite-difference stencil whose binomial
#: coefficients are doubles: C(1030, 515) is beyond the double range
MAX_STENCIL_ORDER = 1029


@dataclass
class MatchedPair:
    """Two distinct distributions on {0..N} sharing moments up to order D.

    ``null_vector`` spans the direction along which the two vectors differ;
    it annihilates the moment map up to order D, and its order-(D+1)
    moment is nonzero, which certifies the pair is genuinely distinct.
    """

    support_size: int
    order: int
    p: tuple[float, ...]
    q: tuple[float, ...]
    epsilon: float
    null_vector: tuple[float, ...]

    def __post_init__(self):
        self.p = tuple(float(x) for x in self.p)
        self.q = tuple(float(x) for x in self.q)
        self.null_vector = tuple(float(z) for z in self.null_vector)
        if len(self.p) != self.support_size or len(self.q) != self.support_size:
            raise ValidationError("pair vectors must live on {0..N}", code="bad-pair")
        if self.p == self.q:
            raise ValidationError("pair vectors must differ", code="bad-pair")
        for vec in (self.p, self.q):
            if any(x < 0 for x in vec):
                raise ValidationError("pair vectors must be nonnegative", code="bad-pair")
            if abs(math.fsum(vec) - 1.0) > 1e-12:
                raise ValidationError("pair vectors must sum to 1", code="bad-pair")
        for r in range(self.order + 1):
            if abs(moment(self.p, r) - moment(self.q, r)) > MOMENT_MATCH_TOL:
                raise ValidationError(
                    f"moments must agree up to order {self.order}", code="bad-pair"
                )
        if abs(moment(self.p, self.order + 1) - moment(self.q, self.order + 1)) <= WITNESS_GAP_MIN:
            raise ValidationError(
                "pair must differ strictly at the witness order", code="bad-pair"
            )


def _difference_stencil(order: int, length: int) -> tuple[float, ...]:
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
    z = [0.0] * length
    for i in range(order + 1):
        z[i] = float((-1) ** i * math.comb(order, i))
    return tuple(z)


def matched_pair(N: int, D: int) -> MatchedPair:
    """Deterministic moment-matched pair on {0..N} to order D.

    The annihilating direction is the (D+1)-th finite-difference stencil at
    positions 0..D+1 (zero-padded), which kills every moment of order at
    most D; around the uniform vector the largest admissible step in that
    direction is taken on both sides. Refused as ``too-costly``, before the
    stencil is built, beyond the size budget of :func:`require_affordable`.
    """
    if N < D + 1:
        raise ValidationError(
            f"support {{0..{N}}} cannot match order {D}: need N >= D + 1",
            code="infeasible",
        )
    if D < 0:
        raise ValidationError("order must be >= 0", code="bad-order")
    # the stencil, the moment checks (both vectors at orders 0..D+1) and the
    # three printed vectors
    what = f"a pair on {{0..{N}}} matched to order {D}"
    require_affordable(what, (N + 1) * (1 + 2 * (D + 2)), printed=3 * (N + 1))
    z = _difference_stencil(D + 1, N + 1)
    u = 1.0 / (N + 1)
    eps = min(u / abs(zk) for zk in z if zk != 0.0)
    p = [u + eps * zk for zk in z]
    q = [u - eps * zk for zk in z]
    # the extreme entries land exactly on 0; clear any rounding dust
    p = [0.0 if abs(x) < 1e-15 else x for x in p]
    q = [0.0 if abs(x) < 1e-15 else x for x in q]
    return MatchedPair(N + 1, D, tuple(p), tuple(q), eps, z)


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
    the (D+1)-star witness exhibits the gap, which :class:`MatchedPair`
    guarantees at order D+1. The report is deterministic: ``seed`` is
    accepted for the CLI's ``--seed`` and does not influence it. One graphon's
    q x q weights and its q x q kernel, q <= N + 1, then every suite elimination
    are charged to the size budget before either graphon is built; the
    graphons are then built one at a time, each dropped once the whole
    suite is evaluated on it.
    """
    pair = matched_pair(N, D)
    low, witness = standard_suite(D)
    suite = low + [witness]
    require_affordable(f"a rank-1 graphon's weights and kernel on {{0..{N}}}", 2 * (N + 1) ** 2)
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

    return CounterexampleReport(
        pair=pair,
        graphs=tuple(records),
        max_discrepancy_low_degree=max(r.gap for r in records[:-1]),
        witness_graph=witness,
        witness_gap=records[-1].gap,
    )
