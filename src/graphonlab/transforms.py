"""Quotients, twin reduction, and anchored canonical forms of step graphons.

Quotienting a step graphon by a partition of its classes is the finite
conditional expectation: merged masses add, merged blocks are the
mass-weighted averages of the originals. Twins (classes whose block rows
agree) can be merged without changing any homomorphism density, and the
anchored construction recovers that twin-free form from feature rows of
kernel evaluations against a finite anchor set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .stepgraphon import StepGraphon, kernel_matrix

# bench/tracing.py counts calls through these names; nothing here calls them
from .measures import measure_combine, tv_distance  # noqa: F401

#: default tolerance on the tv distance of block rows when detecting twins
TWIN_TOL = 1e-9

#: twin detection compares rows in chunks of at most this many float64
#: differences (512 KB)
TWIN_CHUNK = 1 << 16

#: the smallest positive double: the most a product that underflows can lose
_SUBNORMAL = np.finfo(float).smallest_subnormal

#: feature rows are rounded to this many decimals before exact comparison
FEATURE_DECIMALS = 12


@dataclass
class Partition:
    """Surjective map from source classes onto ``0..n_classes-1``."""

    class_of: tuple[int, ...]

    def __post_init__(self):
        self.class_of = tuple(int(c) for c in self.class_of)
        if not self.class_of:
            raise ValidationError("partition of zero classes", code="bad-partition")
        n = max(self.class_of) + 1
        # n distinct values in 0..n-1 are all of them; range(n) is never built
        if min(self.class_of) < 0 or len(set(self.class_of)) != n:
            raise ValidationError(
                "partition map must be surjective onto 0..n-1", code="non-surjective"
            )

    @property
    def n_classes(self) -> int:
        return max(self.class_of) + 1


def quotient(W: StepGraphon, P: Partition) -> StepGraphon:
    """Push the graphon forward along the partition.

    Merged masses add; merged blocks are the conditional expectation, the
    mass-weighted average of the constituent measures. Each class gets
    the share ``m_i / M_a`` of its merged class, and the blocks are summed
    first over the rows, then over the columns of each merged pair, each
    sum a separate product and reduction (no fused multiply-add), so
    equal shares of ``+v`` and ``-v`` cancel to an exact zero. A singleton
    class has share exactly 1.0, so singleton-to-singleton blocks come
    out bit-for-bit unchanged and quotients by the identity (and by any
    discrete refinement) are exact.

    Raises ``ValidationError(code="bad-measure")`` when a merged block's
    weights overflow to a non-finite value.
    """
    if len(P.class_of) != W.q:
        raise ValidationError(
            f"partition covers {len(P.class_of)} classes, graphon has {W.q}",
            code="bad-partition",
        )
    class_of = np.asarray(P.class_of)
    order = np.argsort(class_of, kind="stable")
    starts = np.searchsorted(class_of[order], np.arange(P.n_classes))
    groups = np.split(order, starts[1:])
    m = np.asarray(W.masses)
    masses = tuple(math.fsum(m[g].tolist()) for g in groups)

    share = (m / np.asarray(masses)[class_of])[order]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        rows = W.weights[order]
        rows *= share[:, None, None]
        rows = np.add.reduceat(rows, starts, axis=0)[:, order]
        rows *= share[None, :, None]
        Q = np.add.reduceat(rows, starts, axis=1)
    lower = np.tril_indices(P.n_classes, -1)
    Q[lower] = Q[lower[1], lower[0]]  # exact symmetry: mirror the upper triangle
    overflow = np.argwhere(~np.isfinite(Q).all(axis=2))
    if overflow.size:
        a, b = overflow[0]  # row-major on a symmetric mask, so a <= b
        raise ValidationError(
            f"quotient block ({a}, {b}) merges classes {groups[a].tolist()} with "
            f"{groups[b].tolist()}; its weights overflow the double range",
            code="bad-measure",
        )

    keep = Q.any(axis=(0, 1))  # drop points every merged block cancelled
    return StepGraphon(masses, W.support[keep], Q[:, :, keep], W.functionals)


def twin_partition(W: StepGraphon, tol: float = TWIN_TOL) -> Partition:
    """Group classes whose block rows agree within ``tol``, transitively.

    Two rows are within ``tol`` when every pair of corresponding blocks
    is, in total variation: ``max_c sum_s |w[i,c,s] - w[j,c,s]| <= tol``.
    Classes of the result are numbered by their smallest member.
    """
    if not tol >= 0:  # NaN fails too
        raise ValidationError("twin tolerance must be >= 0", code="bad-tolerance")
    q = W.q
    w = W.weights
    order, end = _candidate_pairs(w.reshape(q, -1), tol)
    label = np.arange(q)  # the smallest member of each row's class found so far
    step = max(1, TWIN_CHUNK // max(1, w[0].size))
    with np.errstate(over="ignore"):  # rows that far apart are no twins below tol = inf
        for k in np.flatnonzero(end > np.arange(1, q + 1)).tolist():
            i = order[k]
            window = order[k + 1 : end[k]]
            window = window[label[window] != label[i]]  # a joined pair joins nothing new
            for c in range(0, len(window), step):
                rows = window[c : c + step]
                diff = w[rows] - w[i]
                np.abs(diff, out=diff)
                close = rows[diff.sum(axis=-1).max(axis=-1) <= tol]
                if close.size:  # relabel the classes row i joins to their smallest label
                    joined = np.append(label[close], label[i])
                    relabel = np.arange(q)
                    relabel[joined] = joined.min()
                    label = relabel[label]
    return Partition(tuple(np.unique(label, return_inverse=True)[1].tolist()))


def _candidate_pairs(rows: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows sorted by a projection, and where each sorted position's window ends.

    The sorted positions ``k < l < end[k]`` pair up every two rows within
    ``tol``. Each row is projected on ``r = cos(0, 1, 2, ...)``. Every
    ``|r_k| <= 1``, so rows at distance ``d`` (the largest of the ``q``
    block tv distances) project at most ``q * d`` apart, and only rows
    whose projections lie within ``q * tol`` plus a slack can be within
    ``tol``. The slack covers
    the rounding of the dot products (``n u`` times ``n`` times the largest
    absolute weight, which bounds every absolute row sum, for ``n`` terms
    and unit roundoff ``u``), of the row distances and of the window's
    bounds, with a margin of more than 2. Every window ends at ``q`` when a
    projection or the bound is not finite.
    """
    q, n = rows.shape
    with np.errstate(over="ignore", invalid="ignore"):  # all pairs then
        p = rows @ np.cos(np.arange(n))
        size = n * max(rows.max(initial=0.0), -rows.min(initial=0.0)) + q * tol  # no copy of rows
        reach = q * tol + (4 * n + 16) * (np.finfo(float).eps * size + _SUBNORMAL)
        if not (np.isfinite(p).all() and np.isfinite(reach)):
            return np.arange(q), np.full(q, q)
        order = np.argsort(p, kind="stable")
        p = p[order]
        return order, np.searchsorted(p, p + reach, side="right")  # an overflow to inf only widens


def twin_reduce(W: StepGraphon, tol: float = TWIN_TOL) -> StepGraphon:
    """Quotient by the twin partition until no two classes are within ``tol``.

    Averaging can create fresh near-coincidences at generous tolerances, so
    the reduction iterates to its fixed point; the result certifies
    twin-freeness and the operation is idempotent by construction.
    """
    current = W
    while True:
        P = twin_partition(current, tol)
        if P.n_classes == current.q:
            return current
        current = quotient(current, P)


@dataclass
class FeatureMap:
    """Rows of kernel evaluations against anchor classes.

    Row i collects ``kernel(psi)[i, a]`` for every functional id (outer)
    and anchor (inner). Twin classes have identical rows, so grouping equal
    rows recovers the twin structure visible to the anchors.
    """

    anchors: tuple[int, ...]
    functional_ids: tuple[str, ...]
    features: np.ndarray

    def induced_partition(self) -> Partition:
        """Classes with equal rounded rows merged, ordered lexicographically."""
        with np.errstate(over="ignore"):  # x * 10**12 overflows only where x is whole
            rounded = np.round(self.features, FEATURE_DECIMALS)
        rounded = np.where(np.isfinite(rounded), rounded, self.features) + 0.0  # -0.0 -> 0.0
        _, class_of = np.unique(rounded, axis=0, return_inverse=True)
        return Partition(class_of)


def feature_map(
    W: StepGraphon, anchors: Sequence[int], functional_ids: Sequence[str]
) -> FeatureMap:
    """The feature rows of ``W``; :func:`kernel_matrix` refuses a kernel beyond the doubles."""
    anchors = tuple(int(a) for a in anchors)
    functional_ids = tuple(functional_ids)
    if not anchors:
        raise ValidationError("need at least one anchor", code="bad-anchors")
    for a in anchors:
        if not (0 <= a < W.q):
            raise ValidationError(f"anchor class {a} out of range", code="bad-anchors")
    mats = [kernel_matrix(W, f) for f in functional_ids]
    cols = [m[:, a] for m in mats for a in anchors]
    features = np.stack(cols, axis=1) if cols else np.zeros((W.q, 0))
    return FeatureMap(anchors, functional_ids, features)


def anchored_graphon(
    W: StepGraphon, anchors: Sequence[int], functional_ids: Sequence[str]
) -> tuple[FeatureMap, StepGraphon]:
    """Quotient by equality of feature rows, classes ordered by row.

    The returned graphon is the push-forward of the masses under the
    feature map; with no functionals every row is empty and everything
    collapses to a single class.
    """
    fm = feature_map(W, anchors, functional_ids)
    return fm, quotient(W, fm.induced_partition())


def regularity_check(
    W: StepGraphon, anchors: Sequence[int], functional_ids: Sequence[str]
) -> bool:
    """True iff the feature rows separate every pair of non-twin classes.

    That is, no class of the feature rows' induced partition meets two
    classes of the twin partition: its classes are as many as the distinct
    (class, twin class) pairs.
    """
    classes = feature_map(W, anchors, functional_ids).induced_partition().class_of
    twins = twin_partition(W).class_of
    return len(set(classes)) == len(set(zip(classes, twins)))


def sample_anchors(W: StepGraphon, count: int, seed: int) -> list[int]:
    """``count`` i.i.d. class draws from the mass distribution; seeded."""
    if count < 1:
        raise ValidationError("anchor count must be >= 1", code="bad-anchors")
    pi = np.asarray(W.masses)
    rng = np.random.default_rng(seed)
    return [int(c) for c in rng.choice(W.q, size=count, p=pi / pi.sum())]
