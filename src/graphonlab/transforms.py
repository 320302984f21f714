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
        if min(self.class_of) < 0 or set(self.class_of) != set(range(n)):
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
    parent = list(range(q))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    step = max(1, TWIN_CHUNK // max(1, w.size))
    for i0 in range(0, q, step):
        i1 = min(q, i0 + step)
        diff = w[i0:i1, None] - w[None, i0:]  # rows i0..i1 against rows i0..q
        np.abs(diff, out=diff)
        close = diff.sum(axis=-1).max(axis=-1) <= tol
        close &= np.arange(q - i0)[None, :] > np.arange(i1 - i0)[:, None]
        for a, b in zip(*np.nonzero(close)):
            ri, rj = find(i0 + int(a)), find(i0 + int(b))
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)

    roots: dict[int, int] = {}
    class_of = []
    for i in range(q):
        r = find(i)
        if r not in roots:
            roots[r] = len(roots)
        class_of.append(roots[r])
    return Partition(tuple(class_of))


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

    def rounded_rows(self) -> list[tuple[float, ...]]:
        rounded = np.round(self.features, FEATURE_DECIMALS) + 0.0  # -0.0 -> 0.0
        return [tuple(row) for row in rounded]

    def induced_partition(self) -> Partition:
        """Classes with equal rounded rows merged, ordered lexicographically."""
        rows = self.rounded_rows()
        distinct = sorted(set(rows))
        rank = {r: n for n, r in enumerate(distinct)}
        return Partition(tuple(rank[r] for r in rows))


def feature_map(
    W: StepGraphon, anchors: Sequence[int], functional_ids: Sequence[str]
) -> FeatureMap:
    anchors = tuple(int(a) for a in anchors)
    functional_ids = tuple(functional_ids)
    if not anchors:
        raise ValidationError("need at least one anchor", code="bad-anchors")
    for a in anchors:
        if not (0 <= a < W.q):
            raise ValidationError(f"anchor class {a} out of range", code="bad-anchors")
    mats = [kernel_matrix(W, psi) for psi in functional_ids]
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

    That is, no rounded feature row is shared by two classes of the twin
    partition: the distinct rows are as many as the distinct (row, twin
    class) pairs.
    """
    rows = feature_map(W, anchors, functional_ids).rounded_rows()
    twins = twin_partition(W).class_of
    return len(set(rows)) == len(set(zip(rows, twins)))


def sample_anchors(W: StepGraphon, count: int, seed: int) -> list[int]:
    """``count`` i.i.d. class draws from the mass distribution; seeded."""
    if count < 1:
        raise ValidationError("anchor count must be >= 1", code="bad-anchors")
    pi = np.asarray(W.masses)
    rng = np.random.default_rng(seed)
    return [int(c) for c in rng.choice(W.q, size=count, p=pi / pi.sum())]
