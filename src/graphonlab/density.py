"""Homomorphism densities of decorated multigraphs against step graphons.

For a step graphon the defining integral collapses to a finite sum over
class assignments:

    t(F, W) = sum_{c : V -> [q]}  prod_v pi_{c(v)}  prod_e K_psi[c(u), c(v)]^mult

Every exact quantity here (:func:`density`, :func:`marginal` and both
sides of :func:`product_identity_residual`) is computed by one engine,
:func:`eliminate`: bucket elimination (Dechter, 1999) in greedy
min-degree order, whose cost is exponential only in the induced width of
the elimination order, not in the vertex count. Contractions that would
span more than :data:`MAX_CONTRACTION` elements are refused before
anything is allocated. The enumeration of all q^n assignments, the
definitional route, is kept in the tests as the oracle every route is
checked against.

Each bucket is one numpy contraction, so sums run in numpy's order and
results are not exactly rounded: densities and marginals agree with the
oracle to the 1e-10 contract, and values printed at 12 digits are stable,
but full-precision outputs (a ``productcheck`` residual that is an exact
zero by enumeration, ``liftcheck``'s direct densities) can move in the
last unit in the last place. Multiplicities are evaluated as integer
powers of kernel entries, never by expanding parallel edges.

:func:`mc_density` samples the same sum: each vertex's class is drawn by
inverse CDF over ``pi / sum(pi)`` through a lookup table, and the classes
are exactly those ``numpy.random.Generator.choice`` draws from the same
generator.
"""
from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .graphs import DecoratedMultigraph, product
from .stepgraphon import StepGraphon, kernel_matrix

#: largest tensor, in elements, one bucket of :func:`eliminate` may span:
#: q to the power of the vertices the bucket joins
MAX_CONTRACTION = 1 << 26

#: numpy's einsum names at most this many axes, so a bucket joins at most
#: this many vertices whatever q is
MAX_BUCKET_VERTICES = 52

#: Monte Carlo samples are drawn and evaluated about this many class draws
#: at a time: ``MC_CHUNK // n`` samples of an n-vertex graph, so each chunk
#: array holds about 0.5 MB whatever the graph; graphs of more vertices are
#: refused
MC_CHUNK = 1 << 16

#: a label-to-class pinning for marginal evaluation
Anchoring = Mapping[int, int]


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo mean with its standard error; reproducible by seed."""

    mean: float
    stderr: float
    samples: int
    seed: int


def _kernels(F: DecoratedMultigraph, W: StepGraphon) -> dict[str, np.ndarray]:
    return {psi: kernel_matrix(W, psi) for psi in sorted(F.psi_ids)}


def density(F: DecoratedMultigraph, W: StepGraphon, *, ignore_labels: bool = False) -> float:
    """Homomorphism density t(F, W), by bucket elimination in min-degree order.

    A labeled graph is refused with ``code="labeled-graph"`` unless
    ``ignore_labels`` is set, which evaluates it as if unlabeled.
    """
    if F.labels and not ignore_labels:
        raise ValidationError(
            "graph is labeled; drop the labels from the graph file, or pass "
            "ignore_labels=True (density --ignore-labels)",
            code="labeled-graph",
        )
    return float(eliminate(F, W))


def marginal(F: DecoratedMultigraph, W: StepGraphon, anchoring: Anchoring) -> float:
    """Density with labeled vertices pinned to classes by ``anchoring``.

    Pinned vertices carry no mass factor; only the free vertices are
    integrated. The marginal of an unlabeled graph is its density.
    """
    fixed: dict[int, int] = {}
    for v, label in F.labels.items():
        if label not in anchoring:
            raise ValidationError(f"no anchor for label {label}", code="missing-anchor")
        fixed[v] = anchoring[label]
    return float(eliminate(F, W, pinned=fixed))


# -- bucket elimination --------------------------------------------------------


def _min_degree_order(scopes: Sequence[tuple[int, ...]], free: Sequence[int]) -> list[int]:
    """Greedy min-degree elimination order on the factor-interaction graph;
    free vertices in no scope, which :func:`_schedule` would skip, are left out."""
    neighbors: dict[int, set[int]] = defaultdict(set)
    for scope in scopes:
        for x in scope:
            neighbors[x].update(scope)
            neighbors[x].discard(x)
    remaining = set(free) & neighbors.keys()
    order = []
    while remaining:
        v = min(remaining, key=lambda x: (len(neighbors[x]), x))
        nbrs = neighbors[v] - {v}
        for a in nbrs:
            neighbors[a] |= nbrs - {a}
            neighbors[a].discard(v)
        remaining.discard(v)
        order.append(v)
    return order


def _schedule(scopes: Sequence[tuple[int, ...]], order: Sequence[int]):
    """The buckets of an elimination, computed on the factor scopes alone.

    Factors are numbered in creation order: one per scope, then one per
    step. Each step is ``(v, bucket, left)``: the vertex summed out, the
    ``(number, scope)`` of the live factors that mention it, and the scope
    of the factor it leaves (the bucket's vertices in first-seen order,
    without ``v``). Returns the steps and the factors live at the end.
    """
    live = dict(enumerate(scopes))
    steps = []
    for v in order:
        bucket = [(i, s) for i, s in live.items() if v in s]
        if not bucket:
            continue  # isolated vertex integrates to sum(pi) == 1
        for i, _ in bucket:
            del live[i]
        left = tuple(x for x in dict.fromkeys(x for _, s in bucket for x in s) if x != v)
        live[len(scopes) + len(steps)] = left
        steps.append((v, bucket, left))
    return steps, live


def _align(arr: np.ndarray, vars_: tuple[int, ...], target: tuple[int, ...]) -> np.ndarray:
    shape = [1] * len(target)
    src = {v: ax for ax, v in enumerate(vars_)}
    perm = [src[v] for v in target if v in src]
    arr = np.transpose(arr, perm) if len(perm) > 1 else arr
    it = iter(range(arr.ndim))
    for ax, v in enumerate(target):
        if v in src:
            shape[ax] = arr.shape[next(it)]
    return arr.reshape(shape)


def eliminate(
    F: DecoratedMultigraph,
    W: StepGraphon,
    keep: Sequence[int] = (),
    order: Sequence[int] | None = None,
    *,
    pinned: Mapping[int, int] | None = None,
) -> np.ndarray:
    """Sum out every vertex not in ``keep``; returns an array over ``keep``.

    Each eliminated vertex is contracted against the mass vector; kept
    vertices index the axes of the result in the order given. Vertices in
    ``pinned`` are fixed to the given classes and carry no mass factor.
    With ``keep=()`` this is the full density as a 0-d array.

    Raises ``ValidationError(code="too-costly")``, before allocating, when
    a bucket (or the result) would span more than :data:`MAX_CONTRACTION`
    elements or :data:`MAX_BUCKET_VERTICES` vertices.
    """
    q = W.q
    keep = tuple(keep)
    pinned = dict(pinned or {})
    for v, cls in pinned.items():
        if not (0 <= cls < q):
            raise ValidationError(
                f"anchor class {cls} out of range for q={q}", code="bad-anchor"
            )
        pinned[v] = int(cls)
    scopes = [tuple(x for x in (u, v) if x not in pinned) for u, v, _, _ in F.edges]
    free = [v for v in range(F.n_vertices) if v not in keep and v not in pinned]
    if order is None:
        order = _min_degree_order(scopes, free)
    else:
        order = list(order)
        if sorted(order) != sorted(free):
            raise ValidationError(
                "elimination order must be a permutation of the free vertices",
                code="bad-order",
            )
    steps, live = _schedule(scopes, order)
    width = max([len(keep)] + [len(left) + 1 for _, _, left in steps])
    if q**width > MAX_CONTRACTION or width > MAX_BUCKET_VERTICES:
        raise ValidationError(
            f"elimination would span {q**width} elements (q={q} over {width} vertices); "
            f"the limits are {MAX_CONTRACTION} elements and {MAX_BUCKET_VERTICES} vertices",
            code="too-costly",
        )

    pi = np.asarray(W.masses)
    kernels = _kernels(F, W)
    arrays = {}
    for i, (u, v, psi, mult) in enumerate(F.edges):
        arr = kernels[psi] if mult == 1 else kernels[psi] ** mult
        arrays[i] = arr[pinned.get(u, slice(None)), pinned.get(v, slice(None))]
    for n, (v, bucket, left) in enumerate(steps, start=len(scopes)):
        if len(bucket) == 1:
            ((i, scope),) = bucket
            arrays[n] = np.tensordot(arrays.pop(i), pi, axes=(scope.index(v), 0))
            continue
        # v is summed inside the pairwise contractions; the joined tensor
        # over (v, *left) is never built
        axis = {x: k for k, x in enumerate((v, *left))}
        operands: list = [pi, [0]]
        for i, scope in bucket:
            operands += [arrays.pop(i), [axis[x] for x in scope]]
        arrays[n] = np.einsum(*operands, list(range(1, len(left) + 1)), optimize="greedy")

    result = np.ones((q,) * len(keep))
    for i, scope in live.items():
        result = result * _align(arrays[i], scope, keep)
    return result


# -- Monte Carlo ---------------------------------------------------------------


class _ClassSampler:
    """Inverse-CDF class draw over ``pi``, equal to ``Generator.choice``.

    ``rng.choice(q, size, p=pi)`` is ``cdf.searchsorted(rng.random(size),
    side="right")`` with ``cdf = pi.cumsum() / pi.cumsum()[-1]``.
    :meth:`draw` consumes the same uniforms and returns the same classes,
    but looks them up in a table of ``m`` equal cells of [0, 1) instead of
    searching: ``m`` is a power of two, so ``u * m`` is exact and its
    integer part is the cell holding ``u``. ``table[c]`` is the class of
    every ``u`` in cell ``c``, or -1 when a cdf value lies strictly inside
    the cell; only those draws (at most about q/m of them, with
    ``m >= 64 q``) fall back to the search.
    """

    def __init__(self, pi: np.ndarray):
        self.cdf = pi.cumsum()
        self.cdf /= self.cdf[-1]
        self.m = 1 << max(12, (64 * pi.size - 1).bit_length())
        edges = np.arange(self.m + 1) / self.m
        lo = self.cdf.searchsorted(edges[:-1], side="right")
        # the class of the largest double below the cell's upper end
        hi = self.cdf.searchsorted(np.nextafter(edges[1:], 0), side="right")
        self.table = np.where(lo == hi, lo, -1)

    def draw(self, rng: np.random.Generator, rows: int, n: int) -> np.ndarray:
        """Classes of ``rows`` samples of ``n`` vertices, one contiguous row per vertex.

        Equal to ``rng.choice(q, size=(rows, n), p=pi).T`` and leaves
        ``rng`` in the same state.
        """
        u = rng.random((rows, n)).T
        u *= self.m
        cls = u.astype(np.intp, order="C")
        # in place: each cell index is read before its slot is written, and
        # "clip" (a no-op, cells lie in [0, m)) keeps take from buffering
        self.table.take(cls, out=cls, mode="clip")
        straddle = cls < 0
        if straddle.any():
            cls[straddle] = self.cdf.searchsorted(u[straddle] / self.m, side="right")
        return cls


def mc_density(
    F: DecoratedMultigraph,
    W: StepGraphon,
    samples: int,
    seed: int,
    *,
    workers: int = 1,
) -> MCEstimate:
    """Unbiased sampling estimate of the density.

    Each sample draws one class per vertex from the mass distribution
    ``pi / sum(pi)``, by inverse CDF, and evaluates the edge product; the
    classes are those ``Generator.choice`` would draw. Sample blocks are
    drawn from independent substreams spawned off the seed, one per worker,
    and reduced in worker order, one after another, so the estimate is a
    pure function of (seed, workers). Each substream is drawn in chunks of
    about :data:`MC_CHUNK` class draws; the generator fills them in sample
    order, so the samples do not depend on the chunk size.

    Memory is one float64 per sample plus one chunk: the variance is
    computed inside the sample vector with the operations ``np.std``
    performs (subtract the mean, square, ``np.add.reduce``), so the
    standard error has the same bytes without a second vector.

    Raises ``ValidationError(code="too-costly")``, before allocating, when
    the sample vector would hold more than :data:`MAX_CONTRACTION` values
    or one sample more than :data:`MC_CHUNK` class draws,
    ``code="labeled-graph"`` for a labeled graph, and
    ``code="nonpositive-mass"`` for a negative or non-finite mass or a mass
    vector that does not sum to a positive number.
    """
    if samples < 1:
        raise ValidationError("need at least one sample", code="bad-samples")
    if workers < 1:
        raise ValidationError("need at least one worker", code="bad-workers")
    if samples > MAX_CONTRACTION:
        raise ValidationError(
            f"Monte Carlo would hold {samples} sample values; "
            f"the limit is {MAX_CONTRACTION} elements",
            code="too-costly",
        )
    if F.n_vertices > MC_CHUNK:
        raise ValidationError(
            f"Monte Carlo would draw {F.n_vertices} classes per sample; "
            f"the limit is {MC_CHUNK} vertices",
            code="too-costly",
        )
    if F.labels:
        raise ValidationError(
            "graph is labeled; drop the labels from the graph file", code="labeled-graph"
        )
    q = W.q
    masses = np.asarray(W.masses, dtype=float)
    total = masses.sum()
    bad = masses[~(masses >= 0)]  # NaN too; an infinite mass makes the total infinite
    if bad.size or not 0 < total < math.inf:
        got = f"mass {float(bad[0])!r}" if bad.size else f"total {float(total)!r}"
        raise ValidationError(
            f"sampling needs finite nonnegative class masses with a positive total, got {got}",
            code="nonpositive-mass",
        )
    # the cdf is renormalised anyway, but dividing first rounds it as
    # choice(p=pi / pi.sum()) did, so the classes and output bytes stay put
    sampler = _ClassSampler(masses / total)
    flat = {psi: K.ravel() for psi, K in _kernels(F, W).items()}

    shares = [samples // workers + (1 if w < samples % workers else 0) for w in range(workers)]
    streams = np.random.SeedSequence(seed).spawn(workers)
    rows_per_chunk = MC_CHUNK // max(1, F.n_vertices)
    vals = np.empty(samples)
    pos = 0
    for w, share in enumerate(shares):
        if share == 0:
            continue
        rng = np.random.default_rng(streams[w])
        for start in range(0, share, rows_per_chunk):
            rows = min(rows_per_chunk, share - start)
            cls = sampler.draw(rng, rows, F.n_vertices)
            out = vals[pos : pos + rows]
            out.fill(1.0)
            for u, v, psi, mult in F.edges:
                entries = flat[psi][cls[u] * q + cls[v]]
                out *= entries if mult == 1 else entries**mult
            pos += rows
    mean = np.mean(vals)
    stderr = 0.0
    if samples > 1:  # np.std(vals, ddof=1), step for step, without a second vector
        vals -= mean
        np.square(vals, out=vals)
        stderr = math.sqrt(np.add.reduce(vals) / (samples - 1)) / math.sqrt(samples)
    return MCEstimate(float(mean), stderr, samples, seed)


# -- labeled product identity ----------------------------------------------------


def product_identity_residual(
    F1: DecoratedMultigraph, F2: DecoratedMultigraph, W: StepGraphon
) -> float:
    """Residual of the labeled product identity.

    Compares the unlabeled density of the merged product against the
    mass-weighted sum, over all pinnings of the shared labels, of the
    product of the two marginals. Both sides are contractions: the product
    is eliminated completely, each factor down to a tensor over its labeled
    vertices in label order. The two agree up to rounding; the returned
    value is the absolute difference.
    """
    if F1.label_set != F2.label_set:
        raise ValidationError(
            f"label sets differ: {sorted(F1.label_set)} vs {sorted(F2.label_set)}",
            code="label-mismatch",
        )
    labels = sorted(F1.label_set)
    lhs = float(eliminate(product(F1, F2), W))
    T1 = eliminate(F1, W, keep=[F1.vertex_of_label(l) for l in labels])
    T2 = eliminate(F2, W, keep=[F2.vertex_of_label(l) for l in labels])
    weight = np.ones(())
    for _ in labels:
        weight = np.multiply.outer(weight, np.asarray(W.masses))
    rhs = math.fsum((weight * T1 * T2).ravel())
    return abs(lhs - rhs)
