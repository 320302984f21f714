"""Homomorphism densities of decorated multigraphs against step graphons.

For a step graphon the defining integral collapses to a finite sum over
class assignments:

    t(F, W) = sum_{c : V -> [q]}  prod_v pi_{c(v)}  prod_e K_psi[c(u), c(v)]^mult

Every exact quantity here (:func:`density`, :func:`marginal` and both
sides of :func:`product_identity_residual`) is computed by one engine,
:func:`eliminate`: bucket elimination (Dechter, 1999) in greedy
min-degree order, planned in one pass over the edge scopes, whose cost is
exponential only in the induced width of the elimination order, not in
the vertex count; a vertex on no edge is never visited. Contractions
that would span more than :data:`MAX_CONTRACTION` elements are refused
before anything is allocated. The enumeration of all q^n assignments is
kept in the tests as the oracle.

Each step of the elimination is one two-operand ``np.einsum`` with no path
search, so no BLAS runs and the bits do not depend on the BLAS kernel.
Sums run in numpy's order, not exactly rounded: full-precision outputs (a
``productcheck`` residual that is an exact zero by enumeration,
``liftcheck``'s direct densities) can move in the last place when that
order changes. Multiplicities are integer powers of kernel entries, never
parallel edges; numpy's powers above 2 may round by the CPU's vector loops.

:func:`mc_density` samples the same sum from one stream seeded by the
caller: each vertex's class is drawn by inverse CDF over ``pi / sum(pi)``
through a lookup table, and the classes are exactly those
``numpy.random.Generator.choice`` draws from the same generator. It draws
and reduces one leaf of samples at a time and merges the leaves' means and
squared deviations pairwise, so its memory is one leaf and one draw.
"""
from __future__ import annotations

import functools
import heapq
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .graphs import DecoratedMultigraph, product
from .stepgraphon import StepGraphon, kernel_matrix, require_finite

#: largest tensor, in elements, one bucket of :func:`eliminate` may span:
#: q to the power of the vertices the bucket joins
MAX_CONTRACTION = 1 << 26

# elements a size bound charges for each float a command prints: the float
# object, its list slot and its JSON text took 120-170 bytes in full runs
_PRINTED_VALUE = 32

#: numpy's einsum names at most this many axes, so a bucket joins at most
#: this many vertices whatever q is
MAX_BUCKET_VERTICES = 52

#: Monte Carlo samples are drawn and evaluated at most this many class draws
#: at a time: ``MC_CHUNK // n`` samples of an n-vertex graph, rounded down to
#: a power of two of at most :data:`_LEAF`, so each draw holds at most
#: 0.5 MB whatever the graph and the sample count; graphs of more vertices
#: are refused
MC_CHUNK = 1 << 16

# Monte Carlo samples are drawn and reduced in leaves of this many
# consecutive samples, aligned at its multiples in sample order
_LEAF = 1 << 14

#: a label-to-class pinning for marginal evaluation
Anchoring = Mapping[int, int]


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo mean with its standard error; reproducible by seed."""

    mean: float
    stderr: float
    samples: int
    seed: int


def require_affordable(what: str, elements: int, printed: int = 0) -> None:
    """Refuse as ``too-costly`` the job ``what`` when its ``elements`` plus
    :data:`_PRINTED_VALUE` for each of its ``printed`` floats exceed
    :data:`MAX_CONTRACTION`. Callers charge a job before they allocate it."""
    total = elements + printed * _PRINTED_VALUE
    if total > MAX_CONTRACTION:
        raise ValidationError(
            f"{what} would take {total} elements; the limit is {MAX_CONTRACTION}",
            code="too-costly",
        )


def _edge_kernels(F: DecoratedMultigraph, W: StepGraphon) -> dict[tuple[str, int], np.ndarray]:
    """``K_psi ** mult``, the kernel itself at 1, for each ``(psi, mult)`` on ``F``'s edges."""
    kernels = {psi: kernel_matrix(W, psi) for psi in sorted(F.psi_ids)}
    return {(psi, m): kernels[psi] ** m if m > 1 else kernels[psi]
            for psi, m in {e[2:] for e in F.edges}}


def density(F: DecoratedMultigraph, W: StepGraphon, *, ignore_labels: bool = False) -> float:
    """Homomorphism density t(F, W), by bucket elimination in min-degree order.

    A labeled graph is refused with ``code="labeled-graph"`` unless
    ``ignore_labels`` is set, which evaluates it as if unlabeled; a density
    beyond the double range with ``code="overflow"``.
    """
    if F.labels and not ignore_labels:
        raise ValidationError(
            "graph is labeled; drop the labels from the graph file, or pass "
            "ignore_labels=True (density --ignore-labels)",
            code="labeled-graph",
        )
    with np.errstate(over="ignore", invalid="ignore"):
        return require_finite(float(eliminate(F, W)), "the density t(F, W)")


def marginal(F: DecoratedMultigraph, W: StepGraphon, anchoring: Anchoring) -> float:
    """Density with labeled vertices pinned to classes by ``anchoring``.

    Pinned vertices carry no mass factor; only the free vertices are
    integrated. The marginal of an unlabeled graph is its density. A
    marginal beyond the double range is refused with ``code="overflow"``.
    """
    fixed: dict[int, int] = {}
    for v, label in F.labels.items():
        if label not in anchoring:
            raise ValidationError(f"no anchor for label {label}", code="missing-anchor")
        fixed[v] = anchoring[label]
    with np.errstate(over="ignore", invalid="ignore"):
        return require_finite(float(eliminate(F, W, pinned=fixed)), "the marginal")


# -- bucket elimination --------------------------------------------------------


def _plan(scopes: Sequence[tuple[int, ...]], keep: Sequence[int]):
    """The steps of a greedy min-degree elimination, on the factor scopes alone.

    Every vertex in a scope and not in ``keep`` is summed out; a vertex's
    neighbours are the other vertices of the live factors that mention it,
    and the vertex with fewest goes next, the smallest on ties. Factors are
    numbered in creation order: one per scope, then one per step. Each step
    is ``(v, bucket, left)``: the vertex summed out, the ``(number, scope)``
    of the live factors that mention it, and the scope of the factor it
    leaves (the bucket's vertices in first-seen order, without ``v``).
    Returns the steps and the factors live at the end.

    The next vertex comes from a heap of ``(degree, vertex)`` entries; an
    entry whose vertex is gone or whose degree has changed since is
    skipped. Each vertex keeps its live factors in creation order, so a
    step touches only its bucket, and a graph of bounded width plans in
    O(m log m) for m scopes.
    """
    live = dict(enumerate(scopes))
    around: dict[int, set[int]] = defaultdict(set)  # each vertex and its neighbours
    on: dict[int, dict[int, None]] = defaultdict(dict)  # each vertex's live factors
    for i, scope in enumerate(scopes):
        for x in scope:
            around[x].update(scope)
            on[x][i] = None
    free = around.keys() - set(keep)
    heap = [(len(around[x]), x) for x in free]
    heapq.heapify(heap)
    steps = []
    while heap:
        degree, v = heapq.heappop(heap)
        if v not in free or degree != len(around[v]):
            continue
        free.discard(v)
        bucket = [(i, live.pop(i)) for i in on.pop(v)]
        left = tuple(x for x in dict.fromkeys(x for _, s in bucket for x in s) if x != v)
        n = len(scopes) + len(steps)
        for i, s in bucket:
            for x in s:
                if x != v:  # v's own entries left with on.pop(v)
                    del on[x][i]
        for x in left:
            around[x].update(left)
            around[x].discard(v)
            on[x][n] = None
            if x in free:
                heapq.heappush(heap, (len(around[x]), x))
        live[n] = left
        steps.append((v, bucket, left))
    return steps, live


def _planned(F: DecoratedMultigraph, q: int, keep: tuple[int, ...] = (), pinned=()):
    """:func:`_plan` of ``F`` at ``q`` classes, charged before anything is allocated."""
    scopes = [tuple(x for x in (u, v) if x not in pinned) for u, v, _, _ in F.edges]
    steps, live = _plan(scopes, keep)
    width = max([len(keep)] + [len(left) + 1 for _, _, left in steps])
    require_affordable(f"elimination at q={q} over {width} vertices", q**width)
    if width > MAX_BUCKET_VERTICES:
        raise ValidationError(
            f"elimination would join {width} vertices; the limit is {MAX_BUCKET_VERTICES}",
            code="too-costly",
        )
    return steps, live


@functools.lru_cache(maxsize=1024)
def _sublists(axes_a: tuple, axes_b: tuple, out: tuple) -> tuple[tuple[int, ...], ...]:
    """The axes renumbered from 0 for ``np.einsum``, once per naming."""
    n = {x: k for k, x in enumerate(dict.fromkeys((*axes_a, *axes_b)))}
    return tuple(n[x] for x in axes_a), tuple(n[x] for x in axes_b), tuple(n[x] for x in out)


def _contract(a: np.ndarray, axes_a: tuple, b: np.ndarray, axes_b: tuple, out: tuple) -> np.ndarray:
    """``a * b`` on axes named by vertex, summed over those not in ``out``; no BLAS."""
    sub_a, sub_b, sub_out = _sublists(axes_a, axes_b, out)
    return np.einsum(a, sub_a, b, sub_b, sub_out, optimize=False)


def eliminate(
    F: DecoratedMultigraph,
    W: StepGraphon,
    keep: Sequence[int] = (),
    *,
    pinned: Mapping[int, int] | None = None,
) -> np.ndarray:
    """Sum out every vertex not in ``keep``; returns an array over ``keep``.

    Kept vertices index the axes of the result in the order given; vertices
    in ``pinned`` are fixed to the given classes and carry no mass factor.
    With ``keep=()`` this is the full density as a 0-d array. The order is
    greedy min-degree, planned by :func:`_plan` from the edges alone: a
    free vertex on no edge integrates to ``sum(pi) == 1`` and costs nothing.
    Each bucket starts from ``pi[v]``, takes in its factors one at a time
    and sums ``v`` out with the last; each step is one BLAS-free
    :func:`_contract`, so the bits do not depend on the BLAS kernel.

    Raises ``ValidationError``, before planning, with ``code="bad-anchor"``
    for a pinned vertex or class out of range and ``code="bad-keep"`` for a
    kept vertex that is out of range, repeated or pinned; with
    ``code="too-costly"``, before allocating, when a step (or the result)
    would span more than :data:`MAX_CONTRACTION` elements or
    :data:`MAX_BUCKET_VERTICES` vertices; then ``code="overflow"`` for a
    kernel beyond the double range."""
    q = W.q
    keep = tuple(keep)
    pinned = dict(pinned or {})
    for v, cls in pinned.items():
        if not 0 <= v < F.n_vertices:
            raise ValidationError(f"pinned vertex {v} out of range", code="bad-anchor")
        if not (0 <= cls < q):
            raise ValidationError(f"anchor class {cls} out of range for q={q}", code="bad-anchor")
        pinned[v] = int(cls)
    for k, v in enumerate(keep):
        if not 0 <= v < F.n_vertices or v in pinned or v in keep[:k]:
            why = "pinned" if v in pinned else "kept twice" if v in keep[:k] else "out of range"
            raise ValidationError(f"kept vertex {v} is {why}", code="bad-keep")
    steps, live = _planned(F, q, keep, pinned)

    pi = np.asarray(W.masses)
    table = _edge_kernels(F, W)
    arrays = {i: table[psi, mult][pinned.get(u, slice(None)), pinned.get(v, slice(None))]
              for i, (u, v, psi, mult) in enumerate(F.edges)}
    for n, (v, bucket, left) in enumerate(steps, start=len(F.edges)):
        acc, axes = pi, (v,)
        for i, scope in bucket:
            out = left if i == bucket[-1][0] else tuple(dict.fromkeys(axes + scope))
            acc, axes = _contract(acc, axes, arrays.pop(i), scope, out), out
        arrays[n] = acc

    result = np.ones((q,) * len(keep))
    for i, scope in live.items():
        result = _contract(result, keep, arrays[i], scope, keep)
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


def _leaf_stats(x: np.ndarray) -> tuple[int, float, float]:
    """``(count, mean, M2)`` of the samples ``x``, by the steps ``np.mean``
    and ``np.std`` run; ``x`` is left holding the squared deviations."""
    mean = float(np.add.reduce(x) / x.size)
    x -= mean
    np.square(x, out=x)
    return x.size, mean, float(np.add.reduce(x))


def _merge(a: tuple[int, float, float], b: tuple[int, float, float]) -> tuple[int, float, float]:
    """The ``(count, mean, M2)`` of two runs of samples, by the pairwise update
    of Chan, Golub and LeVeque (Amer. Statist., 1983)."""
    na, mean_a, m2_a = a
    nb, mean_b, m2_b = b
    n = na + nb
    delta = mean_b - mean_a
    return n, mean_a + delta * (nb / n), m2_a + m2_b + delta * delta * (na * nb / n)


def mc_density(
    F: DecoratedMultigraph,
    W: StepGraphon,
    samples: int,
    seed: int,
) -> MCEstimate:
    """Unbiased sampling estimate of the density.

    Each sample draws one class per vertex from the mass distribution
    ``pi / sum(pi)``, by inverse CDF, and evaluates the edge product; the
    classes are those ``Generator.choice`` would draw. All samples come from
    one stream, the first child of ``SeedSequence(seed)``, so the estimate
    is a pure function of (inputs, seed).

    Memory is one leaf and one draw, whatever the sample count.
    Each leaf, ``_LEAF`` consecutive samples or the partial last one, is
    filled in draws of a power of two of samples, at most :data:`MC_CHUNK`
    class draws each; the generator fills them in sample order, so the
    samples do not depend on the draw size. Each leaf's count, mean and sum
    of squared deviations ``M2`` come from the operations ``np.mean`` and
    ``np.std`` perform. The full leaves are merged by Chan et al.'s pairwise
    update, neighbours in pairs level by level with an odd one carried up,
    and the partial last leaf is merged last. The result does not depend on
    the draw size, and for at most :data:`_LEAF` samples it has the bytes
    of ``np.mean`` and ``np.std(ddof=1) / sqrt(samples)``.

    Raises ``ValidationError(code="too-costly")``, before drawing, when
    the sample count exceeds :data:`MAX_CONTRACTION`, which bounds the work,
    or one sample would take more than :data:`MC_CHUNK` class draws,
    ``code="bad-seed"`` for a negative seed, which ``SeedSequence`` cannot
    take, ``code="labeled-graph"`` for a labeled graph, and
    ``code="nonpositive-mass"`` for a negative or non-finite mass or a mass
    vector that does not sum to a positive number, ``code="unknown-functional"``
    for an edge whose functional ``W`` lacks, and ``code="overflow"`` for a
    kernel (before any draw), mean or standard error beyond the double range.
    """
    if samples < 1:
        raise ValidationError("need at least one sample", code="bad-samples")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}", code="bad-seed")
    require_affordable("the Monte Carlo sample count", samples)
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
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    # a power of two, so the draws tile each leaf
    rows = 1 << (min(_LEAF, MC_CHUNK // max(1, F.n_vertices)).bit_length() - 1)
    leaves = []  # (count, mean, M2) of each leaf, in sample order
    with np.errstate(over="ignore", invalid="ignore"):
        # before the buffer: a kernel is refused whole, drawn or not, with nothing allocated
        table = _edge_kernels(F, W)
        edges = [(u, v, table[psi, mult].ravel()) for u, v, psi, mult in F.edges]
        buf = np.empty(min(samples, _LEAF))
        for start in range(0, samples, _LEAF):
            leaf = buf[: min(_LEAF, samples - start)]
            for at in range(0, leaf.size, rows):
                out = leaf[at : at + rows]
                cls = sampler.draw(rng, out.size, F.n_vertices)
                out.fill(1.0)
                for u, v, flat in edges:
                    out *= flat[cls[u] * q + cls[v]]
            leaves.append(_leaf_stats(leaf))
    last = [leaves.pop()] if leaves[-1][0] < _LEAF else []
    while len(leaves) > 1:  # merge neighbours in pairs, level by level
        odd = leaves[-1:] if len(leaves) % 2 else []
        leaves = [_merge(a, b) for a, b in zip(leaves[::2], leaves[1::2])] + odd
    count, mean, m2 = functools.reduce(_merge, leaves + last)
    require_finite(mean, "the Monte Carlo mean")
    stderr = math.sqrt(m2 / (count - 1)) / math.sqrt(count) if count > 1 else 0.0
    require_finite(stderr, "the Monte Carlo standard error")
    return MCEstimate(mean, stderr, samples, seed)


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
    value is the absolute difference. A side beyond the double range is
    refused with ``code="overflow"``.
    """
    if F1.label_set != F2.label_set:
        raise ValidationError(
            f"label sets differ: {sorted(F1.label_set)} vs {sorted(F2.label_set)}",
            code="label-mismatch",
        )
    labels = sorted(F1.label_set)
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = require_finite(float(eliminate(product(F1, F2), W)), "the product density")
        T1 = eliminate(F1, W, keep=[F1.vertex_of_label(l) for l in labels])
        T2 = eliminate(F2, W, keep=[F2.vertex_of_label(l) for l in labels])
        weight = np.ones(())
        for _ in labels:
            weight = np.multiply.outer(weight, np.asarray(W.masses))
        terms = (weight * T1 * T2).ravel()
    try:
        rhs = math.fsum(terms)
    except (OverflowError, ValueError):  # a sum beyond the doubles, or inf - inf
        rhs = math.inf
    return abs(lhs - require_finite(rhs, "the pinned sum of marginal products"))
