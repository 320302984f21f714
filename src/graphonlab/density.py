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
``numpy.random.Generator.choice`` draws from the same generator.
"""
from __future__ import annotations

import functools
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


def _kernels(F: DecoratedMultigraph, W: StepGraphon) -> dict[str, np.ndarray]:
    return {psi: kernel_matrix(W, psi) for psi in sorted(F.psi_ids)}


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
    """
    live = dict(enumerate(scopes))
    around: dict[int, set[int]] = defaultdict(set)  # each vertex and its neighbours
    for scope in scopes:
        for x in scope:
            around[x].update(scope)
    free = around.keys() - set(keep)
    steps = []
    while free:
        v = min(free, key=lambda x: (len(around[x]), x))
        free.discard(v)
        bucket = [(i, s) for i, s in live.items() if v in s]
        for i, _ in bucket:
            del live[i]
        left = tuple(x for x in dict.fromkeys(x for _, s in bucket for x in s) if x != v)
        for x in left:
            around[x].update(left)
            around[x].discard(v)
        live[len(scopes) + len(steps)] = left
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

    Raises ``ValidationError(code="too-costly")``, before allocating, when
    a step (or the result) would span more than :data:`MAX_CONTRACTION`
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
    steps, live = _planned(F, q, keep, pinned)

    pi = np.asarray(W.masses)
    kernels = _kernels(F, W)
    arrays = {}
    for i, (u, v, psi, mult) in enumerate(F.edges):
        arr = kernels[psi] if mult == 1 else kernels[psi] ** mult
        arrays[i] = arr[pinned.get(u, slice(None)), pinned.get(v, slice(None))]
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
    is a pure function of (inputs, seed). The stream is drawn in chunks of
    about :data:`MC_CHUNK` class draws; the generator fills them in sample
    order, so the samples do not depend on the chunk size.

    Memory is one float64 per sample plus one chunk: the variance is
    computed inside the sample vector with the operations ``np.std``
    performs (subtract the mean, square, ``np.add.reduce``), so the
    standard error has the same bytes without a second vector.

    Raises ``ValidationError(code="too-costly")``, before allocating, when
    the sample vector would hold more than :data:`MAX_CONTRACTION` values
    or one sample more than :data:`MC_CHUNK` class draws,
    ``code="bad-seed"`` for a negative seed, which ``SeedSequence`` cannot
    take, ``code="labeled-graph"`` for a labeled graph, and
    ``code="nonpositive-mass"`` for a negative or non-finite mass or a mass
    vector that does not sum to a positive number, and ``code="overflow"``
    for a mean or standard error beyond the double range.
    """
    if samples < 1:
        raise ValidationError("need at least one sample", code="bad-samples")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}", code="bad-seed")
    require_affordable("the Monte Carlo sample vector", samples)
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
    rows_per_chunk = MC_CHUNK // max(1, F.n_vertices)
    vals = np.empty(samples)
    with np.errstate(over="ignore", invalid="ignore"):
        flat = {psi: K.ravel() for psi, K in _kernels(F, W).items()}
        for start in range(0, samples, rows_per_chunk):
            out = vals[start : start + rows_per_chunk]
            cls = sampler.draw(rng, out.size, F.n_vertices)
            out.fill(1.0)
            for u, v, psi, mult in F.edges:
                entries = flat[psi][cls[u] * q + cls[v]]
                out *= entries if mult == 1 else entries**mult
        mean = require_finite(np.mean(vals), "the Monte Carlo mean")
        stderr = 0.0
        if samples > 1:  # np.std(vals, ddof=1), step for step, without a second vector
            vals -= mean
            np.square(vals, out=vals)
            stderr = math.sqrt(np.add.reduce(vals) / (samples - 1)) / math.sqrt(samples)
    require_finite(stderr, "the Monte Carlo standard error")
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
