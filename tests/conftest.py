"""Shared fixtures, random-instance generators and reference oracles."""
from __future__ import annotations

import itertools
import json
import math
from collections import defaultdict
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np
import pytest

import graphonlab as gl
from graphonlab import fileio
from graphonlab.errors import ParseError, ValidationError
from graphonlab.measures import tv_distance

INDICATORS = tuple(gl.TestFunctional(f"e{k}", (k,), (1.0,)) for k in range(4))
PSI_CHOICES = tuple(f.id for f in INDICATORS) + (gl.DEFAULT_FUNCTIONAL_ID,)


def block_arrays(blocks) -> tuple[np.ndarray, np.ndarray]:
    """``(support, weights)`` of a square matrix of measures, by definition."""
    n = len(blocks)
    points = sorted({k for row in blocks for b in row for k in b.support})
    column = {k: s for s, k in enumerate(points)}
    weights = np.zeros((n, n, len(points)))
    for i, row in enumerate(blocks):
        for j, b in enumerate(row):
            weights[i, j, [column[k] for k in b.support]] = b.weights
    return np.array(points, dtype=np.int64), weights


def graphon_from_blocks(masses, blocks, functionals=None) -> gl.StepGraphon:
    """Graphon whose block (i, j) is the measure ``blocks[i][j]``."""
    return gl.StepGraphon(masses, *block_arrays(blocks), functionals)


def parse_block_records(records, q: int) -> tuple[np.ndarray, np.ndarray]:
    """``(support, weights)`` of graphon block records, parsed one record at a time.

    The oracle for ``fileio.parse_graphon``: every record becomes a
    :class:`FiniteMeasure` in document order, so the first bad record
    raises first; a support point beyond 64 bits is reported after all.
    """
    cells = {}
    for n, rec in enumerate(records):
        path = f"graphon.blocks[{n}]"
        i = fileio._get(rec, "i", int, path)
        j = fileio._get(rec, "j", int, path)
        if not (0 <= i < q and 0 <= j < q):
            raise ParseError(f"{path}: class index out of range for q={q}")
        key = (min(i, j), max(i, j))
        if key in cells:
            raise ParseError(f"{path}: duplicate block for classes {key}")
        support = fileio._number_list(rec, "support", path, integer=True)
        weights = fileio._number_list(rec, "weights", path)
        cells[key] = fileio._wrap_validation(
            lambda: gl.FiniteMeasure(tuple(support), tuple(weights)), path
        )
    top = max((b.support[-1] for b in cells.values() if b.support), default=0)
    if top > np.iinfo(np.int64).max:
        raise ValidationError(
            f"graphon.blocks: measure: support point {top} does not fit in 64 bits",
            code="bad-measure",
        )
    zero = gl.FiniteMeasure((), ())
    return block_arrays(
        [[cells.get((min(i, j), max(i, j)), zero) for j in range(q)] for i in range(q)]
    )


def scalar_graphon(masses, matrix) -> gl.StepGraphon:
    """Graphon with real-valued blocks embedded as point masses at 1."""
    unit = gl.unit_functional()
    weights = np.array(matrix, dtype=np.float64)[:, :, None]
    support = [1] if weights.any() else []
    return gl.StepGraphon(masses, support, weights[:, :, : len(support)], {unit.id: unit})


@pytest.fixture
def w2() -> gl.StepGraphon:
    """The running two-class example: masses (.5,.5), kernel [[1,2],[2,3]]."""
    return scalar_graphon((0.5, 0.5), [[1.0, 2.0], [2.0, 3.0]])


def rand_masses(rng, q: int) -> tuple[float, ...]:
    u = rng.uniform(0.2, 1.0, q)
    u = u / u.sum()
    return tuple(float(x) for x in u)


def rand_measure(rng, scale: float = 0.6, max_point: int = 3) -> gl.FiniteMeasure:
    n_pts = int(rng.integers(1, max_point + 2))
    pts = sorted(int(p) for p in rng.choice(max_point + 1, size=n_pts, replace=False))
    ws = []
    for _ in pts:
        w = float(rng.uniform(-scale, scale))
        if abs(w) < 1e-3:
            w = 1e-3 if w >= 0 else -1e-3
        ws.append(w)
    return gl.FiniteMeasure(tuple(pts), tuple(ws))


def rand_graphon(rng, q: int, scale: float = 0.6) -> gl.StepGraphon:
    cells = {}
    for i in range(q):
        for j in range(i, q):
            cells[(i, j)] = rand_measure(rng, scale)
    blocks = tuple(
        tuple(cells[(min(i, j), max(i, j))] for j in range(q)) for i in range(q)
    )
    unit = gl.unit_functional()
    fns = {f.id: f for f in INDICATORS}
    fns[unit.id] = unit
    return graphon_from_blocks(rand_masses(rng, q), blocks, fns)


def rand_twin_free_graphon(rng, q: int, scale: float = 0.6) -> gl.StepGraphon:
    while True:
        W = rand_graphon(rng, q, scale)
        if gl.twin_partition(W).n_classes == q:
            return W


def duplicate_class(W: gl.StepGraphon, rng, target: int | None = None) -> gl.StepGraphon:
    """Split one class into two twins with identical block rows."""
    q = W.q
    i = int(rng.integers(0, q)) if target is None else target
    frac = float(rng.uniform(0.3, 0.7))
    masses = list(W.masses)
    masses.append(masses[i] * (1.0 - frac))
    masses[i] = masses[i] * frac
    rows = list(range(q)) + [i]  # the new last class copies row and column i
    return gl.StepGraphon(masses, W.support, W.weights[rows][:, rows], dict(W.functionals))


def rand_graph(
    rng,
    max_vertices: int = 5,
    n_labels: int = 0,
    psis: tuple[str, ...] = PSI_CHOICES,
    max_mult: int = 2,
) -> gl.DecoratedMultigraph:
    n = int(rng.integers(max(2, n_labels, 1), max_vertices + 1))
    n_edges = int(rng.integers(1, 2 * n))
    edges = []
    for _ in range(n_edges):
        u, v = rng.choice(n, size=2, replace=False)
        psi = str(rng.choice(psis))
        mult = int(rng.integers(1, max_mult + 1))
        edges.append((int(u), int(v), psi, mult))
    verts = [int(v) for v in rng.choice(n, size=n_labels, replace=False)]
    labels = {v: l + 1 for l, v in enumerate(verts)}
    return gl.DecoratedMultigraph(n, tuple(edges), labels)


def graph_suite(psi: str = gl.DEFAULT_FUNCTIONAL_ID) -> list[gl.DecoratedMultigraph]:
    """The standard small test graphs: edge, 2-path, triangle, 3-star, C4."""
    return [
        gl.edge_graph(psi),
        gl.path_graph(2, psi),
        gl.cycle_graph(3, psi),
        gl.star_graph(3, psi),
        gl.cycle_graph(4, psi),
    ]


def rand_partition(rng, q: int) -> gl.Partition:
    n_cls = int(rng.integers(1, q + 1))
    perm = rng.permutation(q)
    class_of = [0] * q
    for c in range(n_cls):
        class_of[int(perm[c])] = c
    for i in range(n_cls, q):
        class_of[int(perm[i])] = int(rng.integers(0, n_cls))
    return gl.Partition(tuple(class_of))


def rand_distribution(rng, n_max: int = 5) -> tuple[float, ...]:
    n = int(rng.integers(2, n_max + 2))
    u = rng.uniform(0.05, 1.0, n)
    u = u / u.sum()
    return tuple(float(x) for x in u)


def graphons_close(W1: gl.StepGraphon, W2: gl.StepGraphon, tol: float = 1e-10) -> bool:
    if W1.q != W2.q:
        return False
    if any(abs(a - b) > 1e-12 for a, b in zip(W1.masses, W2.masses)):
        return False
    return all(
        tv_distance(W1.blocks[i][j], W2.blocks[i][j]) <= tol
        for i in range(W1.q)
        for j in range(W1.q)
    )


def graphons_close_upto_permutation(
    W1: gl.StepGraphon, W2: gl.StepGraphon, tol: float = 1e-10
) -> bool:
    import itertools

    if W1.q != W2.q:
        return False
    for perm in itertools.permutations(range(W1.q)):
        if any(abs(W1.masses[i] - W2.masses[perm[i]]) > 1e-12 for i in range(W1.q)):
            continue
        if all(
            tv_distance(W1.blocks[i][j], W2.blocks[perm[i]][perm[j]]) <= tol
            for i in range(W1.q)
            for j in range(W1.q)
        ):
            return True
    return False


# -- oracles ----------------------------------------------------------------------


def fraction_quotient(W: gl.StepGraphon, P: gl.Partition):
    """Exact conditional expectation of ``W`` along ``P`` in rationals.

    Returns the merged masses and, per merged block ``(a, b)``, a map from
    support point to ``(value, sum of |terms|)``, where the terms are
    ``m_i m_j w_ij(k) / (M_a M_b)`` over the members i of a and j of b.
    """
    groups = [[i for i, c in enumerate(P.class_of) if c == a] for a in range(P.n_classes)]
    masses = [sum(Fraction(W.masses[i]) for i in g) for g in groups]
    blocks = {}
    for a, ga in enumerate(groups):
        for b, gb in enumerate(groups):
            points: dict[int, tuple[Fraction, Fraction]] = {}
            for i in ga:
                for j in gb:
                    share = Fraction(W.masses[i]) * Fraction(W.masses[j]) / (masses[a] * masses[b])
                    mu = W.blocks[i][j]
                    for k, w in zip(mu.support, mu.weights):
                        term = share * Fraction(w)
                        value, scale = points.get(k, (Fraction(0), Fraction(0)))
                        points[k] = (value + term, scale + abs(term))
            blocks[a, b] = points
    return masses, blocks


def row_distance(W: gl.StepGraphon, i: int, j: int) -> float:
    """Largest tv distance between corresponding blocks of two class rows."""
    return max(tv_distance(W.blocks[i][c], W.blocks[j][c]) for c in range(W.q))


def pairwise_twin_partition(W: gl.StepGraphon, tol: float) -> tuple[int, ...]:
    """Twin classes from block-by-block row distances, numbered by smallest member."""
    label = list(range(W.q))
    for i in range(W.q):
        for j in range(i + 1, W.q):
            if row_distance(W, i, j) <= tol:
                old, new = max(label[i], label[j]), min(label[i], label[j])
                label = [new if x == old else x for x in label]
    number: dict[int, int] = {}
    return tuple(number.setdefault(x, len(number)) for x in label)


def all_pairs_twin_partition(W: gl.StepGraphon, tol: float = gl.transforms.TWIN_TOL) -> gl.Partition:
    """``twin_partition`` by comparing every pair of rows, in chunks of rows.

    Row distances are computed with the same operations as the library's
    exact test (difference, absolute value, sum over points, max over
    blocks), so the two agree bit for bit on every pair.
    """
    if not tol >= 0:
        raise ValidationError("twin tolerance must be >= 0", code="bad-tolerance")
    q = W.q
    w = W.weights
    parent = list(range(q))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    step = max(1, gl.transforms.TWIN_CHUNK // max(1, w.size))
    for i0 in range(0, q, step):
        i1 = min(q, i0 + step)
        with np.errstate(over="ignore"):
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
    return gl.Partition(tuple(class_of))


def rounded_feature_rows(fm: gl.transforms.FeatureMap) -> list[tuple[float, ...]]:
    """The feature rows rounded to ``FEATURE_DECIMALS``, with -0.0 read as 0.0."""
    rounded = np.round(fm.features, gl.transforms.FEATURE_DECIMALS) + 0.0
    return [tuple(row) for row in rounded.tolist()]


def pairwise_regularity(W: gl.StepGraphon, anchors, functional_ids) -> bool:
    """Regularity pair by pair: no two non-twin classes share a rounded feature row."""
    rows = rounded_feature_rows(gl.transforms.feature_map(W, anchors, functional_ids))
    twins = gl.twin_partition(W).class_of
    return not any(
        twins[i] != twins[j] and rows[i] == rows[j]
        for i in range(W.q)
        for j in range(i + 1, W.q)
    )


#: class assignments are enumerated in chunks of at most this many rows
_CHUNK = 1 << 18


def enumerate_density(
    F: gl.DecoratedMultigraph,
    W: gl.StepGraphon,
    fixed: Mapping[int, int],
) -> float:
    """Sum of pi-weighted edge products over assignments of the non-fixed vertices.

    The definitional route: all q^n assignments, vectorized in chunks.
    Fixed vertices contribute no mass factor. Chunk totals are combined
    with exact summation, so the mixed-sign sums arising from signed
    measures do not lose cancellation between chunks.
    """
    q = W.q
    pi = np.asarray(W.masses)
    kernels = {psi: gl.kernel_matrix(W, psi) for psi in sorted(F.psi_ids)}
    free = [v for v in range(F.n_vertices) if v not in fixed]
    n_free = len(free)

    total_assignments = q**n_free
    chunk_sums: list[float] = []
    col = {v: idx for idx, v in enumerate(free)}

    for start in range(0, total_assignments, _CHUNK):
        stop = min(start + _CHUNK, total_assignments)
        codes = np.arange(start, stop, dtype=np.int64)
        assign = np.empty((stop - start, n_free), dtype=np.int64)
        for idx in range(n_free):
            assign[:, idx] = (codes // (q**idx)) % q
        if n_free:
            vals = np.prod(pi[assign], axis=1)
        else:
            vals = np.ones(1)
        for u, v, psi, mult in F.edges:
            cu = assign[:, col[u]] if u in col else np.full(stop - start, fixed[u])
            cv = assign[:, col[v]] if v in col else np.full(stop - start, fixed[v])
            entries = kernels[psi][cu, cv]
            vals = vals * (entries if mult == 1 else entries ** mult)
        chunk_sums.append(float(np.sum(vals)))
    return math.fsum(chunk_sums)


def fraction_density(
    F: gl.DecoratedMultigraph, W: gl.StepGraphon, fixed: Mapping[int, int] | None = None
) -> Fraction:
    """Exact density (or marginal, with ``fixed`` vertices pinned) in rationals.

    Kernel entries are the exact pairings of the functionals with the
    blocks, and every assignment is summed without rounding, so this is
    the true value of the floats in ``W``. Meant for q <= 3, n <= 5.
    """
    fixed = dict(fixed or {})
    masses = [Fraction(m) for m in W.masses]
    kernels = {}
    for psi_id in F.psi_ids:
        psi = W.functional(psi_id)
        kernels[psi_id] = [
            [sum(Fraction(psi(k)) * Fraction(w) for k, w in zip(b.support, b.weights)) for b in row]
            for row in W.blocks
        ]
    free = [v for v in range(F.n_vertices) if v not in fixed]
    total = Fraction(0)
    for classes in itertools.product(range(W.q), repeat=len(free)):
        c = dict(fixed)
        c.update(zip(free, classes))
        term = Fraction(1)
        for v in free:
            term *= masses[c[v]]
        for u, v, psi_id, mult in F.edges:
            term *= kernels[psi_id][c[u]][c[v]] ** mult
        total += term
    return total


def full_vector_mc(
    F: gl.DecoratedMultigraph, W: gl.StepGraphon, samples: int, seed: int
) -> tuple[float, float]:
    """``mc_density``'s (mean, stderr) from every sample held in one vector.

    The samples are those ``mc_density`` draws: the classes come from
    ``Generator.choice`` on the first child of ``SeedSequence(seed)``. The
    mean is ``np.mean`` of the vector and the standard error
    ``np.std(ddof=1) / sqrt(samples)``, step for step inside the vector.
    """
    masses = np.asarray(W.masses, dtype=float)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    cls = rng.choice(W.q, size=(samples, F.n_vertices), p=masses / masses.sum()).T
    vals = np.ones(samples)
    for u, v, psi, mult in F.edges:
        entries = gl.kernel_matrix(W, psi)[cls[u], cls[v]]
        vals *= entries if mult == 1 else entries**mult
    mean = np.mean(vals)
    stderr = 0.0
    if samples > 1:
        vals -= mean
        np.square(vals, out=vals)
        stderr = math.sqrt(np.add.reduce(vals) / (samples - 1)) / math.sqrt(samples)
    return float(mean), stderr


def min_degree_order(scopes: Sequence[tuple[int, ...]], free: Sequence[int]) -> list[int]:
    """Greedy min-degree elimination order on the factor-interaction graph.

    Neighbour sets are built from the scopes and updated by fill-in; free
    vertices in no scope are left out.
    """
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


def schedule(scopes: Sequence[tuple[int, ...]], order: Sequence[int]):
    """The buckets of an elimination in a given order, simulated on the scopes.

    Returns the steps ``(v, bucket, left)`` and the factors live at the end,
    numbered as ``density._plan`` numbers them.
    """
    live = dict(enumerate(scopes))
    steps = []
    for v in order:
        bucket = [(i, s) for i, s in live.items() if v in s]
        if not bucket:
            continue
        for i, _ in bucket:
            del live[i]
        left = tuple(x for x in dict.fromkeys(x for _, s in bucket for x in s) if x != v)
        live[len(scopes) + len(steps)] = left
        steps.append((v, bucket, left))
    return steps, live


def two_pass_plan(scopes: Sequence[tuple[int, ...]], keep: Sequence[int]):
    """The oracle for ``density._plan``: order on neighbour sets, then schedule."""
    free = {x for scope in scopes for x in scope}.difference(keep)
    return schedule(scopes, min_degree_order(scopes, sorted(free)))


def vertex_by_vertex_product(F1: gl.DecoratedMultigraph, F2: gl.DecoratedMultigraph):
    """The oracle for ``graphs.product``: every vertex of F2 placed in turn."""
    label_to_v1 = {l: v for v, l in F1.labels.items()}
    mapping: dict[int, int] = {}
    next_vertex = F1.n_vertices
    for v in range(F2.n_vertices):
        l = F2.labels.get(v)
        if l is not None and l in label_to_v1:
            mapping[v] = label_to_v1[l]
        else:
            mapping[v] = next_vertex
            next_vertex += 1
    edges = list(F1.edges)
    edges.extend((mapping[u], mapping[v], psi, m) for u, v, psi, m in F2.edges)
    labels = dict(F1.labels)
    for v, l in F2.labels.items():
        labels[mapping[v]] = l
    return gl.DecoratedMultigraph(next_vertex, tuple(edges), labels)


def add_path(
    F: gl.DecoratedMultigraph, u: int, v: int, k: int, psi_id: str
) -> gl.DecoratedMultigraph:
    """F with a fresh path of ``k`` psi-edges from ``u`` to ``v``: the graph
    F^k that ``lift_check``'s direct densities stand for.

    ``k - 1`` new unlabeled vertices are appended; ``k == 1`` adds a single
    parallel edge.
    """
    if u == v:
        raise ValidationError("path endpoints must differ", code="bad-graph")
    if not (0 <= u < F.n_vertices and 0 <= v < F.n_vertices):
        raise ValidationError("path endpoint out of range", code="bad-graph")
    if k < 1:
        raise ValidationError("path length must be >= 1", code="bad-graph")
    chain = [u] + list(range(F.n_vertices, F.n_vertices + k - 1)) + [v]
    edges = list(F.edges)
    edges.extend((chain[i], chain[i + 1], psi_id, 1) for i in range(k))
    return gl.DecoratedMultigraph(F.n_vertices + k - 1, tuple(edges), dict(F.labels))


def sorted_eigendecomp(W: gl.StepGraphon, psi_id: str) -> tuple[list[float], np.ndarray]:
    """The oracle for ``eigendecomp``: eigh's pairs ordered by Python's ``sorted``
    on ``(-|lambda|, -lambda)``, then each column signed one at a time so that
    its largest entry in magnitude (the first of equal ones) is positive."""
    s = np.sqrt(np.asarray(W.masses))
    vals, vecs = np.linalg.eigh(s[:, None] * gl.kernel_matrix(W, psi_id) * s[None, :])
    order = sorted(range(len(vals)), key=lambda n: (-abs(vals[n]), -vals[n]))
    vals = vals[order]
    vecs = vecs[:, order]
    for n in range(vecs.shape[1]):
        col = vecs[:, n]
        lead = int(np.argmax(np.abs(col)))
        if col[lead] < 0:
            vecs[:, n] = -col
    return vals.tolist(), vecs


def json_load(path, parse):
    """The oracle for ``fileio.load_*``: ``parse`` of the file as ``json.load`` reads it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from None
    except ValueError as e:
        raise ParseError(f"{path} is not valid JSON: {e}") from None
    return parse(doc)
