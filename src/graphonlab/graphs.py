"""Decorated partially labeled multigraphs and their algebra.

Vertices are 0-based integers. Edges carry a functional id (the
decoration) and a multiplicity; parallel edges with the same decoration
are always stored merged. Labels are positive integers attached
injectively to a subset of the vertices; labeled vertices are the ones
that get pinned during marginal evaluation and that merge under the graph
product.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ValidationError

Edge = tuple[int, int, str, int]  # (u, v, psi_id, multiplicity), u < v


@dataclass
class DecoratedMultigraph:
    """A multigraph with functional-decorated edges and a partial labeling.

    The stored edge list is always in normal form: endpoints ordered
    ``u < v``, records sorted by ``(u, v, psi_id)``, and same-decoration
    parallel edges merged into a single record with summed multiplicity.
    """

    n_vertices: int
    edges: tuple[Edge, ...] = ()
    labels: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.n_vertices < 0:
            raise ValidationError("vertex count must be nonnegative", code="bad-graph")
        merged: dict[tuple[int, int, str], int] = {}
        for rec in self.edges:
            u, v, psi, mult = rec
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}", code="bad-graph")
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise ValidationError(f"edge {rec!r} out of range", code="bad-graph")
            if mult < 1:
                raise ValidationError("edge multiplicity must be >= 1", code="bad-graph")
            key = (min(u, v), max(u, v), str(psi))
            merged[key] = merged.get(key, 0) + int(mult)
        self.edges = tuple(
            (u, v, psi, m) for (u, v, psi), m in sorted(merged.items())
        )
        self.labels = {int(v): int(l) for v, l in dict(self.labels).items()}
        for v, l in self.labels.items():
            if not (0 <= v < self.n_vertices):
                raise ValidationError(f"label on unknown vertex {v}", code="bad-graph")
            if l < 1:
                raise ValidationError("labels must be positive integers", code="bad-graph")
        if len(set(self.labels.values())) != len(self.labels):
            raise ValidationError("labels must be injective", code="bad-graph")

    # -- basic views ---------------------------------------------------------

    @property
    def label_set(self) -> frozenset[int]:
        return frozenset(self.labels.values())

    @property
    def psi_ids(self) -> frozenset[str]:
        return frozenset(e[2] for e in self.edges)

    def vertex_of_label(self, label: int) -> int:
        for v, l in self.labels.items():
            if l == label:
                return v
        raise ValidationError(f"label {label} not present", code="label-absent")

    def degree(self, v: int) -> int:
        """Degree counting multiplicities."""
        return sum(m for a, b, _, m in self.edges if v in (a, b))

    @property
    def max_degree(self) -> int:
        return max((self.degree(v) for v in range(self.n_vertices)), default=0)


# -- constructors -------------------------------------------------------------


def edge_graph(psi_id: str = "unit", multiplicity: int = 1) -> DecoratedMultigraph:
    return DecoratedMultigraph(2, ((0, 1, psi_id, multiplicity),))


def path_graph(k: int, psi_id: str = "unit") -> DecoratedMultigraph:
    """Path with ``k >= 1`` edges on ``k + 1`` vertices."""
    if k < 1:
        raise ValidationError("path length must be >= 1", code="bad-graph")
    return DecoratedMultigraph(k + 1, tuple((i, i + 1, psi_id, 1) for i in range(k)))


def cycle_graph(n: int, psi_id: str = "unit") -> DecoratedMultigraph:
    if n < 3:
        raise ValidationError("cycle needs at least 3 vertices", code="bad-graph")
    edges = tuple((i, (i + 1) % n, psi_id, 1) for i in range(n))
    return DecoratedMultigraph(n, edges)


def star_graph(leaves: int, psi_id: str = "unit") -> DecoratedMultigraph:
    """Star with ``leaves >= 1`` leaves; vertex 0 is the center."""
    if leaves < 1:
        raise ValidationError("star needs at least one leaf", code="bad-graph")
    return DecoratedMultigraph(leaves + 1, tuple((0, i, psi_id, 1) for i in range(1, leaves + 1)))


# -- labeling helpers ----------------------------------------------------------


def relabel(F: DecoratedMultigraph, vertex: int, label: int) -> DecoratedMultigraph:
    """Attach ``label`` to ``vertex`` (must keep the labeling injective)."""
    labels = dict(F.labels)
    labels[vertex] = label
    return DecoratedMultigraph(F.n_vertices, F.edges, labels)


# -- algebra ------------------------------------------------------------------


def product(F1: DecoratedMultigraph, F2: DecoratedMultigraph) -> DecoratedMultigraph:
    """Disjoint union with identically labeled vertices merged.

    Labels and decorations are kept; multiplicities add when the same
    decoration joins the same merged pair.
    """
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
    return DecoratedMultigraph(next_vertex, tuple(edges), labels)


def add_path(
    F: DecoratedMultigraph, u: int, v: int, k: int, psi_id: str
) -> DecoratedMultigraph:
    """Insert a fresh path of ``k`` psi-decorated edges between ``u`` and ``v``.

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
    return DecoratedMultigraph(F.n_vertices + k - 1, tuple(edges), dict(F.labels))


def remove_one_edge(F: DecoratedMultigraph, u: int, v: int, psi_id: str) -> DecoratedMultigraph:
    """Decrement the multiplicity of one (u, v, psi) bond, dropping it at zero."""
    key = (min(u, v), max(u, v), psi_id)
    edges = []
    found = False
    for rec in F.edges:
        if rec[:3] == key and not found:
            found = True
            if rec[3] > 1:
                edges.append((rec[0], rec[1], rec[2], rec[3] - 1))
        else:
            edges.append(rec)
    if not found:
        raise ValidationError(
            f"no {psi_id}-decorated edge between {u} and {v}", code="edge-absent"
        )
    return DecoratedMultigraph(F.n_vertices, tuple(edges), dict(F.labels))

