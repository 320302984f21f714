"""Decorated partially labeled multigraphs and their algebra.

Vertices are 0-based integers. Edges carry a functional id (the
decoration) and a multiplicity; parallel edges with the same decoration
are always stored merged. Labels are positive integers attached
injectively to a subset of the vertices; labeled vertices are the ones
that get pinned during marginal evaluation and that merge under the graph
product.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import Counter
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
            if merged[key] > 2**53:  # a power's exponent is a double, exact up to here
                raise ValidationError(f"edge {key} has multiplicity above 2**53", code="bad-graph")
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

    @property
    def degrees(self) -> Counter[int]:
        """Degree of every vertex counting multiplicities, 0 off the edges; one pass over them."""
        table = Counter()
        for u, v, _, m in self.edges:
            table[u] += m
            table[v] += m
        return table

    @property
    def max_degree(self) -> int:
        return max(self.degrees.values(), default=0)


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
    decoration joins the same merged pair. F1 keeps its numbering; an
    unmerged vertex v of F2 becomes ``F1.n_vertices + v`` less the number
    of merged vertices below v. Only the labeled vertices and the edge
    ends are renumbered, so a declared vertex count costs no memory.
    """
    label_to_v1 = {l: v for v, l in F1.labels.items()}
    merged = {v: label_to_v1[l] for v, l in F2.labels.items() if l in label_to_v1}
    below = sorted(merged)

    def place(v: int) -> int:
        if v in merged:
            return merged[v]
        return F1.n_vertices + v - bisect_left(below, v)

    edges = list(F1.edges)
    edges.extend((place(u), place(v), psi, m) for u, v, psi, m in F2.edges)
    labels = dict(F1.labels)
    for v, l in F2.labels.items():
        labels[place(v)] = l
    return DecoratedMultigraph(F1.n_vertices + F2.n_vertices - len(merged), tuple(edges), labels)


def remove_one_edge(F: DecoratedMultigraph, u: int, v: int, psi_id: str) -> DecoratedMultigraph:
    """Decrement the multiplicity of one (u, v, psi) bond, dropping it at zero."""
    key = (min(u, v), max(u, v), psi_id)
    mult = {rec[:3]: rec[3] for rec in F.edges}  # one record per (u, v, psi)
    if key not in mult:
        raise ValidationError(
            f"no {psi_id}-decorated edge between {u} and {v}", code="edge-absent"
        )
    mult[key] -= 1
    edges = tuple((*k, m) for k, m in mult.items() if m)
    return DecoratedMultigraph(F.n_vertices, edges, dict(F.labels))

