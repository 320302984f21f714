"""Multigraph algebra: normal form, products, labels, paths, degrees."""
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphonlab as gl
from graphonlab.errors import ValidationError

from conftest import add_path, rand_graph, vertex_by_vertex_product


def labeled_edge(label: int = 1, psi: str = "unit") -> gl.DecoratedMultigraph:
    """A psi-edge from a vertex carrying ``label`` to an unlabeled vertex."""
    return gl.DecoratedMultigraph(2, ((0, 1, psi, 1),), {0: label})


def test_normal_form_sorts_and_merges():
    F = gl.DecoratedMultigraph(3, ((2, 0, "b", 1), (0, 2, "b", 2), (1, 0, "a", 1)))
    assert F.edges == ((0, 1, "a", 1), (0, 2, "b", 3))


def test_validation():
    with pytest.raises(ValidationError):
        gl.DecoratedMultigraph(2, ((0, 0, "a", 1),))  # self-loop
    with pytest.raises(ValidationError):
        gl.DecoratedMultigraph(2, ((0, 1, "a", 0),))  # zero multiplicity
    with pytest.raises(ValidationError):
        gl.DecoratedMultigraph(2, (), {0: 1, 1: 1})  # non-injective labels
    with pytest.raises(ValidationError):
        gl.DecoratedMultigraph(1, ((0, 1, "a", 1),))  # vertex out of range


@pytest.mark.parametrize(
    "edges",
    [((0, 1, "a", 2**53 + 1),), ((0, 1, "a", 2**52 + 1), (1, 0, "a", 2**52)), ((0, 1, "a", 10**400),)],
    ids=["one-edge", "merged", "beyond-the-double-range"],
)
def test_multiplicity_above_2_53_is_refused(edges):
    # the exponent of a kernel power is converted to a double, which rounds above 2**53
    assert gl.DecoratedMultigraph(2, ((0, 1, "a", 2**53),)).edges == ((0, 1, "a", 2**53),)
    with pytest.raises(ValidationError) as e:
        gl.DecoratedMultigraph(2, edges)
    assert e.value.code == "bad-graph"
    assert str(e.value) == "edge (0, 1, 'a') has multiplicity above 2**53"


def test_product_merges_on_labels_to_a_two_star():
    F = labeled_edge()
    G = gl.product(F, F)
    assert G.n_vertices == 3
    assert G.labels == {0: 1}
    assert G.edges == ((0, 1, "unit", 1), (0, 2, "unit", 1))
    assert G.degrees[0] == 2


def test_product_with_empty_graph_is_identity():
    F = rand_graph(np.random.default_rng(0), n_labels=1)
    empty = gl.DecoratedMultigraph(0)
    assert gl.product(F, empty) == F
    assert gl.product(empty, F) == F


def placement(A: gl.DecoratedMultigraph, B: gl.DecoratedMultigraph) -> dict[int, int]:
    """Where ``product(A, B)`` puts each vertex of B, by definition.

    A keeps its numbering; a vertex of B whose label A also carries goes
    to A's vertex with that label, and B's other vertices follow in order.
    """
    fresh = iter(range(A.n_vertices, A.n_vertices + B.n_vertices))
    return {
        w: A.vertex_of_label(B.labels[w]) if B.labels.get(w) in A.label_set else next(fresh)
        for w in range(B.n_vertices)
    }


def test_product_commutative_up_to_isomorphism():
    rng = np.random.default_rng(1)
    for _ in range(50):
        F1 = rand_graph(rng, n_labels=int(rng.integers(0, 3)))
        F2 = rand_graph(rng, n_labels=int(rng.integers(0, 3)))
        G12, G21 = gl.product(F1, F2), gl.product(F2, F1)
        # the natural map: each factor's vertex goes from its place in G12 to its place in G21
        sigma = placement(F2, F1)  # F1 sits at 0..n1-1 in G12
        sigma.update({at: w for w, at in placement(F1, F2).items()})  # F2 sits at 0..n2-1 in G21
        assert sorted(sigma) == list(range(G12.n_vertices))
        assert sorted(sigma.values()) == list(range(G21.n_vertices))
        mapped = gl.DecoratedMultigraph(
            G12.n_vertices,
            tuple((sigma[u], sigma[v], psi, m) for u, v, psi, m in G12.edges),
            {sigma[v]: l for v, l in G12.labels.items()},
        )
        assert mapped == G21


def test_product_associative_up_to_isomorphism():
    # the vertex numberings agree too, so the two sides are equal
    rng = np.random.default_rng(2)
    for _ in range(100):
        F1, F2, F3 = (
            rand_graph(rng, max_vertices=4, n_labels=int(rng.integers(0, 3))) for _ in range(3)
        )
        assert gl.product(gl.product(F1, F2), F3) == gl.product(F1, gl.product(F2, F3))


@st.composite
def labeled_graphs(draw):
    """Up to 8 vertices, some of them on no edge, with labels drawn from 1..4."""
    n = draw(st.integers(0, 8))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, max_size=8)) if n > 1 else []
    vertices = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=4)) if n else []
    labels = draw(st.permutations(range(1, 5)))
    return gl.DecoratedMultigraph(
        n, tuple((u, v, "unit", 1) for u, v in edges), dict(zip(vertices, labels))
    )


@settings(max_examples=300, deadline=None)
@given(labeled_graphs(), labeled_graphs())
def test_product_matches_the_vertex_by_vertex_oracle(F1, F2):
    assert gl.product(F1, F2) == vertex_by_vertex_product(F1, F2)


def test_product_declared_vertex_count_costs_no_memory():
    F1 = gl.DecoratedMultigraph(2, ((0, 1, "unit", 1),), {0: 1})
    F2 = gl.DecoratedMultigraph(200_000, ((0, 199_999, "unit", 1),), {199_999: 1})
    tracemalloc.start()
    try:
        G = gl.product(F1, F2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G == vertex_by_vertex_product(F1, F2)
    assert G.edges == ((0, 1, "unit", 1), (0, 2, "unit", 1))
    assert G.n_vertices == 200_001
    assert peak < 1 << 20


def test_unlabel_and_relabel_roundtrip():
    F = gl.DecoratedMultigraph(2, ((0, 1, "a", 1),), {0: 1, 1: 2})
    G = gl.DecoratedMultigraph(2, F.edges, {0: 1})  # F with label 2 dropped
    assert gl.relabel(G, 1, 2) == F
    assert F.vertex_of_label(2) == 1
    with pytest.raises(ValidationError) as err:
        G.vertex_of_label(2)
    assert err.value.code == "label-absent"


def test_fstar_preserved_by_product():
    def fstar(F):
        """No edge joins two labeled vertices."""
        return not any(u in F.labels and v in F.labels for u, v, _, _ in F.edges)

    rng = np.random.default_rng(4)
    checked = 0
    while checked < 10:
        F1 = rand_graph(rng, n_labels=2)
        F2 = rand_graph(rng, n_labels=2)
        if fstar(F1) and fstar(F2):
            assert fstar(gl.product(F1, F2))
            checked += 1


def test_add_path_examples():
    e = gl.edge_graph("a")
    double = add_path(e, 0, 1, 1, "a")
    assert double.edges == ((0, 1, "a", 2),)
    two = add_path(e, 0, 1, 2, "a")
    assert two.n_vertices == 3
    assert two.degrees[2] == 2
    k = 4
    G = add_path(e, 0, 1, k, "a")
    assert G.n_vertices == e.n_vertices + k - 1
    assert sum(m for *_, m in G.edges) == sum(m for *_, m in e.edges) + k
    with pytest.raises(ValidationError):
        add_path(e, 0, 0, 2, "a")


@pytest.mark.parametrize(
    "build, size",
    [(gl.path_graph, 0), (gl.cycle_graph, 2), (gl.star_graph, 0)],
    ids=["path", "cycle", "star"],
)
def test_families_refuse_sizes_below_their_smallest(build, size):
    with pytest.raises(ValidationError) as e:
        build(size)
    assert e.value.code == "bad-graph"


def test_remove_one_edge():
    F = gl.edge_graph("a", multiplicity=2)
    G = gl.graphs.remove_one_edge(F, 0, 1, "a")
    assert G.edges == ((0, 1, "a", 1),)
    H = gl.graphs.remove_one_edge(G, 1, 0, "a")
    assert H.edges == ()
    with pytest.raises(ValidationError):
        gl.graphs.remove_one_edge(H, 0, 1, "a")


def test_degree_counts_multiplicity():
    F = gl.edge_graph("a", multiplicity=3)
    assert F.degrees[0] == 3
    assert F.max_degree == 3
    assert sum(m for *_, m in F.edges) == 3


def test_degrees_take_one_pass_over_the_edges():
    # a scan of every edge per vertex takes minutes at this size
    F = gl.path_graph(49_999)
    start = time.perf_counter()
    assert F.max_degree == 2
    assert gl.rank1_density(F, (0.0, 1.0)) == 1.0
    assert (F.degrees[0], F.degrees[1], F.degrees[49_999]) == (1, 2, 1)
    assert time.perf_counter() - start < 10.0
    G = gl.DecoratedMultigraph(5, ((0, 1, "a", 2), (1, 2, "b", 1), (0, 2, "a", 1)))
    assert G.degrees == {0: 3, 1: 3, 2: 2}
    assert [G.degrees[v] for v in range(5)] == [3, 3, 2, 0, 0]
