"""Seeded benchmark inputs, written as the JSON documents the CLI reads.

Nothing here imports graphonlab. The program under test sees only the
files; the output checks use the arrays kept on the objects below, so a
check never trusts the code it checks.

Graphons have planted twins: ``q`` classes map onto ``n_distinct`` base
classes, and two classes with the same base class have identical block
rows. Block weights are positive and each block carries point 1, so both
functionals give kernels bounded away from zero and densities stay in a
range where a 1e-10 comparison of 12-digit output means something.
"""
from __future__ import annotations

import string
from dataclasses import dataclass, field

import numpy as np

#: largest predicted enumeration count (q ** free vertices) a job may have;
#: at the current enumeration rate this is about a second of work
ENUMERATION_CAP = 1 << 22

#: functional ids every generated graphon carries
PSIS = ("unit", "f1")


class CapExceeded(ValueError):
    """A job would enumerate more class assignments than ENUMERATION_CAP."""


@dataclass
class Graphon:
    """Step graphon with planted twins; arrays are over base classes."""

    masses: np.ndarray  # (q,)
    class_of: np.ndarray  # (q,) base class of each class
    support: np.ndarray  # (B, B, S) int, symmetric in the first two axes
    weights: np.ndarray  # (B, B, S) float, symmetric in the first two axes
    tables: dict[str, np.ndarray]  # functional values indexed by support point

    @property
    def q(self) -> int:
        return len(self.masses)

    @property
    def n_distinct(self) -> int:
        return len(set(self.class_of.tolist()))

    def kernel(self, psi: str) -> np.ndarray:
        base = (self.tables[psi][self.support] * self.weights).sum(axis=-1)
        return base[np.ix_(self.class_of, self.class_of)]

    def tv(self) -> np.ndarray:
        base = np.abs(self.weights).sum(axis=-1)
        return base[np.ix_(self.class_of, self.class_of)]

    def twin_partition(self) -> list[int]:
        """Planted twin classes, numbered by smallest member."""
        number: dict[int, int] = {}
        return [number.setdefault(int(c), len(number)) for c in self.class_of]

    def permuted(self, rng: np.random.Generator) -> "Graphon":
        """The same graphon with its classes listed in another order."""
        perm = rng.permutation(self.q)
        return Graphon(self.masses[perm], self.class_of[perm], self.support, self.weights, self.tables)

    def doc(self) -> dict:
        blocks = []
        for i in range(self.q):
            for j in range(i, self.q):
                a, b = self.class_of[i], self.class_of[j]
                blocks.append(
                    {
                        "i": i,
                        "j": j,
                        "support": self.support[a, b].tolist(),
                        "weights": self.weights[a, b].tolist(),
                    }
                )
        functionals = []
        for psi in sorted(self.tables):
            table = self.tables[psi]
            pts = np.flatnonzero(table)
            functionals.append({"id": psi, "support": pts.tolist(), "values": table[pts].tolist()})
        return {"masses": self.masses.tolist(), "blocks": blocks, "functionals": functionals}


def make_graphon(rng: np.random.Generator, q: int, S: int) -> Graphon:
    """A graphon on ``q`` classes, a quarter of them planted twins of others.

    Each twin copies a different class, so every seed plants the same number
    of twin pairs and the work of finding them does not depend on the seed.
    """
    n_distinct = q - q // 4
    class_of = np.concatenate(
        [np.arange(n_distinct), rng.choice(n_distinct, q - n_distinct, replace=False)]
    )
    class_of = class_of[rng.permutation(q)]
    width = 2 * S
    support = np.empty((n_distinct, n_distinct, S), dtype=np.int64)
    weights = np.empty((n_distinct, n_distinct, S))
    others = np.array([k for k in range(width) if k != 1])
    for a in range(n_distinct):
        for b in range(a, n_distinct):
            pts = np.sort(np.append(rng.choice(others, S - 1, replace=False), 1))
            w = rng.uniform(0.05, 1.0, S) / S
            w[pts == 1] = rng.uniform(0.3, 1.0)
            support[a, b] = support[b, a] = pts
            weights[a, b] = weights[b, a] = w
    unit = np.zeros(width)
    unit[1] = 1.0
    f1 = rng.uniform(0.2, 1.0, width)
    masses = rng.uniform(0.5, 1.5, q)
    masses = masses / masses.sum()
    return Graphon(masses, class_of, support, weights, {"unit": unit, "f1": f1})


@dataclass
class Graph:
    """Decorated multigraph: edges are (u, v, psi, multiplicity)."""

    n: int
    edges: list[tuple[int, int, str, int]]
    labels: dict[int, int] = field(default_factory=dict)

    def doc(self) -> dict:
        return {
            "n_vertices": self.n,
            "labels": {str(v): l for v, l in sorted(self.labels.items())},
            "edges": [
                {"u": u, "v": v, "psi": psi, "multiplicity": m} for u, v, psi, m in self.edges
            ],
        }


def _decorate(rng: np.random.Generator, n: int, pairs, mult_max: int = 1, labels=None) -> Graph:
    edges = [
        (u, v, str(rng.choice(PSIS)), int(rng.integers(1, mult_max + 1))) for u, v in pairs
    ]
    return Graph(n, edges, dict(labels or {}))


def cycle(rng, n: int) -> Graph:
    return _decorate(rng, n, [(i, (i + 1) % n) for i in range(n)])


def path(rng, n: int) -> Graph:
    """Path on ``n`` vertices."""
    return _decorate(rng, n, [(i, i + 1) for i in range(n - 1)])


def star(rng, leaves: int) -> Graph:
    return _decorate(rng, leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete(rng, n: int, mult_max: int = 1) -> Graph:
    return _decorate(rng, n, [(u, v) for u in range(n) for v in range(u + 1, n)], mult_max)


def labeled_cycle(rng, n: int, labeled: int) -> Graph:
    """Cycle with its first ``labeled`` vertices carrying labels 1, 2, ..."""
    return _decorate(
        rng, n, [(i, (i + 1) % n) for i in range(n)],
        labels={v: v + 1 for v in range(labeled)},
    )


def labeled_pair(rng, n: int, labeled: int) -> tuple[Graph, Graph]:
    """Two ``n``-cycles sharing the labels 1..``labeled`` on their first vertices."""
    return labeled_cycle(rng, n, labeled), labeled_cycle(rng, n, labeled)


# -- enumeration cap ----------------------------------------------------------


def enumeration_count(q: int, free: int) -> int:
    """Class assignments the enumeration route visits: q ** free vertices."""
    return q**free


def productcheck_count(q: int, n1: int, n2: int, labels: int) -> int:
    """The merged product's enumeration plus both marginals at each pinning.

    The two graphs share all ``labels`` labels, so the product merges that
    many vertex pairs.
    """
    return q ** (n1 + n2 - labels) + q**labels * (q ** (n1 - labels) + q ** (n2 - labels))


def require_under_cap(count: int, what: str) -> None:
    if count > ENUMERATION_CAP:
        raise CapExceeded(f"{what}: {count} assignments exceeds the cap {ENUMERATION_CAP}")


# -- oracles ------------------------------------------------------------------


def exact_density(G: Graphon, F: Graph, pin: dict[int, int] | None = None) -> float:
    """Density by one einsum over all vertices; pinned vertices carry no mass."""
    pin = pin or {}
    letters = string.ascii_letters
    ops, subs = [], []
    for v in range(F.n):
        if v in pin:
            w = np.zeros(G.q)
            w[pin[v]] = 1.0
        else:
            w = G.masses
        ops.append(w)
        subs.append(letters[v])
    kernels = {psi: G.kernel(psi) for psi in PSIS}
    for u, v, psi, m in F.edges:
        ops.append(kernels[psi] ** m)
        subs.append(letters[u] + letters[v])
    return float(np.einsum(",".join(subs) + "->", *ops, optimize="greedy"))
