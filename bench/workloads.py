"""The three benchmark workloads: seeded job lists with their output checks.

A job is one CLI invocation, ``graphonlab.cli.run(argv + ["--out", path])``.
Each workload draws every fixture from its seed, so two seeds give the
same job mix (subcommands, sizes, graph shapes) with different values.

Besides its own jobs, each workload runs a few companion jobs on a q=8
graphon: one for every layer its own jobs do not reach. Every layer metric
is then a measurement on every workload, and a layer a workload does not
load reads near zero there instead of exactly zero.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks
import fixtures as fx

Check = Callable[[str], "str | None"]


@dataclass
class Job:
    name: str
    argv: list[str]
    out: str
    check: Check

    @property
    def full_argv(self) -> list[str]:
        return self.argv + ["--out", self.out]


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    #: pairs of job names whose scalar outputs must agree (enumeration vs --dp)
    agree: list[tuple[str, str]] = field(default_factory=list)


class Builder:
    """Collects jobs for one workload, writing fixtures as it goes."""

    def __init__(self, root: str, seed: int):
        self.root = root
        os.makedirs(os.path.join(root, "out"), exist_ok=True)
        self.rng = np.random.default_rng(seed)
        self.jobs: list[Job] = []
        self.agree: list[tuple[str, str]] = []
        # keyed by id(); the object is kept so its id cannot be reused
        self._written: dict[int, tuple[object, str]] = {}
        self._files = 0

    def path(self, name: str, obj) -> str:
        """Write ``obj`` (a Graphon or Graph) once; return its path."""
        if id(obj) not in self._written:
            path = self.write(name, obj.doc())
            self._written[id(obj)] = (obj, path)
        return self._written[id(obj)][1]

    def write(self, name: str, doc) -> str:
        """Write a fixture under a numbered name, so two tags never collide."""
        self._files += 1
        path = os.path.join(self.root, f"{self._files:03d}-{name}")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def add(self, name: str, argv: list[str], check: Check) -> str:
        out = os.path.join(self.root, "out", f"{len(self.jobs):03d}.out")
        self.jobs.append(Job(name, argv, out, check))
        return name

    def seed(self) -> str:
        return str(int(self.rng.integers(1, 2**31)))

    # -- job families -------------------------------------------------------

    def density(self, tag: str, G: fx.Graphon, F: fx.Graph, dp: bool) -> str:
        if not dp:
            fx.require_under_cap(fx.enumeration_count(G.q, F.n), f"density {tag}")
        argv = ["density", "--graphon", self.path(f"{tag}-graphon.json", G),
                "--graph", self.path(f"{tag}-graph.json", F)]
        name = f"{'dp' if dp else 'density'}:{tag}"
        return self.add(name, argv + (["--dp"] if dp else []),
                        checks.scalar(fx.exact_density(G, F)))

    def marginal(self, tag: str, G: fx.Graphon, F: fx.Graph) -> str:
        fx.require_under_cap(fx.enumeration_count(G.q, F.n - len(F.labels)), f"marginal {tag}")
        anchors = {label: int(self.rng.integers(G.q)) for label in sorted(F.labels.values())}
        pin = {v: anchors[label] for v, label in F.labels.items()}
        text = ",".join(f"{label}:{c}" for label, c in anchors.items())
        return self.add(
            f"marginal:{tag}",
            ["marginal", "--graphon", self.path(f"{tag}-graphon.json", G),
             "--graph", self.path(f"{tag}-graph.json", F), "--anchors", text],
            checks.scalar(fx.exact_density(G, F, pin)),
        )

    def mc(self, tag: str, G: fx.Graphon, F: fx.Graph, samples: int) -> str:
        return self.add(
            f"mc:{tag}",
            ["mc", "--graphon", self.path(f"{tag}-graphon.json", G),
             "--graph", self.path(f"{tag}-graph.json", F),
             "--samples", str(samples), "--seed", self.seed()],
            checks.mc(fx.exact_density(G, F), samples),
        )

    def productcheck(self, tag: str, G: fx.Graphon, F1: fx.Graph, F2: fx.Graph) -> str:
        fx.require_under_cap(
            fx.productcheck_count(G.q, F1.n, F2.n, len(F1.labels)), f"productcheck {tag}"
        )
        return self.add(
            f"productcheck:{tag}",
            ["productcheck", "--graphon", self.path(f"{tag}-graphon.json", G),
             "--graph1", self.path(f"{tag}-graph1.json", F1),
             "--graph2", self.path(f"{tag}-graph2.json", F2)],
            checks.residual(),
        )

    def graphon_job(self, cmd: str, tag: str, G: fx.Graphon, extra: list[str], check: Check) -> str:
        argv = [cmd, "--graphon", self.path(f"{tag}-graphon.json", G)] + extra
        return self.add(f"{cmd}:{tag}", argv, check)

    def twins(self, tag, G):
        return self.graphon_job("twins", tag, G, [], checks.twins(G.twin_partition()))

    def reduce(self, tag, G):
        return self.graphon_job("reduce", tag, G, [], checks.reduced(G.n_distinct))

    def regularity(self, tag, G):
        return self.graphon_job("regularity", tag, G, ["--anchors", self.anchors(G)],
                                checks.literal("true"))

    def anchor(self, tag, G):
        return self.graphon_job("anchor", tag, G, ["--anchors", self.anchors(G)],
                                checks.anchored(G.n_distinct))

    def quotient(self, tag, G):
        """Quotient by a random pairing of the classes."""
        class_of = (np.arange(G.q) // 2)[self.rng.permutation(G.q)].tolist()
        part = self.write(f"{tag}-partition.json", {"class_of": class_of})
        return self.graphon_job("quotient", tag, G, ["--partition", part],
                                checks.quotient(G.masses, class_of))

    def pnorm(self, tag, G, p: float = 3.0):
        tv = G.tv()
        want = float((G.masses @ tv**p @ G.masses) ** (1.0 / p))
        return self.graphon_job("pnorm", tag, G, ["--p", str(p)], checks.scalar(want))

    def carleman(self, tag, G, terms: int):
        return self.graphon_job("carleman", tag, G, ["--terms", str(terms)], checks.carleman)

    def validate(self, tag, G):
        return self.graphon_job("validate", tag, G, [], checks.literal("ok"))

    def eigen(self, tag, G, psi: str):
        s = np.sqrt(G.masses)
        M = s[:, None] * G.kernel(psi) * s[None, :]
        return self.graphon_job("eigen", f"{tag}-{psi}", G, ["--psi", psi], checks.eigen(M))

    def pathkernel(self, tag, G, psi: str, k: int):
        K = G.kernel(psi)
        want = K.copy()
        for _ in range(k - 1):
            want = want @ (G.masses[:, None] * K)
        return self.graphon_job("pathkernel", f"{tag}-{psi}", G,
                                ["--psi", psi, "--k", str(k)], checks.matrix(want))

    def liftcheck(self, tag, G, G2, F: fx.Graph, u: int, v: int, kmax: int):
        psi = next(p for a, b, p, _ in F.edges if (a, b) == (min(u, v), max(u, v)))
        return self.add(
            f"liftcheck:{tag}",
            ["liftcheck", "--graphon", self.path(f"{tag}-graphon.json", G),
             "--graphon2", self.path(f"{tag}-graphon2.json", G2),
             "--graph", self.path(f"{tag}-graph.json", F),
             "--u", str(u), "--v", str(v), "--psi", psi, "--kmax", str(kmax)],
            checks.liftcheck,
        )

    def counterexample(self, support: int, order: int):
        # the suite's densities enumerate q = support + 1 classes over at most
        # order + 2 vertices (the witness star)
        fx.require_under_cap(fx.enumeration_count(support + 1, order + 2), "counterexample witness")
        return self.add(f"counterexample:N{support}D{order}",
                        ["counterexample", "--support", str(support), "--order", str(order),
                         "--seed", self.seed()], checks.counterexample)

    def momentpair(self, support: int, order: int):
        return self.add(f"momentpair:N{support}D{order}",
                        ["momentpair", "--support", str(support), "--order", str(order),
                         "--seed", self.seed()], checks.momentpair(order))

    def anchors(self, G: fx.Graphon, count: int = 3) -> str:
        return ",".join(str(a) for a in sorted(self.rng.choice(G.q, count, replace=False)))

    # -- companions ---------------------------------------------------------

    def companions(self, G: fx.Graphon, families: list[str]) -> None:
        """One small job per family on the q=8 graphon ``G``."""
        rng = self.rng
        make = {
            "mc": lambda: self.mc("C4@q8", G, fx.cycle(rng, 4), 10_000),
            "productcheck": lambda: self.productcheck("C3x2@q8", G, *fx.labeled_pair(rng, 3, 2)),
            "reduce": lambda: self.reduce("q8", G),
            "anchor": lambda: self.anchor("q8", G),
            "pnorm": lambda: self.pnorm("q8", G),
            "carleman": lambda: self.carleman("q8", G, 20),
            "eigen": lambda: self.eigen("q8", G, "f1"),
            "pathkernel": lambda: self.pathkernel("q8", G, "f1", 3),
            "liftcheck": lambda: self.liftcheck("C4@q8", G, G.permuted(rng), fx.cycle(rng, 4), 0, 1, 4),
            "counterexample": lambda: self.counterexample(4, 2),
        }
        for fam in families:
            make[fam]()

    def build(self, name: str) -> Workload:
        return Workload(name, self.jobs, self.agree)


def density_sweep(root: str, seed: int) -> Workload:
    """Enumeration, elimination, marginals, MC and the product identity."""
    b = Builder(root, seed)
    rng = b.rng
    G8 = fx.make_graphon(rng, 8, 4)
    G64 = {"a": fx.make_graphon(rng, 64, 4), "b": fx.make_graphon(rng, 64, 4)}
    graphs = {
        "C7": fx.cycle(rng, 7),
        "P10": fx.path(rng, 10),
        "S6": fx.star(rng, 6),
        "K4m": fx.complete(rng, 4, mult_max=3),
    }
    for g in ("C7", "S6", "K4m"):
        enum = b.density(f"{g}@q8", G8, graphs[g], dp=False)
        dp = b.density(f"{g}@q8", G8, graphs[g], dp=True)
        b.agree.append((enum, dp))
    b.density("P10@q8", G8, graphs["P10"], dp=True)
    C5L2 = fx.labeled_cycle(rng, 5, 2)
    for tag, G in G64.items():
        for g in graphs:
            b.density(f"{g}@q64{tag}", G, graphs[g], dp=True)
        b.marginal(f"C5L2@q64{tag}", G, C5L2)
    b.mc("C7@q8", G8, graphs["C7"], 100_000)
    b.mc("C7@q8-1e6", G8, graphs["C7"], 1_000_000)
    for tag in ("a", "b"):
        F1, F2 = fx.labeled_pair(rng, 4, 2)
        b.productcheck(f"C4x2{tag}@q8", G8, F1, F2)
    b.companions(G8, ["reduce", "anchor", "pnorm", "carleman", "eigen", "pathkernel",
                      "liftcheck", "counterexample"])
    return b.build("density-sweep")


def transform_twins(root: str, seed: int) -> Workload:
    """Twin detection, reduction, quotients and norms on planted-twin graphons."""
    b = Builder(root, seed)
    rng = b.rng
    T64 = fx.make_graphon(rng, 64, 4)
    T64w = fx.make_graphon(rng, 64, 32)
    T128 = fx.make_graphon(rng, 128, 4)
    b.twins("q64S4", T64)
    b.reduce("q64S4", T64)
    b.regularity("q64S4", T64)
    for tag, G in (("q64S4", T64), ("q64S32", T64w), ("q128S4", T128)):
        b.quotient(tag, G)
        b.anchor(tag, G)
        b.pnorm(tag, G)
    b.carleman("q64S4", T64, 50)
    b.validate("q64S4", T64)
    b.validate("q128S4", T128)
    b.companions(fx.make_graphon(rng, 8, 4),
                 ["mc", "productcheck", "eigen", "pathkernel", "liftcheck", "counterexample"])
    return b.build("transform-twins")


def spectral_lift(root: str, seed: int) -> Workload:
    """Eigensystems and path kernels of large graphons, lift checks, moment pairs."""
    b = Builder(root, seed)
    rng = b.rng
    E200, E128 = fx.make_graphon(rng, 200, 4), fx.make_graphon(rng, 128, 4)
    b.eigen("q200", E200, "unit")
    b.pathkernel("q200", E200, "f1", 6)
    b.eigen("q128", E128, "f1")
    b.pathkernel("q128", E128, "unit", 6)
    L64 = fx.make_graphon(rng, 64, 4)
    L64p = L64.permuted(rng)
    C5 = fx.cycle(rng, 5)
    b.liftcheck("C5u0v1@q64", L64, L64p, C5, 0, 1, 6)
    b.liftcheck("C5u2v3@q64", L64, L64p, C5, 2, 3, 6)
    for support, order in ((5, 3), (6, 4), (7, 4)):
        b.counterexample(support, order)
    b.momentpair(5, 3)
    b.momentpair(8, 5)
    b.companions(fx.make_graphon(rng, 8, 4),
                 ["mc", "productcheck", "reduce", "anchor", "pnorm", "carleman"])
    return b.build("spectral-lift")


WORKLOADS = {
    "density-sweep": density_sweep,
    "transform-twins": transform_twins,
    "spectral-lift": spectral_lift,
}
