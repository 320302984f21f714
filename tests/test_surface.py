"""The public names of graphonlab, and the names the benchmark's tracer rebinds."""
import importlib
import sys
from pathlib import Path

import graphonlab

BENCH = Path(__file__).resolve().parent.parent / "bench"

#: every name ``import graphonlab`` exports; a change here changes the API
PUBLIC_NAMES = [
    "CarlemanReport", "CounterexampleReport", "DEFAULT_FUNCTIONAL_ID", "DecoratedMultigraph",
    "EigenSystem", "FeatureMap", "FiniteMeasure", "GraphonlabError", "LiftCheckReport",
    "MCEstimate", "MatchedPair", "MomentSequence", "ParseError", "Partition", "StepGraphon",
    "TestFunctional", "ValidationError", "add_path", "anchored_graphon", "carleman_report",
    "counterexample_report", "cycle_graph", "density", "density_dp", "edge_graph", "eigendecomp",
    "eliminate", "kernel_matrix", "lift_check", "marginal", "matched_pair", "mc_density", "moment",
    "p_norm", "path_graph", "path_kernel", "product", "product_identity_residual", "quotient",
    "rank1_density", "rank1_graphon", "regularity_check", "relabel", "sample_anchors",
    "star_graph", "twin_partition", "twin_reduce", "unit_functional", "validate_graphon",
]


def test_public_names_are_pinned():
    names = sorted(
        n for n, v in vars(graphonlab).items()
        if not n.startswith("_") and type(v).__name__ != "module"
    )
    assert len(PUBLIC_NAMES) == 49
    assert names == PUBLIC_NAMES


def test_every_name_the_tracer_rebinds_is_bound(monkeypatch):
    # the tracer looks each (module, name) up with a bare getattr when installed
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        tracing = importlib.import_module("tracing")
    finally:
        for name in ("tracing", "fixtures"):
            sys.modules.pop(name, None)
    keys = list(tracing.SPANS) + list(tracing.LEAVES)
    assert ("momentlab", "point_mass") in keys
    for module, name in keys:
        assert callable(getattr(importlib.import_module(f"graphonlab.{module}"), name))
