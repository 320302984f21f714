"""Densities, transforms and moment diagnostics for measure-valued step graphons."""

from .density import (
    MCEstimate,
    density,
    eliminate,
    marginal,
    mc_density,
    product_identity_residual,
)
from .errors import GraphonlabError, ParseError, ValidationError
from .graphs import (
    DecoratedMultigraph,
    cycle_graph,
    edge_graph,
    path_graph,
    product,
    relabel,
    star_graph,
)
from .measures import (
    DEFAULT_FUNCTIONAL_ID,
    FiniteMeasure,
    MomentSequence,
    TestFunctional,
    moment,
    unit_functional,
)
from .momentlab import (
    CounterexampleReport,
    MatchedPair,
    counterexample_report,
    matched_pair,
    rank1_density,
    rank1_graphon,
)
from .spectral import EigenSystem, LiftCheckReport, eigendecomp, lift_check, path_kernel
from .stepgraphon import (
    CarlemanReport,
    StepGraphon,
    carleman_report,
    kernel_matrix,
    p_norm,
    validate_graphon,
)
from .transforms import (
    FeatureMap,
    Partition,
    anchored_graphon,
    quotient,
    regularity_check,
    sample_anchors,
    twin_partition,
    twin_reduce,
)

__version__ = "0.1.0"
