"""Densities, transforms and moment diagnostics for measure-valued step graphons."""

from .density import (
    Anchoring,
    MCEstimate,
    density,
    density_dp,
    eliminate,
    marginal,
    mc_density,
    product_identity_residual,
)
from .errors import GraphonlabError, ParseError, ValidationError
from .graphs import (
    DecoratedMultigraph,
    add_path,
    cycle_graph,
    edge_graph,
    empty_graph,
    path_graph,
    product,
    relabel,
    single_vertex,
    star_graph,
)
from .measures import (
    DEFAULT_FUNCTIONAL_ID,
    FiniteMeasure,
    MomentSequence,
    TestFunctional,
    measure_combine,
    moment,
    moments_of_distribution,
    pair,
    point_mass,
    scalar_measure,
    tv_distance,
    tv_norm,
    unit_functional,
)
from .momentlab import (
    CounterexampleReport,
    MatchedPair,
    counterexample_report,
    matched_pair,
    rank1_density,
    rank1_graphon,
    standard_suite,
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
    feature_map,
    identity_partition,
    quotient,
    regularity_check,
    sample_anchors,
    twin_partition,
    twin_reduce,
)

__version__ = "0.1.0"
