"""Independent sets in layered hypergraphs.

Core graph type and file format, short-cycle detectors and the structural
membership test, round schedules, the semi-random solver with its sampling
reductions, input generators, and an experiment harness.
"""

from .core import LayeredHypergraph, MultiEdgeBag, contract, read_file, write_file
from .errors import (
    HyperindError,
    InvalidArguments,
    InvalidUniformity,
    InvalidVertex,
    OutOfDomain,
    OutOfRegime,
    ParseError,
    PreconditionFailed,
    ResidueNotBouquet,
    RoundCollapsed,
    SchemaError,
)
from .rng import spawn_key, stream
from .schedule import REFERENCE_KINDS, Schedule, build_schedule, reference_bound
from .structure import (
    BouquetReport,
    Classification,
    CycleWitness,
    check_bouquet,
    check_property_vprime,
    classify_intersecting_family,
    common_neighbor_max,
    count_two_cycles,
    find_clean_four_cycles,
    find_linear_three_cycles,
    link_components,
    list_two_cycles,
    prune_short_cycles,
)
from .algorithms import (
    PipelineConfig,
    RunCertificate,
    StepState,
    akpss_run,
    akpss_step,
    almost_regular_complete,
    deg_i_to_j,
    greedy_set,
    mu_i_to_j,
    pipeline_degree_gap,
    pipeline_graded_caps,
    pipeline_kminus2,
    spencer_set,
)
from .generators import (
    gen_disjoint_cliques,
    gen_girth5,
    gen_gnp,
    gen_layered_bouquet,
)
from .harness import ExperimentConfig, diff_reports, run_experiment

__version__ = "0.1.0"

__all__ = [
    "LayeredHypergraph",
    "MultiEdgeBag",
    "contract",
    "read_file",
    "write_file",
    "HyperindError",
    "InvalidArguments",
    "InvalidUniformity",
    "InvalidVertex",
    "OutOfDomain",
    "OutOfRegime",
    "ParseError",
    "PreconditionFailed",
    "ResidueNotBouquet",
    "RoundCollapsed",
    "SchemaError",
    "spawn_key",
    "stream",
    "REFERENCE_KINDS",
    "Schedule",
    "build_schedule",
    "reference_bound",
    "BouquetReport",
    "Classification",
    "CycleWitness",
    "check_bouquet",
    "check_property_vprime",
    "classify_intersecting_family",
    "common_neighbor_max",
    "count_two_cycles",
    "find_clean_four_cycles",
    "find_linear_three_cycles",
    "link_components",
    "list_two_cycles",
    "prune_short_cycles",
    "PipelineConfig",
    "RunCertificate",
    "StepState",
    "akpss_run",
    "akpss_step",
    "almost_regular_complete",
    "deg_i_to_j",
    "greedy_set",
    "mu_i_to_j",
    "pipeline_degree_gap",
    "pipeline_graded_caps",
    "pipeline_kminus2",
    "spencer_set",
    "gen_disjoint_cliques",
    "gen_girth5",
    "gen_gnp",
    "gen_layered_bouquet",
    "ExperimentConfig",
    "diff_reports",
    "run_experiment",
    "__version__",
]
