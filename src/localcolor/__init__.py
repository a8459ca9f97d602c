"""Randomized local list coloring: the equalized naive procedure, savings
bounds, density audits, and dense-subgraph extraction."""

from .bounds import (
    aberrance_lower_bound,
    exceptional_prob_bound,
    ky_bound,
    minor_constants_check,
    pairs_trips_lower_bound,
    savings_gap_certificate,
    talagrand_median_tail,
    talagrand_tail,
    unact_expectation,
)
from .extraction import ExtractionResult, extract_dense_subgraph
from .generators import gen_c5_blowup, gen_complete_bipartite, gen_gnp
from .graph import (
    Graph,
    Matching,
    average_degree,
    max_antimatching,
)
from .knm import DensityAudit, density_audit
from .lists import (
    ListAssignment,
    is_proper,
    make_lists,
    uniform_lists,
)
from .procedure import (
    CompiledInstance,
    PipelineReport,
    ProcedureParams,
    compile_lists,
    default_rho,
    keep_constant,
    pipeline_color,
)

__version__ = "0.1.0"
