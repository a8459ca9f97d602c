"""Randomized local list and correspondence coloring: the equalized naive
procedure, savings bounds, density audits, and dense-subgraph extraction."""

from .bounds import (
    aberrance_lower_bound,
    delta_concentration_test,
    exceptional_prob_bound,
    ky_bound,
    minor_constants_check,
    pairs_trips_lower_bound,
    savings_gap_certificate,
    structure_rhs,
    talagrand_median_tail,
    talagrand_tail,
    unact_expectation,
)
from .correspondence import (
    CorrespondenceAssignment,
    identity_correspondence,
    is_lm_coloring,
    make_total,
)
from .extraction import ExtractionResult, extract_dense_subgraph
from .generators import gen_c5_blowup, gen_complete_bipartite, gen_gnp
from .graph import (
    Graph,
    Matching,
    average_degree,
    local_clique_number,
    mad_exact,
    max_antimatching,
    max_clique_size,
    rivin_triangle_bound,
    triangle_count,
)
from .knm import DensityAudit, KnmInstance, color_knm, density_audit
from .lists import (
    ListAssignment,
    VertexProfile,
    brute_force_L_colorable,
    f_choosable,
    gap,
    is_L_critical,
    is_proper,
    local_reed_list_sizes,
    make_lists,
    profile,
    save,
    uniform_lists,
)
from .procedure import (
    BatchSample,
    CompiledInstance,
    PipelineReport,
    ProcedureParams,
    compile_instance,
    compile_lists,
    default_rho,
    keep_constant,
    keep_frequency,
    keep_probability,
    pipeline_color,
    sample_batch,
)

__version__ = "0.1.0"
