"""Target set selection under threshold activation on structured graphs."""

from .activation import (
    ActivationTrace,
    SequenceValidation,
    closure,
    extract_convinced_sequence,
    is_influencing,
    parallel_trace,
    sequential_closure,
    validate_convinced_sequence,
)
from .bounds import BoundsReport, flocchini_upper, lower_bound_lemma, torus_bounds, tss_lower_bound_torus
from .constructions import (
    SeedReport,
    path_seed_k2,
    seed_cordalis_m0mod3,
    seed_cordalis_n1mod3,
    seed_cordalis_n2mod3,
    seed_cordalis_n3,
    seed_cordalis_n3s,
    seed_cycle_permutation,
    seed_generalized_petersen,
    seed_torus_cordalis,
)
from .errors import (
    BadParam,
    BadPermutation,
    ConstructionFailedVerification,
    DuplicateLabel,
    DuplicateVertex,
    NonSimpleResult,
    SeedOverlap,
    SelfLoop,
    SizeMismatch,
    TooLarge,
    TssError,
    VertexOutOfRange,
)
from .families import (
    cycle,
    cycle_permutation,
    generalized_petersen,
    identity_permutation,
    path,
    permutation_from_one_based,
    toroidal_mesh,
    torus_cordalis,
    torus_serpentinus,
    torus_vertex_id,
)
from .graph import (
    Graph,
    build_graph,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    is_connected,
)
from .solver import OptimalityCheck, SolveLimits, SolveResult, exact_min_seed, verify_optimality
from .thresholds import (
    constant_threshold,
    majority_threshold,
    strict_majority_threshold,
)

__version__ = "0.1.0"
