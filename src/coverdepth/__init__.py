"""coverdepth: stability of symbolic depth functions of graph cover ideals,
computed two independent ways and cross-verified.

The combinatorial route runs through ordered matchings and alternating-path
statistics; the algebraic route is a brute-force graded local-cohomology
search over degree complexes with exact homology.
"""

from .graphs import (
    Graph,
    GraphError,
    GraphParseError,
    builtin_graph,
    cycle_graph,
    parse_graph,
    path_graph,
)
from .matchings import (
    OrderedMatching,
    enumerate_max_ordered_matchings,
    has_perfect_ordered_matching,
    induced_matching_number,
    is_ordered_matching,
    matching_number,
    ordered_matching_number,
    unique_perfect_matching_check,
)
from .altpaths import (
    alt_path_length,
    min_alt_path_length,
    partner_path_lengths,
    path_exponents,
    shifted_exponents,
    stability_bound,
    walk_length,
)
from .complexes import SimplicialComplex, from_facets, reduced_homology
from .depth import (
    BudgetRefusal,
    DepthReport,
    depth_profile,
    depth_symbolic,
    reg_edge_ideal,
    stability_certificate,
    stability_index,
    stability_index_oracle,
)
from .linalg import FieldSpec, PrimeField, Rationals, parse_field
from .analyzer import AnalysisReport, AnalyzeOptions, analyze, batch
from .verification import run_verification, verify_corpus

__version__ = "0.1.0"
