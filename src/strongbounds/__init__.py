"""Boundary-type vertex sets of strong digraphs under the maximum-distance metric.

Core objects: `Digraph` (loop-free, simple, immutable), `MetricProfile`
(max-distance table, eccentricities, radius, diameter), `BoundaryProfile`
(boundary, contour, eccentricity set, periphery), and the strong product with
factor-side formulas for all four sets plus a brute-force verification
harness that compares the formulas against definition-level computation on the
constructed product.
"""

from .boundary import (
    SET_NAMES,
    BoundaryProfile,
    boundary_profile,
    boundary_set,
    contour_set,
    eccentric_set,
    periphery_set,
)
from .digraph import Digraph, from_arcs, is_strong
from .errors import (
    InvalidConfig,
    LoopArc,
    NotStrong,
    ParallelArc,
    ParseError,
    SizeOverflow,
    StrongboundsError,
    VertexOutOfRange,
)
from .generator import GeneratedDigraph, generate_strong_digraph
from .io_formats import (
    EdgeListDocument,
    export_dot,
    parse_edge_list,
    serialize_edge_list,
)
from .metric import (
    UNREACHABLE,
    MetricProfile,
    all_pairs_directed,
    directed_distances_from,
    metric_profile,
)
from .product import (
    DEFAULT_VERTEX_BUDGET,
    FactorPair,
    ProductLabel,
    UndirectedFormulaReport,
    product_arc_count,
    product_boundary_exact_via_factors,
    product_boundary_profile_via_factors,
    product_boundary_via_factors,
    product_contour_exact_via_factors,
    product_contour_via_factors,
    product_eccentric_via_factors,
    product_metric_profile,
    product_metric_summary,
    product_periphery_via_factors,
    strong_product,
    undirected_formula_counterexample,
)
from .report import analyze_digraph, analyze_product, write_json
from .verify import PROPERTIES, VerificationSummary, run_verification

__version__ = "0.1.0"

__all__ = [
    "BoundaryProfile",
    "DEFAULT_VERTEX_BUDGET",
    "Digraph",
    "EdgeListDocument",
    "FactorPair",
    "GeneratedDigraph",
    "InvalidConfig",
    "LoopArc",
    "MetricProfile",
    "NotStrong",
    "PROPERTIES",
    "ParallelArc",
    "ParseError",
    "ProductLabel",
    "SET_NAMES",
    "SizeOverflow",
    "StrongboundsError",
    "UNREACHABLE",
    "UndirectedFormulaReport",
    "VerificationSummary",
    "VertexOutOfRange",
    "all_pairs_directed",
    "analyze_digraph",
    "analyze_product",
    "boundary_profile",
    "boundary_set",
    "contour_set",
    "directed_distances_from",
    "eccentric_set",
    "export_dot",
    "from_arcs",
    "generate_strong_digraph",
    "is_strong",
    "metric_profile",
    "parse_edge_list",
    "periphery_set",
    "product_arc_count",
    "product_boundary_exact_via_factors",
    "product_boundary_profile_via_factors",
    "product_boundary_via_factors",
    "product_contour_exact_via_factors",
    "product_contour_via_factors",
    "product_eccentric_via_factors",
    "product_metric_profile",
    "product_metric_summary",
    "product_periphery_via_factors",
    "run_verification",
    "serialize_edge_list",
    "strong_product",
    "undirected_formula_counterexample",
    "write_json",
]
