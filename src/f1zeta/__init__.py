"""Exact arithmetic for loose graphs over the field with one element.

The package computes, for any finite loose graph, its class in the
polynomial ring Z[L] (L the class of the affine line), its point counts
over small finite fields, and its zeta functions — by several independent
routes that are cross-validated against a brute-force enumeration oracle.
Supporting calculators cover monoid spectra, q-analogs, and monomial matrix
groups.
"""

from .grothendieck import (
    L,
    SurgeryStep,
    SurgeryTrace,
    class_of,
    resolution_difference,
    surgery,
    surgery_class,
    tree_class,
)
from .loose_graph import (
    AmbientEmbedding,
    Edge,
    GraphError,
    GraphParseError,
    LooseGraph,
    NotATreeError,
    NotConnectedError,
    TreeStats,
    parse,
)
from .monoid_spec import (
    MonoidPresentation,
    PresentationError,
    PrimeIdeal,
    coordinate_monoid,
)
from .oracle import (
    CountTable,
    CrossCheckReport,
    InterpolationError,
    OracleLimitError,
    count_table,
    cross_check,
    enumerate_points,
    first_primes,
    interpolate,
)
from .poly import IntPolynomial
from .qanalog import (
    F1nVectorSpace,
    MonomialMatrix,
    count_subspaces,
    f1_subspace_count,
    gauss_binomial,
    gl_order,
    monomial_matrices,
    q,
    q_factorial,
    q_integer,
    restrict_scalars,
    restrict_scalars_point,
)
from .zeta import (
    PowerSeriesZ,
    ZetaF1,
    counting_series,
    euler_characteristic,
    limit_check,
    local_zeta_series,
    local_zeta_value,
    polynomial_from_zeta,
    render_arithmetic_zeta,
    zeta_from_polynomial,
)

__version__ = "0.1.0"

__all__ = [
    "AmbientEmbedding",
    "CountTable",
    "CrossCheckReport",
    "Edge",
    "F1nVectorSpace",
    "GraphError",
    "GraphParseError",
    "IntPolynomial",
    "InterpolationError",
    "L",
    "LooseGraph",
    "MonoidPresentation",
    "MonomialMatrix",
    "NotATreeError",
    "NotConnectedError",
    "OracleLimitError",
    "PowerSeriesZ",
    "PresentationError",
    "PrimeIdeal",
    "SurgeryStep",
    "SurgeryTrace",
    "TreeStats",
    "ZetaF1",
    "class_of",
    "coordinate_monoid",
    "count_subspaces",
    "count_table",
    "counting_series",
    "cross_check",
    "enumerate_points",
    "euler_characteristic",
    "f1_subspace_count",
    "first_primes",
    "gauss_binomial",
    "gl_order",
    "interpolate",
    "limit_check",
    "local_zeta_series",
    "local_zeta_value",
    "monomial_matrices",
    "parse",
    "polynomial_from_zeta",
    "q",
    "q_factorial",
    "q_integer",
    "render_arithmetic_zeta",
    "resolution_difference",
    "restrict_scalars",
    "restrict_scalars_point",
    "surgery",
    "surgery_class",
    "tree_class",
    "zeta_from_polynomial",
]
