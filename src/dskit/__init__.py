"""Exact face-enumeration invariants and Dehn-Sommerville checks.

The package computes f-, h-, interior-f-, flag-f/h-vectors, face
multiplicities and reduced Betti numbers of finite abstract simplicial
complexes, and verifies every Dehn-Sommerville variant as an exact
coefficientwise polynomial identity.
"""

from .balanced import (
    Coloring,
    b_of,
    flag_f,
    flag_h,
    validate_balanced,
    verify_balanced_ds,
    verify_balanced_semi_eulerian,
    verify_flag_fh_tilde,
    verify_flag_reciprocity,
)
from .complexes import Complex, from_facets, parse_cplx, read_cplx, write_cplx
from .enumeration import (
    MultiplicityTable,
    epsilon,
    euler,
    f_vector,
    h_to_f,
    h_vector,
    interior_f_vector,
    multiplicities,
    multiplicity,
    reduced_euler,
)
from .errors import (
    DomainError,
    DskitError,
    ParseError,
    PreconditionError,
    ResourceLimitError,
    ValidationError,
)
from .generators import (
    Generated,
    barycentric_subdivision,
    cross_polytope_boundary,
    cylinder,
    double_banana,
    double_banana_minus_triangle,
    gen,
    glued_tetrahedra,
    glued_triangles,
    random_complex,
    simplex_boundary,
    subdivided_triangle,
)
from .homology import (
    BettiTable,
    FieldSpec,
    boundary_faces_homological,
    is_homology_manifold,
    reduced_betti,
)
from .poly import IntPoly, MPoly
from .relations import (
    Classification,
    RelationReport,
    classify,
    macdonald_q,
    verify_all,
    verify_ds_f,
    verify_ds_f_inverse,
    verify_ds_h,
    verify_fh_tilde,
    verify_macdonald,
    verify_reciprocity,
    verify_semi_eulerian_h,
)
from .stanley_reisner import (
    RationalSeries,
    hilbert_series,
    hilbert_series_colored,
    verify_sr_reciprocity,
    verify_sr_reciprocity_colored,
)

__version__ = "0.1.0"
