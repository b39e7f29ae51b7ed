"""The names that `dskit` exports are its contract.

They shrink only on purpose and grow only when needed, so the exact set is
pinned here: any change to `dskit/__init__.py` shows in this file's diff.
"""

from types import ModuleType

import dskit

PUBLIC_NAMES = {
    # balanced
    "Coloring",
    "b_of",
    "flag_f",
    "flag_h",
    "validate_balanced",
    "verify_balanced_ds",
    "verify_balanced_semi_eulerian",
    "verify_flag_fh_tilde",
    "verify_flag_reciprocity",
    # complexes
    "Complex",
    "from_facets",
    "parse_cplx",
    "read_cplx",
    "write_cplx",
    # enumeration
    "MultiplicityTable",
    "epsilon",
    "euler",
    "f_vector",
    "h_to_f",
    "h_vector",
    "interior_f_vector",
    "multiplicities",
    "multiplicity",
    "reduced_euler",
    # errors
    "DomainError",
    "DskitError",
    "ParseError",
    "PreconditionError",
    "ResourceLimitError",
    "ValidationError",
    # generators
    "Generated",
    "barycentric_subdivision",
    "cross_polytope_boundary",
    "cylinder",
    "double_banana",
    "double_banana_minus_triangle",
    "gen",
    "glued_tetrahedra",
    "glued_triangles",
    "random_complex",
    "simplex_boundary",
    "subdivided_triangle",
    # homology
    "BettiTable",
    "FieldSpec",
    "boundary_faces_homological",
    "is_homology_manifold",
    "reduced_betti",
    # poly
    "MPoly",
    # relations
    "Classification",
    "RelationReport",
    "classify",
    "macdonald_q",
    "verify_all",
    "verify_ds_f",
    "verify_ds_f_inverse",
    "verify_ds_h",
    "verify_fh_tilde",
    "verify_macdonald",
    "verify_reciprocity",
    "verify_semi_eulerian_h",
    # stanley_reisner
    "RationalSeries",
    "hilbert_series",
    "hilbert_series_colored",
    "verify_sr_reciprocity",
    "verify_sr_reciprocity_colored",
}


def test_public_names_are_pinned():
    # submodules become attributes of the package once imported, so they
    # are left out: which ones are loaded depends on the tests run before
    exported = {
        name
        for name, value in vars(dskit).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert exported == PUBLIC_NAMES
