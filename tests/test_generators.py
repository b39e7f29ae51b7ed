"""Generator families: golden counts, determinism, dispatcher validation."""

import hashlib
import re

import pytest

from dskit.balanced import validate_balanced
from dskit.complexes import Complex, write_cplx
from dskit.enumeration import f_vector, reduced_euler
from dskit.errors import ResourceLimitError, ValidationError
from dskit.generators import (
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


def test_simplex_boundary_counts():
    assert f_vector(simplex_boundary(1).complex) == (1, 2)
    assert f_vector(simplex_boundary(3).complex) == (1, 4, 6, 4)
    assert reduced_euler(simplex_boundary(3).complex) == 1


def test_cross_polytope_counts():
    assert f_vector(cross_polytope_boundary(1).complex) == (1, 2)
    assert f_vector(cross_polytope_boundary(2).complex) == (1, 4, 4)
    assert f_vector(cross_polytope_boundary(3).complex) == (1, 6, 12, 8)
    made = cross_polytope_boundary(4)
    assert f_vector(made.complex) == (1, 8, 24, 32, 16)
    assert made.coloring.a == (1, 1, 1, 1)


def test_cylinder_counts():
    cx = cylinder().complex
    assert f_vector(cx) == (1, 6, 12, 6)
    assert reduced_euler(cx) == -1


def test_subdivided_triangle_counts():
    assert f_vector(subdivided_triangle().complex) == (1, 4, 6, 3)


def test_glued_families():
    assert f_vector(glued_triangles(2).complex) == (1, 4, 5, 2)
    assert f_vector(glued_triangles(3).complex) == (1, 5, 7, 3)
    assert f_vector(glued_tetrahedra(3).complex) == (1, 8, 16, 12, 3)
    with pytest.raises(ValidationError):
        glued_triangles(1)
    with pytest.raises(ValidationError):
        glued_tetrahedra(0)


def test_double_banana_counts():
    made = double_banana()
    assert f_vector(made.complex) == (1, 10, 24, 16)
    assert reduced_euler(made.complex) == 1
    assert made.coloring is not None
    # gluing vertices 1,2 belong to facets of both copies
    star1 = [f for f in made.complex.facets if 1 in f]
    assert len(star1) == 8


def test_double_banana_minus_triangle_counts():
    made = double_banana_minus_triangle()
    assert f_vector(made.complex) == (1, 10, 24, 15)
    assert (2, 4, 6) not in made.complex.facets


def test_barycentric_subdivision_octahedron():
    base = cross_polytope_boundary(3).complex
    made = barycentric_subdivision(base)
    # one new vertex per non-empty face, one facet per maximal chain
    assert f_vector(made.complex)[1] == base.num_faces - 1 == 26
    assert len(made.complex.facets) == 8 * 6
    assert made.coloring.a == (1, 1, 1)
    validate_balanced(made.complex, made.coloring.kappa, made.coloring.a)
    # subdivision preserves the Euler characteristic
    assert reduced_euler(made.complex) == reduced_euler(base)


def test_barycentric_subdivision_of_empty_and_point():
    assert barycentric_subdivision(Complex.from_facets([])).complex.num_faces == 1
    made = barycentric_subdivision(Complex.from_facets([[1]]))
    assert f_vector(made.complex) == (1, 1)


def test_barycentric_subdivision_nonpure_is_colored():
    # the cardinality coloring is balanced of type (1, ..., 1) on every
    # base: the edge's chains take colors 1 and 2 only
    base = Complex.from_facets([[1, 2, 3], [4, 5]])
    made = barycentric_subdivision(base)
    assert made.coloring.a == (1, 1, 1)
    assert validate_balanced(made.complex, made.coloring.kappa).a == (1, 1, 1)
    assert sorted(map(len, made.complex.facets)) == [2, 2] + [3] * 6
    assert reduced_euler(made.complex) == reduced_euler(base)


def test_random_complex_determinism():
    a = random_complex(42, 8, 0.5).complex
    b = random_complex(42, 8, 0.5).complex
    assert a == b
    assert a.facets == (
        (1, 2, 3, 4, 5, 7),
        (1, 3, 4, 5, 7, 8),
        (2, 3, 4, 5, 6, 7),
    )
    assert random_complex(43, 8, 0.5).complex != a
    # the benchmark corpus sizes: the draw count, and so the text, is pinned
    pinned = {
        (12, 0.5): "9de016dac297b890",
        (12, 1.0): "6ab7354ba2c0456f",
        (30, 0.5): "f62f3204b9bd22bd",
        (30, 1.0): "50afdaa9e5df1ce9",
        (60, 0.5): "5e3fd3271a815bef",
        (60, 1.0): "c9b0bc2b979eb36c",
    }
    for (n, density), digest in pinned.items():
        text = write_cplx(random_complex(7, n, density).complex)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_random_complex_mixes_sizes():
    sizes = set()
    for seed in range(30):
        cx = random_complex(seed, 8, 0.6).complex
        sizes.update(len(f) for f in cx.facets)
    assert len(sizes) >= 4  # non-pure corpus overall


def test_random_complex_validation():
    with pytest.raises(ValidationError):
        random_complex(1, 0, 0.5)
    with pytest.raises(ValidationError):
        random_complex(1, 5, 0.0)
    with pytest.raises(ValidationError):
        random_complex(1, 5, 1.5)
    # 2 n density is taken in floating point; past the float range it is a
    # validation error, not an OverflowError from the conversion
    with pytest.raises(ValidationError, match="fit a float"):
        random_complex(1, 10**400, 0.5)
    with pytest.raises(ValidationError, match="fit a float"):
        random_complex(1, 10**308, 1.0)  # n fits, 2 n does not
    # a count that fits a float but not the cap fails before any draw
    with pytest.raises(ResourceLimitError, match="^10000000000000000"):
        random_complex(1, 10**300, 0.5, max_faces=1000)


def test_gen_dispatcher():
    made = gen("cross-polytope-boundary", ["3"])
    assert f_vector(made.complex) == (1, 6, 12, 8)
    assert gen("glued-triangles", []).complex == glued_triangles(3).complex
    base = glued_triangles(3).complex
    sd = gen("barycentric-subdivision", [], base=base)
    assert sd.complex == barycentric_subdivision(base).complex
    with pytest.raises(ValidationError):
        gen("no-such-family", [])
    with pytest.raises(ValidationError):
        gen("cylinder", ["3"])
    with pytest.raises(ValidationError):
        gen("random", ["1", "2"])
    with pytest.raises(ValidationError):
        gen("random", ["1", "5", "abc"])
    with pytest.raises(ValidationError):
        gen("simplex-boundary", ["x"])
    for family in ("glued-triangles", "glued-tetrahedra"):
        with pytest.raises(ValidationError, match=r"takes 0 or 1 parameter\(s\), got 3$"):
            gen(family, ["3", "4", "9"])


@pytest.mark.parametrize(
    "family, params",
    [
        ("simplex-boundary", ["6"]),
        ("cross-polytope-boundary", ["5"]),
        ("cylinder", []),
        ("subdivided-triangle", []),
        ("glued-triangles", ["7"]),
        ("glued-tetrahedra", ["7"]),
        ("double-banana", []),
        ("double-banana-minus-triangle", []),
        ("random", ["3", "12", "0.5"]),
    ],
)
def test_every_family_honours_the_face_cap(family, params):
    n = gen(family, params).complex.num_faces
    assert gen(family, params, max_faces=n).complex.num_faces == n
    with pytest.raises(ResourceLimitError):
        gen(family, params, max_faces=n - 1)


@pytest.mark.parametrize(
    "family, params, count, cap",
    [
        # every proper subset of 11 vertices; past the cap's bit length the
        # count is named, not formed
        ("simplex-boundary", ["10"], "2^11 - 1 faces", 10),
        # d+1 facets fit, but each has 2^d faces; listing the facets of
        # d = 10^6 would take 10^12 steps, and the count is never formed
        ("simplex-boundary", ["1000000"], "2^1000001 - 1 faces", 10**7),
        # 3^d faces: each antipodal pair gives none, one or the other
        ("cross-polytope-boundary", ["12"], "531441 faces", 4095),
        # 2^40 facets: listing them first would never finish
        ("cross-polytope-boundary", ["40"], "3^40 faces", 1000),
        # 2^8 facets and 2^8 faces per facet fit; the 3^8 faces do not
        ("cross-polytope-boundary", ["8"], "6561 faces", 6000),
        ("simplex-boundary", ["12"], "8191 faces", 4096),
        ("glued-triangles", ["20"], "20 facets", 19),
        ("glued-tetrahedra", ["20"], "20 facets", 19),
        ("random", ["1", "100000", "1"], "200000 facets", 1000),
        # 10 facets fit, the 4k + 4 faces do not
        ("glued-triangles", ["10"], "44 faces", 43),
        # 3 facets fit, the 12k + 4 faces do not
        ("glued-tetrahedra", ["3"], "40 faces", 39),
        # one 4-vertex facet: its 4! = 24 maximal chains fit, but the empty
        # face and the chains that end at each of its 15 faces, the Fubini
        # numbers 1, 3, 13 and 75 per vertex count, do not
        ("barycentric-subdivision", [[1, 2, 3, 4]], "150 faces", 149),
    ],
    ids=["simplex-10", "simplex-10^6", "cp-12", "cp-40", "cp-8", "simplex-12",
         "glued-triangles", "glued-tetrahedra", "random",
         "glued-triangles-faces", "glued-tetrahedra-faces", "sd-facet-4"],
)
def test_closed_form_facet_count_fails_before_listing(family, params, count, cap, monkeypatch):
    # a subdivision's params are the facets of the complex it subdivides
    base = Complex.from_facets(params) if family == "barycentric-subdivision" else None
    if base is not None:
        assert barycentric_subdivision(base).complex.num_faces == 150 > cap
        params = []

    def closure(*args, **kwargs):
        raise AssertionError("a facet list reached the closure")

    monkeypatch.setattr(Complex, "from_facets", closure)
    with pytest.raises(ResourceLimitError, match="^" + re.escape(f"{count} exceed")):
        gen(family, params, base=base, max_faces=cap)


def test_barycentric_subdivision_checks_its_chain_count():
    base = cross_polytope_boundary(3).complex  # 8 triangles, 3! chains each
    with pytest.raises(ResourceLimitError, match="^48 facets exceed"):
        barycentric_subdivision(base, max_faces=47)
    sd = barycentric_subdivision(base).complex
    assert len(sd.facets) == 48
    assert barycentric_subdivision(base, max_faces=sd.num_faces).complex == sd
    with pytest.raises(ResourceLimitError):
        barycentric_subdivision(base, max_faces=sd.num_faces - 1)
