"""Dehn-Sommerville identities verified as exact coefficientwise checks.

Every verifier compares polynomials in the monomial basis after exact
closed-form expansion (the substitutions x/(x+1) and (x+1)/x never happen
symbolically) and returns a RelationReport carrying labelled residuals
LHS_k - RHS_k, so a failing identity localizes the violated index.

The universal identities:

    fh-tilde:     sum_i h_i x^i (x+1)^(d-i)            == sum_F x^|F|
    reciprocity:  sum_i h_i (x+1)^i x^(d-i)            == sum_F m_F x^|F|
    ds-h:         sum_i (h_i-h_{d-i}) (x+1)^i x^(d-i)  == sum_F (m_F-1) x^|F|
                  h_{d-i}-h_i == (-1)^i sum_F C(d-|F|,i) eps_F

hold for every complex. The f-versions (ds-f, ds-f-inverse, macdonald)
require a reciprocal complex; semi-eulerian-h requires a semi-Eulerian
one. Vector-level residual functions are exposed separately so identities
can be checked on bare (f, f_int) data. Each identity has one kernel,
shared by the plain, flag and Stanley-Reisner verifiers, on int lists over
exponents_below(a): a plain complex is balanced of type (d,) under one color.

The two evaluations above are T(h) and T(h reversed), T the forward
binomial transform. Their composite S = T o R o T^-1 takes f to the
multiplicity counts, and S(v)(x) = (-1)^d v(-1-x) is an involution. On a
reciprocal complex the multiplicity counts are the interior counts, so
ds-f, ds-f-inverse and Macdonald (on 2f - f_bd) are each one application
of S, in _ds_f_kernel.
"""

from __future__ import annotations

from typing import Sequence

from .complexes import Complex, FaceTuple
from .enumeration import (
    _reciprocal_table,
    boundary_f_vector,
    check_f_vector,
    euler_from_f,
    f_vector,
    h_vector,
    interior_f_vector,
    multiplicities,
    reduced_euler,
    reduced_euler_from_f,
)
from .errors import PreconditionError, ValidationError, _Record
from .homology import FieldSpec, is_homology_manifold
from .poly import _binomial_transform, _sign, exponents_below


def _jsonify(v):
    if isinstance(v, bool):
        return v
    if isinstance(v, int):
        return str(v)
    if isinstance(v, (list, tuple)):
        return [_jsonify(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonify(x) for k, x in v.items()}
    return v


class RelationReport(_Record):
    """Verdict of one relation with labelled per-index residuals."""

    __slots__ = ("relation", "holds", "labels", "residuals", "context", "skipped")

    def __init__(
        self, relation: str, holds: bool, labels: tuple[str, ...], residuals: tuple[int, ...],
        context: dict | None = None, skipped: str | None = None,
    ):
        self.relation = relation
        self.holds = holds
        self.labels = labels
        self.residuals = residuals
        self.context = {} if context is None else context
        self.skipped = skipped

    def residual(self, label: str) -> int:
        return self.residuals[self.labels.index(label)]

    def to_json_dict(self) -> dict:
        return {
            "relation": self.relation,
            "holds": self.holds,
            "skipped": self.skipped,
            "labels": list(self.labels),
            "residuals": [str(r) for r in self.residuals],
            "context": _jsonify(self.context),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RelationReport":
        return cls(
            relation=data["relation"],
            holds=bool(data["holds"]),
            labels=tuple(data["labels"]),
            residuals=tuple(int(r) for r in data["residuals"]),
            context=data.get("context", {}),
            skipped=data.get("skipped"),
        )


def _report(relation: str, labels, residuals, context) -> RelationReport:
    residuals = tuple(int(r) for r in residuals)
    # strict: labels and residuals of unequal length raise ValueError
    labels = tuple(label for label, _ in zip(labels, residuals, strict=True))
    return RelationReport(
        relation=relation,
        holds=all(r == 0 for r in residuals),
        labels=labels,
        residuals=residuals,
        context=context,
    )


def _skipped(relation: str, reason: str, context: dict) -> RelationReport:
    return RelationReport(relation, True, (), (), context, skipped=reason)


def _base_context(cx: Complex) -> dict:
    chi_r = reduced_euler_from_f(f_vector(cx))
    # m_F = (-1)^(d-1-|F|) chi_reduced(link(F)), and the empty face's link
    # is the complex itself
    return {"d": cx.d, "chi_reduced": chi_r, "m_empty": _sign(cx.d - 1) * chi_r}


# -- classification -----------------------------------------------------


class Classification(_Record):
    """Complex-class flags with witness faces for each failed flag."""

    __slots__ = ("reciprocal", "semi_eulerian", "eulerian", "homology_manifold", "field", "witnesses")

    def __init__(
        self, reciprocal: bool, semi_eulerian: bool, eulerian: bool, homology_manifold: bool,
        field: FieldSpec, witnesses: dict | None = None,
    ):
        self.reciprocal = reciprocal
        self.semi_eulerian = semi_eulerian
        self.eulerian = eulerian
        self.homology_manifold = homology_manifold
        self.field = field
        self.witnesses = {} if witnesses is None else witnesses

    def to_json_dict(self) -> dict:
        return {
            "reciprocal": self.reciprocal,
            "semi_eulerian": self.semi_eulerian,
            "eulerian": self.eulerian,
            "homology_manifold": self.homology_manifold,
            "field": str(self.field),
            "witnesses": {k: list(v) for k, v in self.witnesses.items()},
        }


def classify(cx: Complex, fld: FieldSpec = FieldSpec(0)) -> Classification:
    """Flags {reciprocal, semi_eulerian, eulerian, homology_manifold}."""
    table = multiplicities(cx)
    witnesses: dict[str, FaceTuple] = {}
    rec_w = table.reciprocity_witness()
    if rec_w is not None:
        witnesses["reciprocal"] = rec_w
    semi_w = table.semi_eulerian_witness()
    if semi_w is not None:
        witnesses["semi_eulerian"] = semi_w
    eulerian = semi_w is None and table.m_empty == 1
    if not eulerian:
        witnesses["eulerian"] = semi_w if semi_w is not None else ()
    verdict = is_homology_manifold(cx, fld)
    if not verdict.is_manifold:
        witnesses["homology_manifold"] = verdict.witness
    return Classification(
        reciprocal=rec_w is None,
        semi_eulerian=semi_w is None,
        eulerian=eulerian,
        homology_manifold=verdict.is_manifold,
        field=fld,
        witnesses=witnesses,
    )


# -- one kernel per identity ---------------------------------------------


def _fh_tilde_kernel(a, f, h) -> tuple:
    """Sides of sum_b h_b x^b (x+1)^(a-b) == sum_b f_b x^b."""
    return _binomial_transform(h, a), f


def _reciprocity_kernel(a, h, msum) -> tuple:
    """Sides of sum_b h_b (x+1)^b x^(a-b) == sum_b msum_b x^b; h[::-1] has h_{a-b} at b."""
    return _binomial_transform(h[::-1], a), msum


def _ds_kernel(a, d, f, h, msum) -> tuple:
    """(lhs, rhs, scalar): Dehn-Sommerville, the fh-tilde sides minus the reciprocity ones.

    Polynomial: sum_b (h_b - h_{a-b}) x^b (x+1)^(a-b) = sum_b (f_b - msum_b) x^b.
    Scalar, for every b <= a: h_b - h_{a-b} = (-1)^(|a|-|b|) sum over faces
    with b(F) <= b of C(a-b(F), a-b) eps_F. The faces with b(F) = c add up
    to E_c = (-1)^(d-1-|c|) (msum_c - f_c), so the sum
    sum_{c<=b} C(a-c, b-c) E_c is the forward binomial transform of E.
    """
    lattice = list(exponents_below(a))
    diffs = [hb - hr for hb, hr in zip(h, reversed(h))]
    eps = [_sign(d - 1 - sum(c)) * (m - fc) for c, fc, m in zip(lattice, f, msum)]
    scalar = [
        diff - _sign(sum(a) - sum(b)) * acc
        for b, diff, acc in zip(lattice, diffs, _binomial_transform(eps, a))
    ]
    return _binomial_transform(diffs, a), [fc - m for fc, m in zip(f, msum)], scalar


def _semi_eulerian_kernel(a, h, gap) -> list:
    """Residuals of h_{a-b} - h_b = (-1)^|b| C(a,b) gap, for every b <= a.

    C(a,b) gap is the transform of gap at b = 0, zero elsewhere.
    """
    terms = _binomial_transform([gap] + [0] * (len(h) - 1), a)
    return [
        (hr - hb) - _sign(sum(b)) * term
        for b, hb, hr, term in zip(exponents_below(a), h, reversed(h), terms)
    ]


def _semi_eulerian_gap(cx: Complex) -> tuple[int, bool]:
    """(chi_reduced - (-1)^(d-1), whether cx is Eulerian) of a semi-Eulerian complex."""
    table = multiplicities(cx)
    witness = table.semi_eulerian_witness()
    if witness is not None:
        raise PreconditionError("complex is not semi-Eulerian", witness)
    return reduced_euler(cx) - _sign(cx.d - 1), table.m_empty == 1


# -- universal polynomial identities -------------------------------------


def _poly_report(
    relation: str, cx: Complex, lhs: Sequence[int], rhs: Sequence[int],
    labels: Sequence[str] = (), residuals: Sequence[int] = (), **context,
) -> RelationReport:
    """lhs == rhs coefficientwise over x^k, k <= d, then any scalar residuals."""
    ctx = {**_base_context(cx), "lhs": tuple(lhs), "rhs": tuple(rhs), **context}
    return _report(
        relation,
        [f"x^{k}" for k in range(cx.d + 1)] + list(labels),
        [l - r for l, r in zip(lhs, rhs, strict=True)] + list(residuals),
        ctx,
    )


def verify_fh_tilde(cx: Complex) -> RelationReport:
    """sum_i h_i x^i (x+1)^(d-i) recovers the f-polynomial (always holds).

    No multiplicity enters.
    """
    f = f_vector(cx)
    h = h_vector(f)
    return _poly_report("fh-tilde", cx, *_fh_tilde_kernel((cx.d,), f, h), h=h)


def verify_reciprocity(cx: Complex) -> RelationReport:
    """sum_i h_i (x+1)^i x^(d-i) counts faces with multiplicity (always holds)."""
    h = h_vector(f_vector(cx))
    msum = multiplicities(cx).poly()
    return _poly_report("reciprocity", cx, *_reciprocity_kernel((cx.d,), h, msum), h=h)


def verify_ds_h(cx: Complex) -> RelationReport:
    """h-version Dehn-Sommerville for arbitrary complexes (always holds).

    Checks the polynomial identity and all d+1 scalar error-sum relations:
    the ds kernel at a = (d,), negated, with the scalar i=k at b = d-k.
    """
    f = f_vector(cx)
    h = h_vector(f)
    msum = multiplicities(cx).poly()
    lhs, rhs, scalar = _ds_kernel((cx.d,), cx.d, f, h, msum)
    labels = [f"i={i}" for i in range(cx.d + 1)]
    return _poly_report(
        "ds-h", cx, [-v for v in lhs], [-v for v in rhs], labels, scalar[::-1], h=h
    )


# -- f-version identities (reciprocal complexes) -------------------------


def _ds_f_kernel(a, v) -> list:
    """S(v) = T(R(T^-1 v)), T the fh-tilde transform and R the reversal of reciprocity.

    On v = f, T^-1 v is h, and S(v) is the multiplicity count sum_b msum_b x^b.
    In closed form S(v)(x) = (-1)^|a| v(-1-x), so S is an involution, and
    S(v)_e = sum_{b>=e} (-1)^(|a|-|b|) C(b, e) v_b. On a reciprocal complex
    msum counts the interior faces, which makes every f-version identity
    (ds-f, ds-f-inverse, Macdonald) one application of S.
    """
    return _binomial_transform(_binomial_transform(v, a, inverse=True)[::-1], a)


def _checked_f_int(f: Sequence[int], f_int: Sequence[int]) -> tuple:
    """(f as ints, d), once f is an f-vector and f_int has length d."""
    f = check_f_vector(f)
    d = len(f) - 1
    if len(f_int) != d:
        raise ValidationError(f"interior vector must have length d={d}")
    return f, d


def ds_f_residuals(
    f: Sequence[int], f_int: Sequence[int], m_empty: int
) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """Residuals of f_{k-1} = sum_{i>=k} (-1)^(d-i) C(i,k) f^int_{i-1}.

    Index k=0 uses the extra (-1)^d m_empty term, and 'chi' is the
    Euler-characteristic form chi = (-1)^(d-1) chi(interior).
    """
    f, d = _checked_f_int(f, f_int)
    # m_empty is the interior count of the empty face
    rhs = _ds_f_kernel((d,), [m_empty, *f_int])
    chi_int = sum(_sign(i - 1) * f_int[i - 1] for i in range(1, d + 1))
    labels = tuple(f"k={k}" for k in range(d + 1)) + ("chi",)
    residuals = [fk - r for fk, r in zip(f, rhs)]
    residuals.append(euler_from_f(f) - _sign(d - 1) * chi_int)
    return labels, tuple(residuals)


def ds_f_inverse_residuals(
    f: Sequence[int], f_int: Sequence[int]
) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """Residuals of f^int_{k-1} = sum_{i>=k} (-1)^(d-i) C(i,k) f_{i-1}, k >= 1."""
    f, d = _checked_f_int(f, f_int)
    rhs = _ds_f_kernel((d,), f)[1:]
    labels = tuple(f"k={k}" for k in range(1, d + 1))
    return labels, tuple(fi - r for fi, r in zip(f_int, rhs))


def verify_ds_f(cx: Complex) -> RelationReport:
    """f-version Dehn-Sommerville on a reciprocal complex."""
    f, f_int = f_vector(cx), interior_f_vector(cx)
    ctx = {**_base_context(cx), "f": f, "f_int": f_int}
    return _report("ds-f", *ds_f_residuals(f, f_int, multiplicities(cx).m_empty), ctx)


def verify_ds_f_inverse(cx: Complex) -> RelationReport:
    """Interior face numbers as the same linear combinations of face numbers."""
    f, f_int = f_vector(cx), interior_f_vector(cx)
    ctx = {**_base_context(cx), "f": f, "f_int": f_int}
    return _report("ds-f-inverse", *ds_f_inverse_residuals(f, f_int), ctx)


def verify_semi_eulerian_h(cx: Complex) -> RelationReport:
    """h_{d-i} - h_i = (-1)^i C(d,i) (chi_reduced - (-1)^(d-1)) on semi-Eulerian input."""
    gap, eulerian = _semi_eulerian_gap(cx)
    h = h_vector(f_vector(cx))
    labels = [f"i={i}" for i in range(cx.d + 1)]
    ctx = {**_base_context(cx), "h": h, "eulerian": eulerian, "palindrome": gap == 0}
    return _report("semi-eulerian-h", labels, _semi_eulerian_kernel((cx.d,), h, gap), ctx)


# -- Macdonald's relation (Appendix-style weaker form) --------------------


def macdonald_two_q(f: Sequence[int], f_boundary: Sequence[int]) -> tuple[int, ...]:
    """The doubled Macdonald polynomial 2Q(x) = 2*P(Delta,x) - P(boundary,x).

    P(.,x) alternates face counts: P = sum_k (-1)^k f_{k-1} x^k. The
    doubling keeps the d + 1 coefficients integral (Q itself has halves).
    """
    f = check_f_vector(f)
    d = len(f) - 1
    fb = tuple(int(x) for x in f_boundary)
    if len(fb) != d + 1 or fb[0] != 1:
        raise ValidationError("boundary f-vector must be (1, f^bd_0, ..., f^bd_{d-1})")
    return tuple(_sign(k) * (2 * f[k] - fb[k]) for k in range(d + 1))


def macdonald_residuals(
    f: Sequence[int], f_boundary: Sequence[int], chi_reduced: int
) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """Residuals of (-1)^d Q(-x) = Q(1+x) + cte, doubled to stay integral.

    cte is 0 when d-1 is odd and chi_reduced when d-1 is even.
    """
    q2 = macdonald_two_q(f, f_boundary)
    d = len(q2) - 1
    # P alternates, so v = 2f - f_bd, and (-1)^d Q(-x) - Q(1+x) is (-1)^d (v - S(v))
    v = [_sign(k) * c for k, c in enumerate(q2)]
    residuals = [_sign(d) * (vk - sk) for vk, sk in zip(v, _ds_f_kernel((d,), v))]
    residuals[0] -= 0 if (d - 1) % 2 else 2 * chi_reduced
    return tuple(f"x^{k}" for k in range(d + 1)), tuple(residuals)


def macdonald_q(cx: Complex) -> tuple[int, ...]:
    """Doubled Macdonald polynomial 2Q of a reciprocal complex, an int tuple.

    The boundary counts are the multiplicity-zero faces (which on a
    homology manifold coincide with the homological boundary).
    """
    return macdonald_two_q(f_vector(cx), boundary_f_vector(cx))


def verify_macdonald(cx: Complex) -> RelationReport:
    """Macdonald's polynomial relation on a reciprocal complex.

    Residuals are doubled. The context records whether the full f-version
    Dehn-Sommerville holds for the implied interior counts; the polynomial
    relation is strictly weaker, so ds-f holding forces this relation to
    hold as well.
    """
    table = _reciprocal_table(cx)
    f = f_vector(cx)
    fb = boundary_f_vector(cx)
    chi_r = reduced_euler_from_f(f)
    labels, residuals = macdonald_residuals(f, fb, chi_r)
    implied_int = tuple(f[k] - fb[k] for k in range(1, len(f)))
    _, ds_res = ds_f_residuals(f, implied_int, table.m_empty)
    ctx = _base_context(cx)
    ctx.update(
        {
            "f": f,
            "f_boundary": fb,
            "implied_f_int": implied_int,
            "ds_f_holds": all(r == 0 for r in ds_res),
            "residuals_doubled": True,
        }
    )
    return _report("macdonald", labels, residuals, ctx)


# -- batch driver ---------------------------------------------------------

# CLI name -> verifier, in report order. Values are function names looked up
# at call time, so a wrapper installed on this module (a tracer) sees the call.
RELATIONS = {
    "fh-tilde": "verify_fh_tilde",
    "reciprocity": "verify_reciprocity",
    "ds-f": "verify_ds_f",
    "ds-f-inverse": "verify_ds_f_inverse",
    "ds-h": "verify_ds_h",
    "semi-eulerian-h": "verify_semi_eulerian_h",
    "macdonald": "verify_macdonald",
}
RELATION_NAMES = tuple(RELATIONS)


def verify_relation(cx: Complex, name: str) -> RelationReport:
    """Dispatch a single relation by CLI name."""
    if name not in RELATIONS:
        raise ValidationError(f"unknown relation {name!r}")
    return globals()[RELATIONS[name]](cx)


def verify_all(cx: Complex) -> list[RelationReport]:
    """Run every relation, skipping those whose precondition fails."""
    reports = []
    for name in RELATION_NAMES:
        try:
            reports.append(verify_relation(cx, name))
        except PreconditionError as exc:
            ctx = _base_context(cx)
            if exc.witness is not None:
                ctx["witness"] = list(exc.witness)
            reports.append(_skipped(name, str(exc), ctx))
    return reports
