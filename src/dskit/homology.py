"""Reduced simplicial homology over a field, and homology-manifold tests.

Betti numbers come from ranks of the boundary matrices of the augmented
chain complex (the empty face spans the (-1)-dimensional chain group, so
the map from vertices is the augmentation). Signs follow
del [v_0..v_k] = sum_j (-1)^j [v_0..v_hat_j..v_k] with vertex ids
increasing. Ranks are exact: fraction-free (Bareiss) elimination over the
rationals, modular elimination over GF(p).
"""

from __future__ import annotations

from dataclasses import dataclass
from weakref import WeakKeyDictionary

from .complexes import Complex, FaceTuple, mask_vertices
from .errors import PreconditionError, ValidationError
from .poly import _sign

# Miller-Rabin with the first 13 primes as bases is exact below the smallest
# strong pseudoprime to all of them (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic primality test, exact for p < _MR_EXACT_BELOW."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    odd, s = p - 1, 0
    while odd % 2 == 0:
        odd, s = odd // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, odd, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: characteristic 0 (rationals) or a prime p."""

    characteristic: int = 0

    def __post_init__(self):
        if self.characteristic >= _MR_EXACT_BELOW:
            raise ValidationError(
                f"field characteristic {self.characteristic} is out of range:"
                f" primes must be below {_MR_EXACT_BELOW}"
            )
        if self.characteristic != 0 and not _is_prime(self.characteristic):
            raise ValidationError(
                f"field characteristic must be 0 or prime, got {self.characteristic}"
            )

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls(0)

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        return cls(p)

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        if text.lower() in ("q", "0", "rationals"):
            return cls(0)
        try:
            return cls(int(text))
        except ValueError:
            raise ValidationError(f"field must be 'q' or a prime, got {text!r}")

    def __str__(self) -> str:
        return "q" if self.characteristic == 0 else str(self.characteristic)


def rank_rational(rows: list[list[int]]) -> int:
    """Rank over the rationals of an integer matrix (Bareiss elimination)."""
    m = [row[:] for row in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = next((i for i in range(rank, nrows) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, nrows):
            for j in range(col + 1, ncols):
                m[i][j] = (m[rank][col] * m[i][j] - m[i][col] * m[rank][j]) // prev
            m[i][col] = 0
        prev = m[rank][col]
        rank += 1
        if rank == nrows:
            break
    return rank


def rank_mod(rows: list[list[int]], p: int) -> int:
    """Rank of an integer matrix over GF(p)."""
    m = [[x % p for x in row] for row in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, nrows) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], p - 2, p) if p > 2 else m[rank][col]
        for i in range(rank + 1, nrows):
            if m[i][col]:
                factor = (m[i][col] * inv) % p
                m[i] = [(a - factor * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def _matrix_rank(rows: list[list[int]], field: FieldSpec) -> int:
    if field.characteristic == 0:
        return rank_rational(rows)
    return rank_mod(rows, field.characteristic)


def boundary_matrix(cx: Complex, card: int) -> list[list[int]]:
    """Matrix of del from faces of cardinality card to cardinality card-1.

    Rows are (card-1)-faces, columns are card-faces, both in mask order.
    card = 1 gives the augmentation (every vertex maps to the empty face).
    """
    if card < 1 or card >= len(cx.masks_by_card):
        return []
    sources = cx.masks_by_card[card]
    targets = cx.masks_by_card[card - 1]
    index = {m: i for i, m in enumerate(targets)}
    rows = [[0] * len(sources) for _ in targets]
    for j, g in enumerate(sources):
        for pos, v in enumerate(mask_vertices(g)):
            sub = g & ~(1 << (v - 1))
            rows[index[sub]][j] = -1 if pos % 2 else 1
    return rows


@dataclass(frozen=True)
class BettiTable:
    """Reduced Betti numbers indexed from dimension -1 up to dim(complex)."""

    betti: tuple[int, ...]
    field: FieldSpec

    def b(self, i: int) -> int:
        """beta_i, zero outside the stored range."""
        j = i + 1
        return self.betti[j] if 0 <= j < len(self.betti) else 0

    @property
    def top_dim(self) -> int:
        return len(self.betti) - 2

    def reduced_euler(self) -> int:
        return sum(_sign(i) * self.b(i) for i in range(-1, self.top_dim + 1))

    def items(self) -> list[tuple[int, int]]:
        return [(i - 1, b) for i, b in enumerate(self.betti)]


def reduced_betti(cx: Complex, field: FieldSpec = FieldSpec(0)) -> BettiTable:
    """Reduced Betti numbers of the complex over the given field."""
    ranks = [0] * (cx.d + 2)  # ranks[c] = rank of del: card c -> card c-1
    for c in range(1, cx.d + 1):
        ranks[c] = _matrix_rank(boundary_matrix(cx, c), field)
    betti = tuple(
        len(cx.masks_by_card[c]) - ranks[c] - ranks[c + 1] for c in range(cx.d + 1)
    )
    return BettiTable(betti, field)


@dataclass(frozen=True)
class ManifoldVerdict:
    """Outcome of the homology-manifold test, with a witness on failure."""

    is_manifold: bool
    witness: FaceTuple | None
    witness_betti: BettiTable | None
    field: FieldSpec


# per-complex memo of link Betti tables; complexes are immutable, links in
# manifolds are small, and the manifold test plus the boundary split both
# walk the same links
_link_betti_cache: WeakKeyDictionary = WeakKeyDictionary()


def _link_betti(cx: Complex, fmask: int, field: FieldSpec) -> BettiTable:
    per_complex = _link_betti_cache.setdefault(cx, {})
    key = (fmask, field)
    if key not in per_complex:
        per_complex[key] = reduced_betti(cx.link_mask(fmask), field)
    return per_complex[key]


def _link_betti_ok(betti: BettiTable, sphere_dim: int) -> bool:
    # ball-or-sphere of dimension sphere_dim: all beta_i vanish for
    # i != sphere_dim, and beta at sphere_dim is 0 (ball) or 1 (sphere)
    for i in range(-1, betti.top_dim + 1):
        b = betti.b(i)
        if i == sphere_dim:
            if b not in (0, 1):
                return False
        elif b != 0:
            return False
    return True


def is_homology_manifold(cx: Complex, field: FieldSpec = FieldSpec(0)) -> ManifoldVerdict:
    """Check that every non-empty face's link has ball or sphere homology.

    The link of F must have vanishing reduced homology below dimension
    d-1-|F| and either 0 or the field itself there; everything above is
    checked to vanish as well.
    """
    d = cx.d
    for group in cx.masks_by_card[1:]:
        for fmask in group:
            betti = _link_betti(cx, fmask, field)
            if not _link_betti_ok(betti, d - 1 - fmask.bit_count()):
                return ManifoldVerdict(False, mask_vertices(fmask), betti, field)
    return ManifoldVerdict(True, None, None, field)


def boundary_faces_homological(
    cx: Complex, field: FieldSpec = FieldSpec(0)
) -> tuple[FaceTuple, ...]:
    """Boundary faces of a homology manifold: links with ball homology.

    Returns the empty face plus every non-empty F whose link has vanishing
    homology in dimension d-1-|F|. Requires is_homology_manifold to hold.
    """
    verdict = is_homology_manifold(cx, field)
    if not verdict.is_manifold:
        raise PreconditionError("complex is not a homology manifold", verdict.witness)
    out: list[FaceTuple] = [()]
    d = cx.d
    for group in cx.masks_by_card[1:]:
        for fmask in group:
            betti = _link_betti(cx, fmask, field)
            if betti.b(d - 1 - fmask.bit_count()) == 0:
                out.append(mask_vertices(fmask))
    return tuple(out)


def is_downward_closed(faces: tuple[FaceTuple, ...], cx: Complex) -> bool:
    """Whether a face collection is a subcomplex (every subset present).

    Informational helper for reporting on the boundary-face structure of
    reciprocal complexes; the library takes no stance on the question.
    """
    have = {frozenset(f) for f in faces}
    for f in have:
        for v in f:
            if f - {v} not in have:
                return False
    return True
