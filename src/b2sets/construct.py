"""Construction of the extremal set families.

The central object is a family W = W_1 u ... u W_k of integers built from
three ingredients: a code family of sign vectors v_1..v_k, a reduced
Vandermonde matrix M, and the lattice S = {M y : y in {1,2,...}^m} of
tuples whose coordinates index disjoint geometric sequences x^c_i =
5^(i*d + c). An element of W_j is the signed combination
sum_c v_j[c] * 5^(coords[c]*d + c+1) for a lattice tuple ``coords``.

Alongside W (hadamard code) and its star-code twin, this module builds
their direct product in Z^2, the difference set of powers of five
(``meyer``), and the simpler 2^k-part family over a k-dimensional index
box (``proposition``). It also provides the generic tools that transport
these sets without disturbing their additive structure: embeddings of
d-dimensional points into Z that preserve all sum and difference
quadruples, translations, and packing into disjoint dyadic blocks.
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import NamedTuple

from .codes import (
    CodeFamily,
    ReducedVandermonde,
    hadamard_code_vectors,
    hadamard_length,
    reduced_vandermonde,
    star_code_vectors,
)
from .digitnum import DigitVector, as_int
from .errors import EmptyConstruction, InternalVerificationFailure, ParameterError, ResourceCap

ELEMENT_CAP = 10**7  # the most elements any build may produce


class TuplePoint(NamedTuple):
    """A lattice point M*preimage together with its preimage."""

    coords: tuple[int, ...]
    preimage: tuple[int, ...]


class LabeledElement(NamedTuple):
    """A family member phi(point) . v_j with its construction labels."""

    point: TuplePoint
    vector_index: int  # 1-based index into the code family
    value: DigitVector


class MeyerElement(NamedTuple):
    """5^hi - 5^lo with 0 <= lo < hi."""

    hi: int
    lo: int
    value: DigitVector


class BoxElement(NamedTuple):
    """A signed combination over a k-dimensional index box."""

    indices: tuple[int, ...]
    signs: tuple[int, ...]
    value: DigitVector


class ProductElement(NamedTuple):
    """An ordered pair (left, right) of family members, one per factor."""

    left: LabeledElement
    right: LabeledElement

    @property
    def value(self) -> tuple[DigitVector, DigitVector]:
        return (self.left.value, self.right.value)


class Part(NamedTuple):
    name: str
    elements: tuple


class SetFamily(NamedTuple):
    """A named, partitioned set with full construction provenance.

    ``parts`` are pairwise disjoint as value sets; ``ambient`` is 1 for
    integer families and 2 for the product family whose elements are
    ordered pairs.
    """

    kind: str  # "W" | "Wcirc" | "product" | "meyer" | "proposition"
    ambient: int
    params: dict
    parts: tuple[Part, ...]
    warnings: tuple[str, ...] = ()
    code: CodeFamily | None = None
    matrix: ReducedVandermonde | None = None
    factors: tuple["SetFamily", "SetFamily"] | None = None

    def union_elements(self) -> list:
        out = []
        for part in self.parts:
            out.extend(part.elements)
        return out

    def union_values(self) -> list:
        return [e.value for e in self.union_elements()]

    def part_values(self) -> list[list]:
        return [[e.value for e in part.elements] for part in self.parts]

    def size(self) -> int:
        return sum(len(part.elements) for part in self.parts)

    def describe(self) -> str:
        bits = [f"{self.kind}", f"|union|={self.size()}", f"parts={len(self.parts)}"]
        for key in ("k", "n", "n_max", "d", "m", "prime"):
            if key in self.params:
                bits.append(f"{key}={self.params[key]}")
        if self.warnings:
            bits.append(f"warnings={len(self.warnings)}")
        return " ".join(bits)


def lattice_points(
    matrix: ReducedVandermonde, n: int, max_points: int | None = None
) -> tuple[TuplePoint, ...]:
    """All points M*y with y in {1,2,...}^m and every coordinate <= n.

    Entries of M are >= 1, so each y_c is bounded by n and the search is
    finite; preimages are enumerated in lexicographic order, which fixes
    the canonical order of every downstream element list. Every partial
    preimage extends to a point, so the search stops, raising ResourceCap,
    at the first point past ``max_points``.
    """
    if n < 1:
        raise ParameterError("lattice_points requires n >= 1")
    rows = matrix.rows
    d = matrix.d
    m = matrix.m
    # suffix_min[c][r]: least possible contribution of columns >= c to row r
    suffix_min = [[0] * d for _ in range(m + 1)]
    for c in range(m - 1, -1, -1):
        for r in range(d):
            suffix_min[c][r] = suffix_min[c + 1][r] + rows[r][c]
    out: list[TuplePoint] = []
    y = [0] * m

    def rec(c: int, partial: list[int]):
        if c == m:
            out.append(TuplePoint(tuple(partial), tuple(y)))
            if max_points is not None and len(out) > max_points:
                raise ResourceCap(f"more than {max_points} lattice points with n={n}")
            return
        v = 1
        while True:
            nxt = [partial[r] + rows[r][c] * v for r in range(d)]
            if any(nxt[r] + suffix_min[c + 1][r] > n for r in range(d)):
                break
            y[c] = v
            rec(c + 1, nxt)
            v += 1

    rec(0, [0] * d)
    return tuple(out)


def element_value(coords: tuple[int, ...], vector: tuple[int, ...]) -> DigitVector:
    """sum_c vector[c] * 5^(coords[c]*d + c+1) as a DigitVector."""
    d = len(coords)
    return DigitVector.from_map(
        {coords[c] * d + (c + 1): vector[c] for c in range(d) if vector[c]}
    )


def _check_cap(kind: str, size: int, element_cap: int) -> None:
    if size > element_cap:
        raise ResourceCap(f"{kind} would hold {size} elements, above the cap {element_cap}")


def _code_family_set(
    kind: str, code_vectors, d: int, k: int, n: int, element_cap: int
) -> SetFamily:
    # each of the k parts holds one element per lattice point
    _check_cap(kind, k, element_cap)
    empty = f"{kind}: no lattice points with all coordinates <= {n} (d={d})"
    # Row 1 of the matrix is node 1's powers, all 1, so every lattice point
    # has first coordinate sum(y) >= m = ceil(d/2): for n below m the
    # lattice is known to be empty before the code or the matrix is built.
    # (n < 1 is lattice_points' parameter error.)
    if 1 <= n < (d + 1) // 2:
        raise EmptyConstruction(empty)
    code = code_vectors(k)
    matrix = reduced_vandermonde(code.d)
    points = lattice_points(matrix, n, element_cap // k)
    if not points:
        raise EmptyConstruction(empty)
    parts = []
    for j0, vec in enumerate(code.vectors):
        elems = tuple(
            LabeledElement(pt, j0 + 1, element_value(pt.coords, vec))
            for pt in points
        )
        parts.append(Part(f"{kind}_{j0 + 1}", elems))
    params = {
        "k": k,
        "n": n,
        "d": code.d,
        "m": matrix.m,
        "prime": matrix.prime,
        "nat_start": 1,
        "lattice_size": len(points),
    }
    return SetFamily(
        kind=kind,
        ambient=1,
        params=params,
        parts=tuple(parts),
        warnings=code.warnings,
        code=code,
        matrix=matrix,
    )


def build_w(k: int, n: int, element_cap: int = ELEMENT_CAP) -> SetFamily:
    """The k-part family over hadamard code vectors.

    Each part is a perfect difference-free summand: all pair sums within a
    part are distinct, while the union has every nonzero difference hit at
    most twice.
    """
    if k < 2:
        raise ParameterError("build_w requires k >= 2")
    return _code_family_set(
        "W", hadamard_code_vectors, hadamard_length(k), k, n, element_cap
    )


def build_w_circ(k: int, n: int, element_cap: int = ELEMENT_CAP) -> SetFamily:
    """The star-code twin: parts repeat no nonzero difference, and for
    k >= 5 the union repeats no sum more than twice."""
    if k < 2:
        raise ParameterError("build_w_circ requires k >= 2")
    return _code_family_set("Wcirc", star_code_vectors, k, k, n, element_cap)


def build_product(k: int, n: int, element_cap: int = ELEMENT_CAP) -> SetFamily:
    """The full Cartesian product Wcirc x W in Z^2, materialized eagerly."""
    if k < 2:
        raise ParameterError("build_product requires k >= 2")
    left = build_w_circ(k, n, element_cap)
    right = build_w(k, n, element_cap)
    _check_cap("product", left.size() * right.size(), element_cap)
    left_elems = left.union_elements()
    right_elems = right.union_elements()
    elems = tuple(
        ProductElement(le, re) for le in left_elems for re in right_elems
    )
    params = {
        "k": k,
        "n": n,
        "left_size": left.size(),
        "right_size": right.size(),
    }
    return SetFamily(
        kind="product",
        ambient=2,
        params=params,
        parts=(Part("WcircxW", elems),),
        warnings=tuple(dict.fromkeys(left.warnings + right.warnings)),
        factors=(left, right),
    )


def build_meyer(n_max: int, element_cap: int = ELEMENT_CAP) -> SetFamily:
    """All differences 5^hi - 5^lo for 0 <= lo < hi <= n_max."""
    if n_max < 1:
        raise ParameterError("build_meyer requires n_max >= 1")
    _check_cap("meyer", n_max * (n_max + 1) // 2, element_cap)
    elems = []
    for hi in range(1, n_max + 1):
        for lo in range(hi):
            elems.append(
                MeyerElement(hi, lo, DigitVector.from_map({hi: 1, lo: -1}))
            )
    params = {"n_max": n_max, "base": 5}
    return SetFamily(
        kind="meyer",
        ambient=1,
        params=params,
        parts=(Part("E", tuple(elems)),),
    )


def build_proposition(k: int, n: int, element_cap: int = ELEMENT_CAP) -> SetFamily:
    """2^k parts, one per sign pattern in {1,-1}^k, over a k-dim index box.

    Part for pattern v holds sum_c v[c] * 5^(i_c*k + c+1) for all index
    tuples (i_1..i_k) in [1, n]^k; each part has n^k elements.
    """
    if k < 1:
        raise ParameterError("build_proposition requires k >= 1")
    if n < 1:
        raise ParameterError("build_proposition requires n >= 1")
    # 2^k > element_cap once k reaches its bit length; (2n)^k stays small
    if k >= element_cap.bit_length():
        raise ResourceCap(f"proposition with k={k} exceeds the cap {element_cap}")
    _check_cap("proposition", (2 * n) ** k, element_cap)
    parts = []
    for idx, signs in enumerate(iter_product((1, -1), repeat=k)):
        elems = tuple(
            BoxElement(indices, signs, element_value(indices, signs))
            for indices in iter_product(range(1, n + 1), repeat=k)
        )
        parts.append(Part(f"S_{idx + 1}", elems))
    params = {"k": k, "n": n, "nat_start": 1}
    return SetFamily(
        kind="proposition",
        ambient=1,
        params=params,
        parts=tuple(parts),
    )


def build_family(
    kind: str,
    k: int | None = None,
    n: int | None = None,
    n_max: int | None = None,
    element_cap: int = ELEMENT_CAP,
) -> SetFamily:
    """Build the family of ``kind`` from its recipe: k and n, or n_max for
    meyer, holding at most ``element_cap`` elements. The one map from a
    kind to its builder."""
    if kind == "W":
        return build_w(k, n, element_cap)
    if kind == "Wcirc":
        return build_w_circ(k, n, element_cap)
    if kind == "product":
        return build_product(k, n, element_cap)
    if kind == "meyer":
        if n_max is None:
            raise ParameterError("n_max is required for kind meyer")
        return build_meyer(n_max, element_cap)
    if kind == "proposition":
        return build_proposition(k, n, element_cap)
    raise ParameterError(f"unknown kind {kind!r}")


# -- structure-preserving transport ---------------------------------------


class F2Embedding(NamedTuple):
    """An injective map of d-dimensional points into Z preserving all
    a+b = c+d and a-b = c-d relations in both directions.

    base is 5 times the largest coordinate magnitude, so coordinate sums
    and differences of two points stay within (-base/2, base/2) and
    balanced base-``base`` expansions of the images are unique; that
    argument certifies preservation for every set, whatever its size.
    """

    base: int
    points: tuple[tuple[int, ...], ...]
    image: tuple[int, ...]

    def decode(self, value: int) -> tuple[int, ...]:
        """The point mapped to ``value``: an image, or a sum or difference
        of two images. Each coordinate is then below base/2 in magnitude,
        so the balanced base-``base`` digits of value / base are the
        coordinates. The base is 0 only for a lone origin, whose images
        and their sums and differences are all 0."""
        base = self.base or 1
        half = base // 2
        value //= base
        coords = []
        for _ in self.points[0]:
            value, digit = divmod(value + half, base)
            coords.append(digit - half)
        return tuple(coords)


def _as_point(x) -> tuple[int, ...]:
    if isinstance(x, tuple):
        return tuple(map(as_int, x))
    return (as_int(x),)


def f2_embed(points) -> F2Embedding:
    """Embed a finite set of d-dimensional integer points into Z via
    point -> sum_i point[i] * base^(i+1) with base = 5 * max |coordinate|.
    The base argument of F2Embedding certifies every relation."""
    pts = [_as_point(p) for p in points]
    if not pts:
        raise ParameterError("f2_embed requires a nonempty set")
    dim = len(pts[0])
    if any(len(p) != dim for p in pts):
        raise ParameterError("all points must share one dimension")
    if len(set(pts)) != len(pts):
        raise ParameterError("points must be distinct")
    maxabs = max((abs(c) for p in pts for c in p), default=0)
    base = 5 * maxabs
    powers = [base ** (i + 1) for i in range(dim)]
    image = tuple(sum(c * powers[i] for i, c in enumerate(p)) for p in pts)
    if len(set(image)) != len(image):
        raise InternalVerificationFailure("embedding image is not injective")
    return F2Embedding(base=base, points=tuple(pts), image=image)


def translate(elements, alpha):
    """Shift every element by alpha; preserves all sum and difference
    quadruple relations. DigitVector inputs come back as plain integers."""
    out = []
    for x in elements:
        if isinstance(x, tuple):
            if not isinstance(alpha, tuple) or len(alpha) != len(x):
                raise ParameterError("alpha must be a tuple matching the point dimension")
            out.append(tuple(as_int(c) + a for c, a in zip(x, alpha)))
        else:
            x = as_int(x)
            if not isinstance(alpha, int):
                raise ParameterError("alpha must be an integer for integer elements")
            out.append(x + alpha)
    return out


class PackedBlock(NamedTuple):
    index: int
    psi: int
    offset: int
    elements: tuple[int, ...]


class DyadicPacking(NamedTuple):
    blocks: tuple[PackedBlock, ...]

    def union(self) -> list[int]:
        out = []
        for b in self.blocks:
            out.extend(b.elements)
        return out


def dyadic_pack(sets) -> DyadicPacking:
    """Translate each finite set into its own dyadic block [2^psi, 2^(psi+1)).

    psi is strictly increasing across the input order, taking the minimal
    block that fits each set's width; translations preserve each set's
    additive structure and the blocks are pairwise disjoint.
    """
    blocks = []
    prev_psi = -1
    for idx, s in enumerate(sets):
        vals = sorted(as_int(v) for v in s)
        if not vals:
            raise ParameterError("dyadic_pack requires nonempty sets")
        if len(set(vals)) != len(vals):
            raise ParameterError("dyadic_pack requires distinct elements")
        width = vals[-1] - vals[0] + 1
        need = (width - 1).bit_length()  # minimal psi with 2^psi >= width
        psi = max(prev_psi + 1, need)
        offset = (1 << psi) - vals[0]
        moved = tuple(v + offset for v in vals)
        if moved[0] < (1 << psi) or moved[-1] >= (1 << (psi + 1)):
            raise InternalVerificationFailure("block does not fit its dyadic range")
        blocks.append(PackedBlock(index=idx, psi=psi, offset=offset, elements=moved))
        prev_psi = psi
    return DyadicPacking(tuple(blocks))
